// serve: an in-process serve::Server on loopback (1 worker, no io threads)
// serving counter sessions, driven by one client thread that speaks
// CEUWIRE1 directly: frames built with serve::encode_frame, read back with
// serve::FrameReader. The run is a series of blocks (see run_block); one
// round of operations is
//   - a closed-loop chunk: kChunk Inject frames, kWindow kept in flight,
//   - a round-trip chunk: kRtt Inject frames, one in flight at a time,
//   - one migration: Detach a session, Resume it from the CEUHST01 blob.
// At the end of a block every session is detached and its blob loaded into
// a local host::Instance, whose total on STOP must equal the ADDs sent.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.hpp"
#include "codegen/flatten.hpp"
#include "host/instance.hpp"
#include "reactor/verdict.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "serve/wire.hpp"

namespace perfbench {

namespace {

using namespace ceu;

constexpr size_t kSessions = 64;
constexpr size_t kWindow = 64;   // injects in flight in the closed loop
constexpr size_t kChunk = 2048;  // closed-loop injects per round
constexpr size_t kRtt = 128;     // one-in-flight injects per round
constexpr size_t kRounds = 20;   // rounds per block (per server)


/// A blocking CEUWIRE1 connection with a span around each layer call.
class Wire {
  public:
    explicit Wire(uint16_t port) {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0) throw std::runtime_error("socket() failed");
        int yes = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &yes, sizeof yes);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(port);
        if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
            ::close(fd_);
            throw std::runtime_error(std::string("connect() failed: ") + std::strerror(errno));
        }
    }
    ~Wire() { ::close(fd_); }
    Wire(const Wire&) = delete;
    Wire& operator=(const Wire&) = delete;

    void send(const serve::Frame& f) {
        buf_.clear();
        {
            Span span("serve.encode");
            serve::encode_frame(f, buf_);
        }
        Span span("serve.send");
        size_t off = 0;
        while (off < buf_.size()) {
            ssize_t n = ::send(fd_, buf_.data() + off, buf_.size() - off, MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR) continue;
            if (n <= 0) throw std::runtime_error("send failed");
            off += static_cast<size_t>(n);
        }
    }

    /// Next reply frame; session-status and output frames are skipped.
    serve::Frame recv() {
        serve::Frame f;
        for (;;) {
            bool got = false;
            {
                Span span("serve.decode");
                got = reader_.next(f);
            }
            if (got) {
                if (f.type == serve::FrameType::Error) {
                    throw std::runtime_error("server error: " + f.text);
                }
                if (f.type == serve::FrameType::Output ||
                    f.type == serve::FrameType::SessionStatus ||
                    f.type == serve::FrameType::Span) {
                    continue;
                }
                return f;
            }
            Span span("serve.recv_wait");
            ssize_t n = ::recv(fd_, in_, sizeof in_, 0);
            if (n < 0 && errno == EINTR) continue;
            if (n <= 0) throw std::runtime_error("connection closed by the server");
            reader_.feed(in_, static_cast<size_t>(n));
        }
    }

    serve::Frame expect(serve::FrameType t) {
        serve::Frame f = recv();
        if (f.type != t) {
            throw std::runtime_error(std::string("expected ") + serve::frame_type_name(t) +
                                     ", got " + serve::frame_type_name(f.type));
        }
        return f;
    }

  private:
    int fd_ = -1;
    serve::FrameReader reader_;
    std::vector<uint8_t> buf_;
    uint8_t in_[64 * 1024];
};

struct Client {
    Wire& w;
    Result& res;
    uint64_t last_ticket = 0;
    bool any_ticket = false;
    std::unordered_map<uint64_t, int64_t> adds;  // session -> ADDs accepted

    void send_inject(uint64_t session) {
        serve::Frame f;
        f.type = serve::FrameType::Inject;
        f.session = session;
        f.text = "ADD";
        f.value = 1;
        w.send(f);
    }
    void take_reply() {
        serve::Frame r = w.expect(serve::FrameType::InjectReply);
        if (r.verdict != static_cast<uint8_t>(reactor::Verdict::Accepted)) {
            res.failed += 1;
            res.fail_check("inject to session " + std::to_string(r.session) + ": verdict " +
                           std::to_string(r.verdict));
            return;
        }
        if (any_ticket && r.ticket <= last_ticket) {
            res.failed += 1;
            res.fail_check("ticket " + std::to_string(r.ticket) + " after " +
                           std::to_string(last_ticket));
        }
        any_ticket = true;
        last_ticket = r.ticket;
        adds[r.session] += 1;
    }
};

struct Samples {
    std::vector<double> chunk_ns, rtt_medians, blob_bytes;
    std::vector<double> open_ns, detach_ns, resume_ns;
};

/// One block: a fresh server, kSessions sessions opened, kRounds rounds,
/// then every session read back. Each Detach leaves a retired member in
/// the server's reactor, so a long-lived server's migrations slow down with
/// age; a fresh server per block keeps the work of every sample identical.
/// `ready` runs once the sessions are open (the end of set-up).
template <class Ready>
void run_block(const std::shared_ptr<const flat::CompiledProgram>& counter, Rng& rng,
               CorePicker& cores, Result& res, Samples& sm, Ready ready) {
    serve::Registry reg;
    reg.add("counter", kCounterSource);
    serve::ServerConfig cfg;
    cfg.workers = 1;
    cfg.io_threads = 0;
    serve::Server server(std::move(reg), cfg);
    server.start();
    {
        Wire w(server.port());
        Client c{w, res, 0, false, {}};
        serve::Frame hello;
        hello.type = serve::FrameType::Hello;
        hello.version = serve::kWireVersion;
        hello.text = "counter";
        w.send(hello);
        w.expect(serve::FrameType::Welcome);
        std::vector<uint64_t> sessions;
        for (size_t i = 0; i < kSessions; ++i) {
            serve::Frame f;
            f.type = serve::FrameType::Open;
            f.text = "counter";
            Clock::time_point t0 = Clock::now();
            w.send(f);
            sessions.push_back(w.expect(serve::FrameType::SessionOpened).session);
            sm.open_ns.push_back(ns_between(t0, Clock::now()));
            c.adds[sessions.back()] = 0;
        }
        ready();

        std::vector<double> rtt(kRtt);
        for (size_t round = 0; round < kRounds; ++round) {
            cores.pick();
            // Closed loop: the window stays full until the chunk is sent.
            Clock::time_point t0 = Clock::now();
            size_t sent = 0, replied = 0;
            while (sent < kWindow) c.send_inject(sessions[rng.below(kSessions)]), ++sent;
            while (replied < kChunk) {
                c.take_reply();
                ++replied;
                if (sent < kChunk) c.send_inject(sessions[rng.below(kSessions)]), ++sent;
            }
            sm.chunk_ns.push_back(ns_between(t0, Clock::now()));

            // Round trips, one inject in flight.
            for (size_t k = 0; k < kRtt; ++k) {
                Clock::time_point s0 = Clock::now();
                c.send_inject(sessions[rng.below(kSessions)]);
                c.take_reply();
                rtt[k] = ns_between(s0, Clock::now());
            }
            sm.rtt_medians.push_back(quantile(rtt, 0.5));

            // One migration: Detach, then Resume from the client-held blob.
            size_t pick = rng.below(kSessions);
            uint64_t old_id = sessions[pick];
            Clock::time_point m0 = Clock::now();
            serve::Frame d;
            d.type = serve::FrameType::Detach;
            d.session = old_id;
            w.send(d);
            serve::Frame det = w.expect(serve::FrameType::Detached);
            Clock::time_point m1 = Clock::now();
            serve::Frame rs;
            rs.type = serve::FrameType::Resume;
            rs.session = old_id;
            rs.blob = std::move(det.blob);
            rs.text = "counter";
            w.send(rs);
            uint64_t new_id = w.expect(serve::FrameType::SessionOpened).session;
            sm.detach_ns.push_back(ns_between(m0, m1));
            sm.resume_ns.push_back(ns_between(m1, Clock::now()));
            sm.blob_bytes.push_back(static_cast<double>(rs.blob.size()));
            if (new_id != old_id) {
                c.adds[new_id] += c.adds[old_id];
                c.adds.erase(old_id);
                sessions[pick] = new_id;
            }
            res.attempted += kChunk + kRtt + 1;
        }

        // Read every session back through a detach and a local restore.
        for (uint64_t s : sessions) {
            serve::Frame d;
            d.type = serve::FrameType::Detach;
            d.session = s;
            w.send(d);
            serve::Frame det = w.expect(serve::FrameType::Detached);
            host::Config hc;
            hc.collect_trace = false;
            host::Instance inst(counter, hc);
            {
                Span span("snapshot.load");
                inst.load(det.blob);
            }
            inst.inject("STOP");
            if (inst.status() != rt::Engine::Status::Terminated ||
                inst.result().i != c.adds[s]) {
                res.failed += static_cast<uint64_t>(c.adds[s]);  // its injects
                res.fail_check("session " + std::to_string(s) + " total " +
                               std::to_string(inst.result().i) + ", sent " +
                               std::to_string(c.adds[s]));
            }
        }
        serve::Frame bye;
        bye.type = serve::FrameType::Bye;
        w.send(bye);
    }
    server.request_stop();
    server.wait();
}

}  // namespace

Result run_serve(const Options& opt) {
    Result res;
    const bool traced = Tracer::get().on();
    CorePicker cores;
    cores.pick();
    Rng rng(opt.seed * 0xD1B54A32D192ED03ULL + 11);

    size_t tokens = 0;
    auto counter = compile_program(kCounterSource, &tokens);

    Samples sm;
    double setup_s = 0;
    Clock::time_point run0;
    for (size_t block = 0;; ++block) {
        run_block(counter, rng, cores, res, sm, [&] {
            if (block == 0) {
                setup_s = secs_since(opt.process_start);
                run0 = Clock::now();
            }
        });
        if (block >= 2 && secs_since(run0) >= opt.seconds) break;
    }
    if (!traced) {
        res.set("setup_s", setup_s);
        res.set("throughput_per_s", static_cast<double>(kChunk) / (best(sm.chunk_ns) / 1e9));
        res.set("latency_us", best(sm.rtt_medians) / 1e3);
        res.set("state_bytes", mean(sm.blob_bytes));
        return res;
    }
    Tracer& tr = Tracer::get();
    res.set("serve.encode_ns", tr.mean_ns("serve.encode"));
    res.set("serve.decode_ns", tr.mean_ns("serve.decode"));
    res.set("serve.open_us", mean(sm.open_ns) / 1e3);
    res.set("serve.send_us", tr.mean_ns("serve.send") / 1e3);
    res.set("serve.recv_wait_us", tr.mean_ns("serve.recv_wait") / 1e3);
    res.set("serve.detach_us", best(sm.detach_ns) / 1e3);
    res.set("serve.resume_us", best(sm.resume_ns) / 1e3);
    res.set("serve.blob_bytes", mean(sm.blob_bytes));
    res.set("snapshot.load_us", tr.mean_ns("snapshot.load") / 1e3);
    res.set("lexer.us_per_program", tr.agg("lexer.lex").total_ns / 1e3);
    res.set("lexer.tokens_per_program", static_cast<double>(tokens));
    res.set("parser.us_per_program", tr.agg("parser.parse").total_ns / 1e3);
    res.set("sema.us_per_program", tr.agg("sema.analyze").total_ns / 1e3);
    res.set("codegen.flatten_us_per_program", tr.agg("codegen.flatten").total_ns / 1e3);
    res.set("codegen.instrs_per_program", static_cast<double>(counter->flat.code.size()));
    std::fprintf(stderr, "traced: throughput_per_s %.6g latency_us %.6g\n",
                 static_cast<double>(kChunk) / (best(sm.chunk_ns) / 1e9),
                 best(sm.rtt_medians) / 1e3);
    return res;
}

}  // namespace perfbench
