// fleet_interp / fleet_aot: one reactor::Reactor of counters, tickers and
// async cyclers, run on one worker inline on this thread, in blocks of a
// fixed number of rounds. Each block is a fresh fleet: the interpreter
// keeps every finished async context (so a long-lived fleet's rounds slow
// down with age), and a fixed count of rounds per fleet keeps the work of
// every sample identical.
#include <array>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "aot/aot.hpp"
#include "bench.hpp"
#include "cgen/cgen.hpp"
#include "host/instance.hpp"
#include "reactor/reactor.hpp"

namespace perfbench {

namespace {

using namespace ceu;

constexpr size_t kPerKind = 333;          // members of each kind
constexpr size_t kMembers = 3 * kPerKind;  // id % 3: counter, ticker, cycler
constexpr size_t kRounds = 60;            // rounds per block (per fleet)
constexpr uint64_t kSlices = 32;          // async slices per member per round
constexpr int kIter = 100;                // L: loop iterations per async
constexpr Micros kPeriod = 10 * kMs;
// The paper's rule: one async loop iteration per slice, so a cycler
// completes floor(slices granted / L) cycles.
constexpr int64_t kPredictedCycles = static_cast<int64_t>(kRounds * kSlices) / kIter;


constexpr const char* kTicker = R"(
input void STOP;
int n = 0;
par do
   loop do
      await 10ms;
      n = n + 1;
   end
with
   await STOP;
   return n;
end
)";

/// Respawns its async as soon as it completes; a cycle counts only if the
/// async returned L(L+1)/2. Returns bad * 1000000 + cycles on STOP.
std::string cycler_source() {
    std::string l = std::to_string(kIter);
    std::string sum = std::to_string(kIter * (kIter + 1) / 2);
    return "input void STOP;\nint cycles = 0;\nint bad = 0;\nint r = 0;\n"
           "par do\n   loop do\n      r = async do\n         int acc = 0;\n"
           "         int i = 0;\n         loop do\n            i = i + 1;\n"
           "            acc = acc + i;\n            if i == " + l +
           " then break; end\n         end\n         return acc;\n      end;\n"
           "      if r == " + sum + " then cycles = cycles + 1; else bad = bad + 1; end\n"
           "   end\nwith\n   await STOP;\n   return bad * 1000000 + cycles;\nend\n";
}

struct Programs {
    std::shared_ptr<const flat::CompiledProgram> cp[3];
    std::shared_ptr<const aot::FleetImage> img;

    host::Config config(size_t kind) const {
        host::Config hc;
        hc.collect_trace = false;
        if (img) hc.aot = img->program(kind);
        return hc;
    }
};

/// Per-block figures; every block does the same work.
struct Block {
    double round_ns = 0;  // sum of the block's round times
    uint64_t steps = 0;   // reactions + async slices executed
    uint64_t instructions = 0;
    double blob_bytes = 0;
    std::array<uint64_t, 4> phase_ns{};
    uint64_t steady_alloc = 0;
    double boot_ns = 0;
};

std::unique_ptr<reactor::Reactor> make_fleet(const Programs& p, uint64_t seed,
                                             double* boot_ns) {
    Span span("reactor.boot");
    Clock::time_point t0 = Clock::now();
    reactor::ReactorConfig rc;
    rc.workers = 1;
    rc.seed = seed;
    rc.async_slices_per_round = kSlices;
    auto r = std::make_unique<reactor::Reactor>(rc);
    for (size_t i = 0; i < kMembers; ++i) r->add_instance(p.cp[i % 3], p.config(i % 3));
    r->boot();
    *boot_ns = ns_between(t0, Clock::now());
    return r;
}

Block run_block(const Programs& p, std::unique_ptr<reactor::Reactor> r, Rng& rng,
                Result& res, std::vector<std::vector<double>>& round_samples) {
    Block b;
    EventId add = r->instance(0).resolve_input("ADD");
    std::vector<reactor::InstanceId> counters;
    for (size_t i = 0; i < kMembers; i += 3) counters.push_back(static_cast<reactor::InstanceId>(i));
    rng.shuffle(counters);

    obs::ProcessStats s0 = r->fleet_stats();
    uint64_t alloc0 = 0;
    for (size_t round = 0; round < kRounds; ++round) {
        if (round == 2) {  // the first two rounds grow pools and scratch
            alloc_meter_arm(Tracer::get().on());
            alloc0 = alloc_meter_bytes();
        }
        Clock::time_point t0 = Clock::now();
        for (reactor::InstanceId id : counters) {
            Span span("reactor.inject");
            if (!r->inject(id, add, rt::Value::integer(1)).accepted()) {
                res.fail_check("inject not accepted");
            }
        }
        {
            Span span("reactor.round");
            r->advance(kPeriod);
        }
        double ns = ns_between(t0, Clock::now());
        round_samples[round].push_back(ns);
        b.round_ns += ns;
    }
    alloc_meter_arm(false);
    b.steady_alloc = alloc_meter_bytes() - alloc0;
    obs::ProcessStats s1 = r->fleet_stats();
    b.instructions = s1.instructions - s0.instructions;
    for (size_t k = 0; k < 4; ++k) b.phase_ns[k] = s1.phase_ns[k] - s0.phase_ns[k];
    b.steps = s1.reactions - s0.reactions;

    // Slices executed: a cycler still holding async work ran every slice it
    // was granted; one that ran out (a dropped respawn) ran L per completed
    // cycle.
    std::vector<bool> live(kMembers, false);
    for (size_t i = 2; i < kMembers; i += 3) {
        live[i] = r->instance(static_cast<reactor::InstanceId>(i)).has_async_work();
    }

    // Checkpoint every member and restore it into a fresh instance.
    std::vector<std::unique_ptr<host::Instance>> restored(kMembers);
    for (size_t i = 0; i < kMembers; ++i) {
        restored[i] = std::make_unique<host::Instance>(p.cp[i % 3], p.config(i % 3));
    }
    for (size_t i = 0; i < kMembers; ++i) {
        std::vector<uint8_t> blob;
        {
            Span span("snapshot.save");
            blob = r->instance(static_cast<reactor::InstanceId>(i)).save();
        }
        b.blob_bytes += static_cast<double>(blob.size());
        Span span("snapshot.load");
        restored[i]->load(blob);
    }
    b.blob_bytes /= static_cast<double>(kMembers);

    // STOP both copies; every result is checked against what was sent.
    for (size_t i = 0; i < kMembers; ++i) {
        r->inject(static_cast<reactor::InstanceId>(i), "STOP");
    }
    r->run_round();
    for (size_t i = 0; i < kMembers; ++i) {
        const host::Instance& orig = r->instance(static_cast<reactor::InstanceId>(i));
        host::Instance& copy = *restored[i];
        {
            Span span("host.inject");
            copy.inject("STOP");
        }
        // A member whose result is wrong failed all its operations.
        const uint64_t ops = i % 3 != 2 ? kRounds  // one ADD or one timer period per round
                                        : static_cast<uint64_t>(kPredictedCycles);
        res.attempted += ops;
        bool member_failed = false;
        auto fail = [&](const std::string& what) {
            if (!member_failed) res.failed += ops;
            member_failed = true;
            res.fail_check("member " + std::to_string(i) + ": " + what);
        };
        if (orig.status() != rt::Engine::Status::Terminated ||
            copy.status() != rt::Engine::Status::Terminated) {
            fail("did not terminate on STOP");
            continue;
        }
        int64_t got = orig.result().i;
        if (copy.result().i != got) {
            fail("restored copy returned " + std::to_string(copy.result().i) +
                 ", original " + std::to_string(got));
        }
        if (i % 3 != 2) {
            if (got != static_cast<int64_t>(kRounds)) {
                fail("returned " + std::to_string(got) + ", expected " +
                     std::to_string(kRounds));
            }
            continue;
        }
        int64_t bad = got / 1000000;
        int64_t cycles = got % 1000000;
        if (bad != 0 || cycles > kPredictedCycles) {
            fail("cycler returned " + std::to_string(got));
        } else if (!member_failed) {
            // A predicted cycle that never completed: the async respawn was
            // dropped (the member holds no async work any more).
            res.failed += static_cast<uint64_t>(kPredictedCycles - cycles);
        }
        b.steps += live[i] ? kRounds * kSlices
                           : static_cast<uint64_t>(cycles) * static_cast<uint64_t>(kIter);
    }
    if (p.img == nullptr) {
        // The interpreter is the reference for the paper's slice rule.
        for (size_t i = 2; i < kMembers; i += 3) {
            if (r->instance(static_cast<reactor::InstanceId>(i)).result().i !=
                kPredictedCycles) {
                res.fail_check("interpreted cycler " + std::to_string(i) +
                               " broke the one-iteration-per-slice rule");
                break;
            }
        }
    }
    return b;
}

/// Lone-instance probes of the host facade, the engine and the compiled
/// crossing (traced run only).
void probe_host(const Programs& p, bool compiled, Result& res) {
    constexpr int kN = 20000;
    {
        host::Config hc = p.config(0);
        host::Instance inst(p.cp[0], hc);
        inst.boot();
        EventId add = inst.resolve_input("ADD");
        Span span("host.probe_inject");
        // Alternating batches, best of each: the two loops must see the
        // same host speed for their difference to mean anything.
        double inject_ns = 1e18, engine_ns = 1e18;
        for (int rep = 0; rep < 5; ++rep) {
            Clock::time_point t0 = Clock::now();
            for (int k = 0; k < kN; ++k) inst.inject(add, rt::Value::integer(1));
            inject_ns = std::min(inject_ns, ns_between(t0, Clock::now()) / kN);
            if (compiled) continue;
            t0 = Clock::now();
            for (int k = 0; k < kN; ++k) inst.engine().go_event(add, rt::Value::integer(1));
            engine_ns = std::min(engine_ns, ns_between(t0, Clock::now()) / kN);
        }
        if (compiled) {
            res.set("aot.crossing_ns", inject_ns);
        } else {
            res.set("host.inject_ns", inject_ns);
            res.set("host.facade_ns", inject_ns - engine_ns);
        }
    }
    {
        // Two cycles' worth of slices: the most a compiled cycler runs.
        host::Instance inst(p.cp[2], p.config(2));
        inst.boot();
        Span span("host.probe_async");
        Clock::time_point t0 = Clock::now();
        for (int k = 0; k < 2 * kIter; ++k) inst.run_async_slices(1);
        res.set("host.async_slice_ns", ns_between(t0, Clock::now()) / (2 * kIter));
    }
}

}  // namespace

Result run_fleet(const Options& opt, bool compiled) {
    Result res;
    CorePicker cores;
    cores.pick();
    Rng rng(opt.seed * 0x51ED2701ULL + 17);
    Programs p;
    size_t tokens = 0;
    for (size_t k = 0; k < 3; ++k) {
        size_t t = 0;
        p.cp[k] = compile_program(k == 0 ? kCounterSource : k == 1 ? kTicker : cycler_source(), &t);
        tokens += t;
    }
    double emit_ms = 0;
    double build_ms = 0;
    if (compiled) {
        if (Tracer::get().on()) {
            // The emitter alone, as FleetImage::build runs it per program.
            Span span("cgen.emit_c");
            Clock::time_point t0 = Clock::now();
            for (size_t k = 0; k < 3; ++k) {
                cgen::CgenOptions co;
                co.with_main = false;
                co.reentrant = true;
                co.aot_symbol = "ceu_aot_prog_" + std::to_string(k);
                (void)cgen::emit_c(*p.cp[k], co);
            }
            emit_ms = ns_between(t0, Clock::now()) / 1e6;
        }
        aot::BuildOptions bo;
        bo.work_dir = opt.tmp_dir;
        std::string err;
        std::vector<std::shared_ptr<const flat::CompiledProgram>> v(p.cp, p.cp + 3);
        Span span("aot.build");
        Clock::time_point t0 = Clock::now();
        p.img = aot::FleetImage::build(v, bo, &err);
        build_ms = ns_between(t0, Clock::now()) / 1e6;
        if (!p.img) throw std::runtime_error(err);
    }

    // round_samples[r]: round r's time in every block. Rounds of one index
    // do the same work in every block (the fleet is fresh each time).
    std::vector<std::vector<double>> round_samples(kRounds);
    std::vector<Block> blocks;
    double setup_s = 0;
    Clock::time_point run0;
    for (;;) {
        cores.pick();
        double boot_ns = 0;
        auto fleet = make_fleet(p, rng.next(), &boot_ns);
        if (blocks.empty()) {
            setup_s = secs_since(opt.process_start);
            run0 = Clock::now();
            if (Tracer::get().on()) probe_host(p, compiled, res);
        }
        Block b = run_block(p, std::move(fleet), rng, res, round_samples);
        b.boot_ns = boot_ns;
        blocks.push_back(b);
        if (blocks.size() >= 3 && secs_since(run0) >= opt.seconds) break;
    }

    const Block& b0 = blocks.front();
    const double block_ns = best_sum(round_samples);
    double nblocks = static_cast<double>(blocks.size());
    if (!Tracer::get().on()) {
        res.set("setup_s", setup_s);
        res.set("throughput_per_s", static_cast<double>(b0.steps) / (block_ns / 1e9));
        res.set("latency_us", block_ns / kRounds / 1e3);
        res.set("state_bytes", b0.blob_bytes);
        return res;
    }

    double rounds = nblocks * kRounds;
    double round_ns = 0, instructions = 0, steady_alloc = 0, boot_ns = 0;
    std::array<double, 4> phase{};
    for (const Block& b : blocks) {
        round_ns += b.round_ns;
        instructions += static_cast<double>(b.instructions);
        steady_alloc += static_cast<double>(b.steady_alloc);
        boot_ns += b.boot_ns;
        for (size_t k = 0; k < 4; ++k) phase[k] += static_cast<double>(b.phase_ns[k]);
    }
    res.set("lexer.tokens_per_program", static_cast<double>(tokens) / 3);
    res.set("lexer.us_per_program", Tracer::get().agg("lexer.lex").total_ns / 3e3);
    res.set("parser.us_per_program", Tracer::get().agg("parser.parse").total_ns / 3e3);
    res.set("sema.us_per_program", Tracer::get().agg("sema.analyze").total_ns / 3e3);
    res.set("codegen.flatten_us_per_program",
            Tracer::get().agg("codegen.flatten").total_ns / 3e3);
    size_t instrs = 0;
    for (const auto& cp : p.cp) instrs += cp->flat.code.size();
    res.set("codegen.instrs_per_program", static_cast<double>(instrs) / 3);
    if (instructions > 0) {
        res.set("runtime.ns_per_instruction", round_ns / instructions);
    }
    res.set("reactor.inject_ns", Tracer::get().mean_ns("reactor.inject"));
    const char* phases[4] = {"restarts", "events", "timers", "asyncs"};
    for (size_t k = 0; k < 4; ++k) {
        res.set(std::string("reactor.phase_ms.") + phases[k], phase[k] / rounds / 1e6);
    }
    res.set("reactor.steady_alloc_bytes", steady_alloc / (nblocks * (kRounds - 2)));
    res.set("reactor.boot_ms", boot_ns / nblocks / 1e6);
    res.set("snapshot.save_us", Tracer::get().mean_ns("snapshot.save") / 1e3);
    res.set("snapshot.load_us", Tracer::get().mean_ns("snapshot.load") / 1e3);
    if (compiled) {
        res.set("cgen.emit_ms", emit_ms);
        res.set("aot.build_ms", build_ms);
    }
    std::fprintf(stderr,
                 "traced: throughput_per_s %.6g (untraced runs give the end-to-end "
                 "figure; the gap is the tracing overhead)\n",
                 static_cast<double>(b0.steps) / (block_ns / 1e9));
    return res;
}

}  // namespace perfbench
