// Shared pieces of the end-to-end benchmark: the run's options and result,
// the estimators, and the span tracer behind the traced (--trace 1) run.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace ceu::flat {
struct CompiledProgram;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds since `t0`, as a double.
inline double secs_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double ns_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::nano>(b - a).count();
}

struct Options {
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    std::string out_dir;   // trace files (kept)
    std::string tmp_dir;   // per-run scratch (removed at exit)
    Clock::time_point process_start;
};

/// What one run prints as its last line. `metrics` holds the end-to-end
/// metrics in an untraced run and the per-layer ones in a traced run, by
/// name. Units, and the full list of names, live in BENCHMARK.json only:
/// run.py attaches the units, checks every name and gives a per-layer
/// metric of a layer the workload never calls the value 0.
struct Result {
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::map<std::string, double> metrics;
    std::vector<std::string> errors;  // first few check failures

    void set(const std::string& name, double v) { metrics[name] = v; }
    void fail_check(const std::string& what) {
        correct = false;
        if (errors.size() < 8) errors.push_back(what);
    }
};

// -- estimators ---------------------------------------------------------------
//
// The host runs in two speeds: a fast phase and one about 1.6x slower (up
// to 3x on one core) that can last seconds, and CPU time tracks wall time
// through it. A median of per-sample times moves with the share of the run
// spent in the slow phase; the fastest of many short samples of fixed work
// does not, as long as some of the run is fast (see CorePicker below).
// Every timed end-to-end figure is therefore built from fastest samples:
// best() of identical samples, best_sum() of fixed work made of parts that
// repeat. A rate is work / that time.

/// q-quantile (0..1) of `v` by linear interpolation; 0 for an empty vector.
inline double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

/// The fastest sample; 0 for an empty vector.
inline double best(const std::vector<double>& v) {
    return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

/// Fixed work split into parts that repeat (round r of every block, program
/// p of every pass): the sum over parts of each part's fastest sample. Each
/// part's minimum comes from a moment when its core was fast, so the sum
/// estimates the whole work at full speed.
inline double best_sum(const std::vector<std::vector<double>>& parts) {
    double s = 0;
    for (const std::vector<double>& v : parts) s += *std::min_element(v.begin(), v.end());
    return s;
}

inline double mean(const std::vector<double>& v) {
    if (v.empty()) return 0;
    double s = 0;
    for (double x : v) s += x;
    return s / static_cast<double>(v.size());
}

/// splitmix64: the benchmark's only source of randomness, keyed by --seed.
class Rng {
  public:
    explicit Rng(uint64_t seed) : s_(seed) {}
    uint64_t next() {
        uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        return z ^ (z >> 31);
    }
    /// Uniform in [0, n).
    uint64_t below(uint64_t n) { return next() % n; }
    template <class T>
    void shuffle(std::vector<T>& v) {
        for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
    }

  private:
    uint64_t s_;
};

// -- core choice --------------------------------------------------------------
//
// The slow phase is per core: on a virtual machine whose cores are shared
// with other guests, one core can run 2-3x slower than another for seconds
// while the guest sees no steal time. A run that stays on one core reads
// whatever that core's phase was. Before each sample the benchmark times a
// short fixed spin on every CPU it is allowed and moves its threads to the
// fastest, so samples run at full speed whenever any core offers it.

class CorePicker {
  public:
    CorePicker();
    ~CorePicker() { release(); }
    CorePicker(const CorePicker&) = delete;
    CorePicker& operator=(const CorePicker&) = delete;

    /// Times the spin on every allowed CPU and pins every thread of the
    /// process to the fastest. The serve workload's client and in-process
    /// server share that core, so a round trip measures the wire path and
    /// not the cross-core wake-up, which swings with the other guests.
    void pick();
    /// Gives every thread of the process its original mask back, so work
    /// that spreads over several cores (the 2-job explorer) can.
    void release();

  private:
    std::vector<int> cpus_;
};

// -- tracing ------------------------------------------------------------------
//
// A span is one call from the benchmark into a module's public function:
// name ("reactor.inject"), start, end and parent. Spans live in memory and
// are written out when the run ends, as a Chrome trace_event JSON array
// (the framing the obs exporters use) plus a per-layer summary of count,
// total time and self time. With tracing off a Span is a predicted branch.
// The tracer is single-threaded: only the benchmark's own thread opens
// spans.

struct SpanAgg {
    uint64_t count = 0;
    double total_ns = 0;
    double self_ns = 0;
};

class Tracer {
  public:
    static Tracer& get();

    void enable(bool on);
    [[nodiscard]] bool on() const { return on_; }

    int begin(const char* name);
    void end(int idx);

    /// Aggregate for one span name (count, total and self time).
    [[nodiscard]] SpanAgg agg(const std::string& name) const;
    /// Mean duration of `name` in ns (0 when it never ran).
    [[nodiscard]] double mean_ns(const std::string& name) const;

    /// Writes <dir>/<stem>.trace.json and <dir>/<stem>.layers.json.
    void write(const std::string& dir, const std::string& stem,
               const Result& res) const;

  private:
    struct Rec {
        const char* name;
        int parent;
        Clock::time_point start, end;
        double child_ns;
    };
    // Spans kept for the Chrome trace; aggregates cover every span.
    static constexpr size_t kKeep = 50'000;

    bool on_ = false;
    Clock::time_point epoch_ = Clock::now();
    std::vector<Rec> open_;          // stack of open spans
    std::vector<Rec> kept_;
    std::map<std::string, SpanAgg, std::less<>> aggs_;
};

class Span {
  public:
    explicit Span(const char* name)
        : idx_(Tracer::get().on() ? Tracer::get().begin(name) : -1) {}
    ~Span() {
        if (idx_ >= 0) Tracer::get().end(idx_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

  private:
    int idx_;
};

// -- global-allocator meter ---------------------------------------------------
// The benchmark replaces ::operator new; while armed it counts bytes, so the
// traced fleet run can report what steady rounds take from the allocator.
void alloc_meter_arm(bool on);
uint64_t alloc_meter_bytes();

// -- shared workload pieces ---------------------------------------------------

/// The counter program of the fleets and of the serve sessions: sums the
/// values of its ADD inputs and returns the total on STOP.
extern const char* const kCounterSource;

/// The compiler front end as flat::compile_checked runs it (lex, parse,
/// sema incl. the bounded-loop check, flatten), one span per stage.
/// Throws std::runtime_error with the diagnostics on a compile error.
std::shared_ptr<const ceu::flat::CompiledProgram> compile_program(
    const std::string& source, size_t* tokens = nullptr);

// -- workloads ----------------------------------------------------------------

Result run_fleet(const Options& opt, bool compiled);
Result run_analyze(const Options& opt);
Result run_serve(const Options& opt);

}  // namespace perfbench
