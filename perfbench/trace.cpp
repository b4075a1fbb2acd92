// Span tracer and allocation meter of the benchmark (see bench.hpp).
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <cstdlib>
#include <new>
#include <string_view>

#include "bench.hpp"
#include "obs/trace_format.hpp"

namespace {

std::atomic<bool> g_alloc_armed{false};
std::atomic<uint64_t> g_alloc_bytes{0};

void* counted_alloc(std::size_t n) {
    if (g_alloc_armed.load(std::memory_order_relaxed)) {
        g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
    }
    void* p = std::malloc(n == 0 ? 1 : n);
    if (p == nullptr) throw std::bad_alloc();
    return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

void alloc_meter_arm(bool on) { g_alloc_armed.store(on, std::memory_order_relaxed); }
uint64_t alloc_meter_bytes() { return g_alloc_bytes.load(std::memory_order_relaxed); }

namespace {

/// Applies `set` to every thread of this process (Linux: one tid per
/// thread under /proc/self/task).
void pin_all_threads(const cpu_set_t& set) {
    std::error_code ec;
    for (const auto& e : std::filesystem::directory_iterator("/proc/self/task", ec)) {
        pid_t tid = static_cast<pid_t>(std::atoi(e.path().filename().c_str()));
        (void)sched_setaffinity(tid, sizeof set, &set);
    }
}

}  // namespace

CorePicker::CorePicker() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &set)) cpus_.push_back(c);
        }
    }
}

void CorePicker::release() {
    if (cpus_.empty()) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : cpus_) CPU_SET(c, &set);
    pin_all_threads(set);
}

void CorePicker::pick() {
    if (cpus_.size() < 2) return;  // nothing to choose from
    std::vector<std::pair<double, int>> speed;
    for (int c : cpus_) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(c, &one);
        if (sched_setaffinity(0, sizeof one, &one) != 0) continue;
        // ~0.1 ms of dependent integer work at full speed.
        volatile uint64_t sink = 0;
        uint64_t x = static_cast<uint64_t>(c) + 1;
        Clock::time_point t0 = Clock::now();
        for (int i = 0; i < 100'000; ++i) x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        sink = x;
        (void)sink;
        speed.emplace_back(ns_between(t0, Clock::now()), c);
    }
    if (speed.empty()) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(std::min_element(speed.begin(), speed.end())->second, &set);
    pin_all_threads(set);
}

Tracer& Tracer::get() {
    static Tracer t;
    return t;
}

void Tracer::enable(bool on) {
    on_ = on;
    // Reserved up front, so steady spans do not show in the allocation meter.
    if (on) {
        open_.reserve(64);
        kept_.reserve(kKeep);
    }
}

int Tracer::begin(const char* name) {
    int parent = open_.empty() ? -1 : static_cast<int>(open_.size()) - 1;
    open_.push_back(Rec{name, parent, Clock::now(), {}, 0});
    return static_cast<int>(open_.size()) - 1;
}

void Tracer::end(int idx) {
    Rec r = open_[static_cast<size_t>(idx)];
    open_.resize(static_cast<size_t>(idx));
    r.end = Clock::now();
    double dur = ns_between(r.start, r.end);
    if (!open_.empty()) open_.back().child_ns += dur;
    auto it = aggs_.find(std::string_view(r.name));  // no key allocation
    if (it == aggs_.end()) it = aggs_.emplace(r.name, SpanAgg{}).first;
    SpanAgg& a = it->second;
    a.count += 1;
    a.total_ns += dur;
    a.self_ns += dur - r.child_ns;
    if (kept_.size() < kKeep) kept_.push_back(r);
}

SpanAgg Tracer::agg(const std::string& name) const {
    auto it = aggs_.find(name);
    return it == aggs_.end() ? SpanAgg{} : it->second;
}

double Tracer::mean_ns(const std::string& name) const {
    SpanAgg a = agg(name);
    return a.count == 0 ? 0 : a.total_ns / static_cast<double>(a.count);
}

void Tracer::write(const std::string& dir, const std::string& stem,
                   const Result& res) const {
    // Chrome trace: one complete ("X") event per kept span, in the same
    // JSON-array framing as the obs exporters; nesting is by time on the
    // one benchmark thread, and "depth" names the parent's level.
    std::string path = dir + "/" + stem + ".trace.json";
    if (FILE* f = std::fopen(path.c_str(), "w")) {
        std::fputs(ceu::obs::kTraceHeader, f);
        bool first = true;
        for (const Rec& r : kept_) {
            if (!first) std::fputs(ceu::obs::kTraceSep, f);
            first = false;
            std::string name = r.name;
            std::string cat = name.substr(0, name.find('.'));
            std::fprintf(f,
                         "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                         "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"parent_depth\":%d}}",
                         name.c_str(), cat.c_str(),
                         ns_between(epoch_, r.start) / 1e3,
                         ns_between(r.start, r.end) / 1e3, r.parent);
        }
        std::fputs(ceu::obs::kTraceFooter, f);
        std::fclose(f);
    }

    // Per-layer summary: spans grouped by the module prefix of their name.
    std::map<std::string, SpanAgg> layers;
    for (const auto& [name, a] : aggs_) {
        SpanAgg& l = layers[name.substr(0, name.find('.'))];
        l.count += a.count;
        l.total_ns += a.total_ns;
        l.self_ns += a.self_ns;
    }
    path = dir + "/" + stem + ".layers.json";
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    auto emit = [&](const auto& m) {
        bool first = true;
        for (const auto& [name, a] : m) {
            std::fprintf(f, "%s\n    \"%s\": {\"count\": %llu, \"total_ms\": %.4f, "
                            "\"self_ms\": %.4f}",
                         first ? "" : ",", name.c_str(),
                         static_cast<unsigned long long>(a.count), a.total_ns / 1e6,
                         a.self_ns / 1e6);
            first = false;
        }
    };
    std::fputs("{\n  \"layers\": {", f);
    emit(layers);
    std::fputs("\n  },\n  \"spans\": {", f);
    emit(aggs_);
    std::fputs("\n  },\n  \"metrics\": {", f);
    bool first = true;
    for (const auto& [name, v] : res.metrics) {
        std::fprintf(f, "%s\n    \"%s\": %.9g", first ? "" : ",", name.c_str(), v);
        first = false;
    }
    std::fputs("\n  }\n}\n", f);
    std::fclose(f);
}

}  // namespace perfbench
