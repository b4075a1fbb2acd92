// ceu_perfbench — the repository's end-to-end benchmark. One run measures
// one workload for a fixed time and prints, as its last stdout line, one
// JSON object: {"correct", "attempted", "failed", "metrics"}, where
// "metrics" maps each metric's name to its value. Untraced runs (--trace 0)
// report the end-to-end metrics; traced runs (--trace 1) report the
// per-layer metrics and write a Chrome trace plus a per-layer summary.
//
//   ceu_perfbench --workload fleet_interp|fleet_aot|analyze|serve
//                 --seed N --seconds S --trace 0|1
//
// perfbench/run.py builds this binary, runs it and completes the result
// from BENCHMARK.json (units, per-layer metrics a workload does not reach);
// README.md describes the workloads, metrics and estimators.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.hpp"

namespace {

using namespace perfbench;

int usage() {
    std::fprintf(stderr,
                 "usage: ceu_perfbench --workload fleet_interp|fleet_aot|analyze|serve "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
}

void print_result(const Result& r) {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                r.correct ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    bool first = true;
    for (const auto& [name, v] : r.metrics) {
        std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(), v);
        first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
    Options opt;
    opt.process_start = Clock::now();
    bool have_workload = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i];
        const char* v = argv[i + 1];
        if (k == "--workload") {
            opt.workload = v;
            have_workload = true;
        } else if (k == "--seed") {
            opt.seed = std::strtoull(v, nullptr, 10);
        } else if (k == "--seconds") {
            opt.seconds = std::atof(v);
        } else if (k == "--trace") {
            opt.trace = std::atoi(v) != 0;
        } else {
            return usage();
        }
    }
    if (!have_workload || argc % 2 != 1 || opt.seconds <= 0) return usage();

    // Everything the run writes stays under .bench_out/ in the working
    // directory: traces are kept, the per-run scratch (AOT build dirs,
    // lint caches) is removed on exit. TMPDIR points there too, so library
    // code that picks its own temp directory stays inside as well.
    namespace fs = std::filesystem;
    opt.out_dir = fs::absolute(".bench_out/trace").string();
    opt.tmp_dir =
        fs::absolute(".bench_out/tmp/run-" + std::to_string(::getpid())).string();
    fs::create_directories(opt.out_dir);
    fs::create_directories(opt.tmp_dir);
    ::setenv("TMPDIR", opt.tmp_dir.c_str(), 1);

    Tracer::get().enable(opt.trace);
    int rc = 0;
    try {
        Result r;
        if (opt.workload == "fleet_interp") {
            r = run_fleet(opt, false);
        } else if (opt.workload == "fleet_aot") {
            r = run_fleet(opt, true);
        } else if (opt.workload == "analyze") {
            r = run_analyze(opt);
        } else if (opt.workload == "serve") {
            r = run_serve(opt);
        } else {
            fs::remove_all(opt.tmp_dir);
            return usage();
        }
        for (const std::string& e : r.errors) {
            std::fprintf(stderr, "check failed: %s\n", e.c_str());
        }
        if (opt.trace) {
            Tracer::get().write(opt.out_dir, opt.workload, r);
            std::fprintf(stderr, "trace: %s/%s.trace.json, %s/%s.layers.json\n",
                         opt.out_dir.c_str(), opt.workload.c_str(),
                         opt.out_dir.c_str(), opt.workload.c_str());
        }
        print_result(r);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "ceu_perfbench: %s\n", e.what());
        rc = 1;
    }
    std::error_code ec;
    fs::remove_all(opt.tmp_dir, ec);
    return rc;
}
