// analyze: source -> verdict over a corpus of generated programs, the
// paper's demos, and the coprime and wide k-arm families.
//
//   cold pass — what ceuc does by default: compile, then serial
//               analysis::explore (monolithic DFA), per program;
//   warm pass — analysis::explore_modular against a CEULINT1 cache that the
//               set-up's priming pass wrote, after one arm of every family
//               program was edited (a new constant each pass), per program.
//
// The generated programs come from a fixed pool of generator seeds. The
// DFA's cost per program is heavy-tailed (a few generated programs take
// 0.2-3 s, most take under 1 ms), so a corpus drawn anew from each run seed
// would vary several-fold in work; the run seed instead orders every pass.
// The pool leaves out the seeds whose programs reach the explorer's default
// state cap: each is one 0.2-0.45 s sample (together three quarters of a
// cold pass), too few per run for a steady fastest sample, and their
// verdict is incomplete, so no check below covers them.
// The edit always lands on a family program's largest arm, so every warm
// pass re-explores the same amount.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/cache.hpp"
#include "analysis/explore.hpp"
#include "analysis/modular.hpp"
#include "bench.hpp"
#include "codegen/flatten.hpp"
#include "demos/demos.hpp"
#include "testgen/differ.hpp"
#include "testgen/generator.hpp"

namespace perfbench {

namespace {

using namespace ceu;

constexpr uint64_t kGenerated = 100;  // generator seeds 0..kGenerated-1
constexpr uint64_t kCapped[] = {2, 17, 35, 47};  // reach max_states (20 000)
constexpr int kWarmPerCold = 20;      // warm passes per cold pass
constexpr int kFamilyMin = 2, kFamilyMax = 5;
constexpr int kPeriods[] = {2, 3, 5, 7, 11, 13};

enum class Kind { Generated, Demo, Coprime, Wide };

/// k trails cycling over one event with pairwise-coprime periods: the
/// product automaton has exactly prod(periods) states. Arm `edit` writes
/// `value` instead of 1.
std::string coprime_program(int k, int edit, int64_t value) {
    std::ostringstream os;
    os << "input void A;\n";
    for (int i = 0; i < k; ++i) os << "int v" << i << ";\n";
    os << "par do\n";
    for (int i = 0; i < k; ++i) {
        if (i) os << "with\n";
        os << "  loop do\n";
        for (int j = 0; j < kPeriods[i]; ++j) os << "    await A;\n";
        os << "    v" << i << " = " << (i == edit ? value : 1) << ";\n  end\n";
    }
    os << "end\n";
    return os.str();
}

/// k independent trails over k distinct events, arm i of period 3+i: the
/// product automaton has exactly prod(3+i) states.
std::string wide_program(int k, int edit, int64_t value) {
    std::ostringstream os;
    os << "input void";
    for (int i = 0; i < k; ++i) os << (i ? "," : "") << " E" << i;
    os << ";\n";
    for (int i = 0; i < k; ++i) os << "int v" << i << ";\n";
    os << "par do\n";
    for (int i = 0; i < k; ++i) {
        if (i) os << "with\n";
        os << "  loop do\n";
        for (int j = 0; j < 3 + i; ++j) os << "    await E" << i << ";\n";
        os << "    v" << i << " = " << (i == edit ? value : 1) << ";\n  end\n";
    }
    os << "end\n";
    return os.str();
}

struct Prog {
    std::string name;
    Kind kind = Kind::Generated;
    int k = 0;     // family size
    int edit = 0;  // family: the arm the warm passes edit
    std::string source;
    testgen::GenCase gen;  // Generated only

    // cold (monolithic) verdict
    size_t states = 0;
    bool complete = true;
    std::set<std::string> conflicts;
    std::vector<double> cold_ns, warm_ns;
    size_t instrs = 0;

    // modular verdict from the priming pass
    bool mod_complete = true;
    std::set<std::string> mod_conflicts;
};

std::string conflict_key(const dfa::Conflict& c) {
    std::string a = c.loc_a.str(), b = c.loc_b.str();
    if (b < a) std::swap(a, b);
    return std::to_string(static_cast<int>(c.kind)) + "|" + c.what + "|" + a + "|" + b;
}

std::set<std::string> conflict_set(const std::vector<dfa::Conflict>& cs) {
    std::set<std::string> out;
    for (const dfa::Conflict& c : cs) out.insert(conflict_key(c));
    return out;
}

std::string source_for(const Prog& p, int64_t edit_value) {
    if (p.kind == Kind::Coprime) return coprime_program(p.k, p.edit, edit_value);
    if (p.kind == Kind::Wide) return wide_program(p.k, p.edit, edit_value);
    return p.source;
}

std::vector<Prog> make_corpus() {
    std::vector<Prog> corpus;
    for (uint64_t s = 0; s < kGenerated; ++s) {
        if (std::find(std::begin(kCapped), std::end(kCapped), s) != std::end(kCapped)) continue;
        Prog p;
        p.name = "gen" + std::to_string(s);
        p.gen = testgen::generate(s);
        p.source = p.gen.source;
        corpus.push_back(std::move(p));
    }
    const std::pair<const char*, const char*> demos[] = {
        {"quickstart", demos::kQuickstart}, {"temperature", demos::kTemperature},
        {"ring", demos::kRing},             {"multihop", demos::kMultihop},
        {"ship", demos::kShip},             {"mario_live", demos::kMarioLive},
        {"mario_replay", demos::kMarioReplay}, {"mario_backwards", demos::kMarioBackwards},
    };
    for (const auto& [name, src] : demos) {
        Prog p;
        p.name = name;
        p.kind = Kind::Demo;
        p.source = src;
        corpus.push_back(std::move(p));
    }
    for (int k = kFamilyMin; k <= kFamilyMax; ++k) {
        for (Kind kind : {Kind::Coprime, Kind::Wide}) {
            Prog p;
            p.kind = kind;
            p.k = k;
            p.edit = k - 1;  // the largest arm: the most work to re-explore
            p.name = std::string(kind == Kind::Coprime ? "coprime" : "wide") +
                     std::to_string(k);
            p.source = source_for(p, 1);
            corpus.push_back(std::move(p));
        }
    }
    return corpus;
}

/// The CEULINT1 entry explore_modular writes for group `g` of `mo`.
analysis::cache::Entry entry_for(const analysis::ModularOutcome& mo,
                                 const analysis::GroupResult& g, size_t max_states) {
    analysis::cache::Entry e;
    for (int m : g.modules) {
        const analysis::ModuleInfo& mi = mo.partition.modules[static_cast<size_t>(m)];
        e.members.push_back({mi.hash, mi.line_begin, mi.line_end, mi.anchor_line});
    }
    e.max_states = static_cast<uint32_t>(max_states);
    e.state_count = g.state_count;
    e.complete = g.complete;
    e.sub_signature = g.sub_signature;
    e.conflicts = g.conflicts;
    return e;
}

}  // namespace

Result run_analyze(const Options& opt) {
    namespace fs = std::filesystem;
    Result res;
    const bool traced = Tracer::get().on();
    CorePicker cores;
    cores.pick();
    Rng rng(opt.seed * 0x9E3779B1ULL + 5);
    std::vector<Prog> corpus = make_corpus();
    const size_t n = corpus.size();

    analysis::ModularOptions mopt;
    mopt.cache_dir = opt.tmp_dir + "/lint-cache";
    fs::create_directories(mopt.cache_dir);
    const std::string entry_dir = opt.tmp_dir + "/lint-entries";
    fs::create_directories(entry_dir);

    // Set-up: prime the cache with every program's modular verdict. The
    // core is picked per program, as in the timed passes, so one slow
    // core does not stretch the whole set-up.
    std::vector<analysis::cache::Entry> entries;
    std::vector<uint64_t> entry_keys;
    double groups = 0, composed = 0;
    for (Prog& p : corpus) {
        cores.pick();
        auto cp = compile_program(p.source);
        p.instrs = cp->flat.code.size();
        if (traced) {
            Span span("analysis.partition");
            (void)analysis::partition_program(*cp);
        }
        analysis::ModularOutcome mo;
        {
            Span span("analysis.explore_modular");
            mo = analysis::explore_modular(*cp, mopt);
        }
        p.mod_complete = mo.complete;
        p.mod_conflicts = conflict_set(mo.conflicts);
        groups += static_cast<double>(mo.groups.size());
        composed += mo.composed ? 1 : 0;
        for (const analysis::GroupResult& g : mo.groups) {
            entries.push_back(entry_for(mo, g, mopt.explore.max_states));
            entry_keys.push_back(g.key);
        }
    }
    size_t cache_bytes = 0;
    for (const auto& f : fs::directory_iterator(mopt.cache_dir)) cache_bytes += f.file_size();
    const double setup_s = secs_since(opt.process_start);

    // Timed rounds: one cold pass, then kWarmPerCold warm passes.
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i) order[i] = i;
    size_t hits = 0, misses = 0;
    int64_t edit_value = 1;
    uint64_t cold_passes = 0;
    Clock::time_point run0 = Clock::now();
    for (int round = 0;; ++round) {
        rng.shuffle(order);
        for (size_t i : order) {
            cores.pick();
            Prog& p = corpus[i];
            Clock::time_point t0 = Clock::now();
            auto cp = compile_program(p.source);
            dfa::Dfa d;
            {
                Span span("dfa.explore");
                d = analysis::explore(*cp);
            }
            p.cold_ns.push_back(ns_between(t0, Clock::now()));
            if (round == 0) {
                p.states = d.state_count();
                p.complete = d.complete();
                p.conflicts = conflict_set(d.conflicts());
            }
        }
        res.attempted += n;
        ++cold_passes;
        for (int w = 0; w < kWarmPerCold; ++w) {
            ++edit_value;
            rng.shuffle(order);
            cores.pick();  // once per pass: relints take ~0.1 ms each
            for (size_t i : order) {
                Prog& p = corpus[i];
                std::string src = source_for(p, edit_value);
                Clock::time_point t0 = Clock::now();
                auto cp = compile_program(src);
                analysis::ModularOutcome mo;
                {
                    Span span("analysis.explore_modular");
                    mo = analysis::explore_modular(*cp, mopt);
                }
                p.warm_ns.push_back(ns_between(t0, Clock::now()));
                hits += mo.cache.hits;
                misses += mo.cache.misses;
                if (p.complete && mo.complete && conflict_set(mo.conflicts) != p.conflicts) {
                    res.failed += 1;
                    res.fail_check(p.name + ": warm verdict differs from the cold one");
                }
            }
            res.attempted += n;
        }
        if (round >= 1 && secs_since(run0) >= opt.seconds) break;
    }

    // Every cache entry survives a store and a load.
    analysis::cache::DfaCache cache(entry_dir);
    for (size_t e = 0; e < entries.size(); ++e) {
        {
            Span span("analysis.cache_store");
            cache.store(entry_keys[e], entries[e]);
        }
        analysis::cache::Entry back;
        Span span("analysis.cache_load");
        if (!cache.load(entry_keys[e], entries[e], &back) ||
            back.state_count != entries[e].state_count ||
            back.conflicts.size() != entries[e].conflicts.size()) {
            res.fail_check("cache entry " + std::to_string(e) + " did not round-trip");
        }
    }

    // Checks against computations made apart from the analysis. The cold
    // verdict is deterministic, so a wrong one failed in every cold pass.
    testgen::DiffOptions dopt;
    dopt.run_cgen = false;
    dopt.check_modular = false;
    dopt.check_aot = false;
    dopt.workdir = opt.tmp_dir;
    for (const Prog& p : corpus) {
        bool wrong = false;
        auto fail = [&](const std::string& what) {
            if (!wrong) res.failed += cold_passes;
            wrong = true;
            res.fail_check(p.name + ": " + what);
        };
        if (p.kind == Kind::Coprime || p.kind == Kind::Wide) {
            size_t expect = 1;
            for (int i = 0; i < p.k; ++i) {
                expect *= static_cast<size_t>(p.kind == Kind::Coprime ? kPeriods[i] : 3 + i);
            }
            if (p.states != expect) {
                fail(std::to_string(p.states) + " states, expected " + std::to_string(expect));
            }
        }
        if (p.complete && p.mod_complete && p.conflicts != p.mod_conflicts) {
            fail("modular conflict set differs from the monolithic one");
        }
        if (p.kind == Kind::Generated && p.complete && p.conflicts.empty()) {
            testgen::DiffResult dr = testgen::run_differential(p.source, p.gen.script, dopt);
            if (dr.failure()) {
                fail(std::string(testgen::DiffResult::kind_name(dr.kind)) + " " + dr.detail);
            }
        }
    }

    double cold_total = 0, warm_total = 0;
    for (const Prog& p : corpus) {
        cold_total += best(p.cold_ns);
        warm_total += best(p.warm_ns);
    }
    const double dn = static_cast<double>(n);
    if (!traced) {
        res.set("setup_s", setup_s);
        res.set("throughput_per_s", dn / (cold_total / 1e9));
        res.set("latency_us", warm_total / dn / 1e3);
        res.set("state_bytes", static_cast<double>(cache_bytes) / dn);
        return res;
    }

    // Per-layer figures. The explorer's 2-job speedup is measured on the
    // same programs, alternating serial and 2-job runs per program, with
    // the process's own CPU mask back so the two jobs can use two cores.
    cores.release();
    double serial_ns = 0, jobs2_ns = 0;
    for (const Prog& p : corpus) {
        auto cp = compile_program(p.source);
        analysis::ExploreOptions eo;
        Clock::time_point t0 = Clock::now();
        (void)analysis::explore(*cp, eo);
        Clock::time_point t1 = Clock::now();
        eo.jobs = 2;
        (void)analysis::explore(*cp, eo);
        serial_ns += ns_between(t0, t1);
        jobs2_ns += ns_between(t1, Clock::now());
    }
    Tracer& tr = Tracer::get();
    double compiles = static_cast<double>(tr.agg("lexer.lex").count);
    double tokens_total = 0, instrs_total = 0, states_total = 0;
    for (const Prog& p : corpus) {
        size_t t = 0;
        (void)compile_program(p.source, &t);
        tokens_total += static_cast<double>(t);
        instrs_total += static_cast<double>(p.instrs);
        states_total += static_cast<double>(p.states);
    }
    res.set("lexer.us_per_program", tr.agg("lexer.lex").total_ns / compiles / 1e3);
    res.set("lexer.tokens_per_program", tokens_total / dn);
    res.set("parser.us_per_program", tr.agg("parser.parse").total_ns / compiles / 1e3);
    res.set("sema.us_per_program", tr.agg("sema.analyze").total_ns / compiles / 1e3);
    res.set("codegen.flatten_us_per_program",
            tr.agg("codegen.flatten").total_ns / compiles / 1e3);
    res.set("codegen.instrs_per_program", instrs_total / dn);
    SpanAgg ex = tr.agg("dfa.explore");
    double passes = static_cast<double>(ex.count) / dn;
    res.set("dfa.explore_ms_per_program", ex.total_ns / static_cast<double>(ex.count) / 1e6);
    res.set("dfa.states_per_program", states_total / dn);
    res.set("dfa.ns_per_state", ex.total_ns / passes / states_total);
    res.set("analysis.partition_us", tr.mean_ns("analysis.partition") / 1e3);
    res.set("analysis.groups_per_program", groups / dn);
    res.set("analysis.composed_share", composed / dn);
    res.set("analysis.cache_store_us", tr.mean_ns("analysis.cache_store") / 1e3);
    res.set("analysis.cache_load_us", tr.mean_ns("analysis.cache_load") / 1e3);
    res.set("analysis.cache_hit_ratio",
            static_cast<double>(hits) / static_cast<double>(hits + misses));
    res.set("analysis.explore_jobs2_speedup", serial_ns / jobs2_ns);
    std::fprintf(stderr, "traced: throughput_per_s %.6g latency_us %.6g\n",
                 dn / (cold_total / 1e9), warm_total / dn / 1e3);
    return res;
}

}  // namespace perfbench
