/**
 * @file
 * gpsm host-performance benchmark.
 *
 *   gpsm_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  [--divisor D]
 *
 * Untraced (--trace 0): sets up three times from cold (dataset
 * generation + one warm-up pass each), then runs timed passes of the
 * workload for S seconds, with a speed probe between experiments, and
 * prints the end-to-end metrics. Traced (--trace 1): alternates
 * untraced passes with passes of the outside-in stage driver and prints
 * the per-layer metrics.
 * Either way every experiment is checked against an independent
 * reference, and the last stdout line is the JSON result.
 */

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/replay.hh"
#include "core/runner.hh"
#include "emit.hh"
#include "graph/datasets.hh"
#include "graph/parallel.hh"
#include "probe.hh"
#include "reference.hh"
#include "stage_driver.hh"
#include "stats.hh"
#include "timing.hh"
#include "util/parse.hh"
#include "workloads.hh"

using namespace perfbench;
using gpsm::core::ExperimentConfig;
using gpsm::core::RunResult;

namespace
{

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::uint64_t divisor = defaultDivisor;
};

/** Cold set-ups per run; setup_s is their median. */
constexpr unsigned setupRounds = 3;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "gpsm_perfbench: %s\n"
                 "usage: gpsm_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--divisor D]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const std::string val = argv[++i];
        try {
            if (arg == "--workload") {
                a.workload = val;
                have_workload = true;
            } else if (arg == "--seed") {
                a.seed = gpsm::parseU64(val, "--seed");
            } else if (arg == "--seconds") {
                a.seconds = gpsm::parseDouble(val, "--seconds");
            } else if (arg == "--trace") {
                if (val != "0" && val != "1")
                    usage("--trace takes 0 or 1");
                a.trace = val == "1";
            } else if (arg == "--divisor") {
                a.divisor = gpsm::parseU64(val, "--divisor");
            } else {
                usage(("unknown flag " + arg).c_str());
            }
        } catch (const std::exception &e) {
            usage(e.what());
        }
    }
    if (!have_workload)
        usage("--workload is required");
    if (a.divisor == 0 || a.seconds < 0.0)
        usage("--divisor must be positive, --seconds non-negative");
    return a;
}

/** One untraced pass: the whole grid through the batch engine. */
struct Pass
{
    Timing time; ///< summed over the pass's experiments
    std::uint64_t accesses = 0;
    std::vector<gpsm::core::RunOutcome> outcomes;
};

/**
 * Run @p w's grid in order, one experiment per batch of the engine, so
 * @p clock probes the host between experiments. A single batch of the
 * whole grid on one worker runs the same work in the same order.
 */
Pass
untracedPass(const Workload &w, NominalClock &clock)
{
    // A fresh memo and replay cache, so every pass executes (and, on
    // the replay workload, records) the same work.
    gpsm::core::clearExperimentMemo();
    gpsm::core::resetReplayCache();
    gpsm::core::ReplayOptions ropts;
    ropts.enabled = w.replay;
    gpsm::core::setReplay(ropts);

    gpsm::core::ExperimentPool pool(1);
    gpsm::core::PoolOptions popts;
    popts.prefetch = false;
    Pass p;
    for (const ExperimentConfig &cfg : w.configs) {
        const Timing t = clock.time([&] {
            p.outcomes.push_back(pool.runOutcomes({cfg}, popts).front());
        });
        p.time.wall += t.wall;
        p.time.nominal += t.nominal;
        if (p.outcomes.back().ok())
            p.accesses += p.outcomes.back().result->accesses;
    }
    return p;
}

/** One cold set-up. Trivially copyable: forkedSetup() pipes it. */
struct Setup
{
    double build = 0.0; ///< wall seconds of the dataset generation
    Timing time;        ///< generation + warm-up pass
    std::uint64_t experiments = 0;
    std::uint64_t failed = 0; ///< warm-up experiments that threw
};

/**
 * Set up as a fresh process does before its first timed pass: fill
 * runExperiment's dataset cache through prefetchDatasets, then run one
 * warm-up pass, which lands in @p warmup.
 */
Setup
coldSetup(const Workload &w, NominalClock &clock, Pass &warmup)
{
    clock.reprobe();
    const Timing build = clock.time(
        [&] { gpsm::core::prefetchDatasets(w.configs, 1); });
    warmup = untracedPass(w, clock);
    Setup s;
    s.build = build.wall;
    s.time.wall = build.wall + warmup.time.wall;
    s.time.nominal = build.nominal + warmup.time.nominal;
    s.experiments = warmup.outcomes.size();
    for (const gpsm::core::RunOutcome &o : warmup.outcomes)
        s.failed += o.ok() ? 0 : 1;
    return s;
}

/**
 * coldSetup() in a forked child, so the dataset cache it fills dies
 * with the child and the next round starts cold as well. Empty when the
 * child did not report.
 */
std::optional<Setup>
forkedSetup(const Workload &w, NominalClock &clock)
{
    int fds[2];
    if (pipe(fds) != 0)
        throw std::runtime_error("pipe: " + std::string(strerror(errno)));
    std::cout.flush();
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid < 0)
        throw std::runtime_error("fork: " + std::string(strerror(errno)));
    if (pid == 0) {
        close(fds[0]);
        int code = 1;
        try {
            Pass warmup;
            const Setup s = coldSetup(w, clock, warmup);
            if (write(fds[1], &s, sizeof(s)) ==
                static_cast<ssize_t>(sizeof(s)))
                code = 0;
        } catch (const std::exception &e) {
            std::fprintf(stderr, "set-up: %s\n", e.what());
        }
        _exit(code);
    }
    close(fds[1]);
    Setup s;
    const bool got =
        read(fds[0], &s, sizeof(s)) == static_cast<ssize_t>(sizeof(s));
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
        return std::nullopt;
    return s;
}

/** Dataset identity as runExperiment's dataset cache keys it. */
struct DatasetKey
{
    std::string name;
    bool weighted;

    bool
    operator<(const DatasetKey &o) const
    {
        return name != o.name ? name < o.name : weighted < o.weighted;
    }
};

DatasetKey
keyOf(const ExperimentConfig &cfg)
{
    return DatasetKey{cfg.dataset, cfg.app == gpsm::core::App::Sssp};
}

/** Each distinct dataset of @p w, built directly with makeDataset. */
std::map<DatasetKey, gpsm::graph::CsrGraph>
buildDatasets(const Workload &w)
{
    std::map<DatasetKey, gpsm::graph::CsrGraph> out;
    for (const ExperimentConfig &cfg : w.configs) {
        const DatasetKey k = keyOf(cfg);
        if (out.count(k) == 0) {
            out.emplace(k, gpsm::graph::makeDataset(
                               gpsm::graph::datasetByName(cfg.dataset),
                               cfg.scaleDivisor, k.weighted, cfg.seed));
        }
    }
    return out;
}

/** What every experiment of the workload must produce. */
struct Expected
{
    KernelAnswer native;
    std::optional<std::uint64_t> bfsReached;
    std::optional<std::uint64_t> inCoreChecksum;
};

std::vector<Expected>
expectedAnswers(const Workload &w,
                const std::map<DatasetKey, gpsm::graph::CsrGraph> &bases)
{
    std::vector<Expected> out;
    std::map<gpsm::core::App, std::uint64_t> in_core;
    for (const ExperimentConfig &cfg : w.configs) {
        const gpsm::graph::CsrGraph g =
            experimentGraph(bases.at(keyOf(cfg)), cfg);
        Expected e;
        e.native = nativeAnswer(g, cfg);
        if (cfg.app == gpsm::core::App::Bfs)
            e.bfsReached = plainBfsReached(g, gpsm::core::defaultRoot(g));
        if (cfg.oocRatio != 0.0) {
            if (in_core.count(cfg.app) == 0) {
                ExperimentConfig incore = cfg;
                incore.oocRatio = 0.0;
                incore.oocEviction = ExperimentConfig{}.oocEviction;
                in_core[cfg.app] =
                    gpsm::core::runExperiment(incore).checksum;
            }
            e.inCoreChecksum = in_core[cfg.app];
        }
        out.push_back(e);
    }
    return out;
}

/** Empty when outcome @p o matches @p e, else why not. */
std::string
checkOutcome(const gpsm::core::RunOutcome &o, const Expected &e)
{
    if (!o.ok())
        return "failed: " + o.error->message;
    const RunResult &r = *o.result;
    if (r.checksum != e.native.checksum)
        return "checksum differs from the NativeView run";
    if (r.kernelOutput != e.native.output)
        return "kernel output differs from the NativeView run";
    if (e.bfsReached && r.kernelOutput != *e.bfsReached)
        return "BFS reached count differs from the plain BFS";
    if (e.inCoreChecksum && r.checksum != *e.inCoreChecksum)
        return "out-of-core checksum differs from the in-core run";
    return "";
}

double
peakRssMib()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

template <typename Fn>
double
medianOf(const std::vector<LayerSample> &samples, Fn &&fn)
{
    std::vector<double> v;
    for (const LayerSample &s : samples)
        v.push_back(fn(s));
    return median(v);
}

int
run(const Args &args)
{
    gpsm::graph::setBuildJobs(1);
    const Workload w = makeWorkload(args.workload, args.seed, args.divisor);

    std::vector<Pass> passes; // every untraced pass, warm-ups included
    std::vector<std::size_t> timed_passes;
    NominalClock clock;
    std::vector<LayerSample> traced;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    // Set-up, every round from cold: all but the last round run in a
    // forked child; the last runs here and leaves the dataset cache warm
    // for the timed passes. Its warm-up pass is checked with the rest.
    std::vector<Setup> setups;
    for (unsigned r = 0; r + 1 < setupRounds; ++r) {
        const std::optional<Setup> s = forkedSetup(w, clock);
        if (!s) {
            std::fprintf(stderr, "set-up round %u failed\n", r);
            attempted += w.configs.size();
            failed += w.configs.size();
            continue;
        }
        attempted += s->experiments;
        failed += s->failed;
        setups.push_back(*s);
    }
    passes.emplace_back();
    setups.push_back(coldSetup(w, clock, passes.back()));

    // The benchmark's own reference graphs. An untraced run builds them
    // only after it has read its peak RSS, so they never count in it.
    std::map<DatasetKey, gpsm::graph::CsrGraph> bases;
    std::vector<const gpsm::graph::CsrGraph *> config_bases;
    const auto build_bases = [&] {
        bases = buildDatasets(w);
        for (const ExperimentConfig &cfg : w.configs)
            config_bases.push_back(&bases.at(keyOf(cfg)));
    };
    if (args.trace)
        build_bases();

    // Timed passes.
    const Clock::time_point loop_start = Clock::now();
    do {
        timed_passes.push_back(passes.size());
        passes.push_back(untracedPass(w, clock));
        if (args.trace) {
            attempted += w.configs.size();
            try {
                traced.push_back(tracedPass(w, config_bases));
            } catch (const std::exception &e) {
                std::fprintf(stderr, "traced pass failed: %s\n", e.what());
                failed += w.configs.size();
                break;
            }
            const LayerSample &t = traced.back();
            const Pass &u = passes.back();
            if (!t.error.empty()) {
                std::fprintf(stderr, "stage driver: %s\n", t.error.c_str());
                ++failed;
            }
            for (std::size_t i = 0; i < w.configs.size(); ++i) {
                if (!u.outcomes[i].ok())
                    continue; // counted with the untraced pass
                std::string diff = compareResults(*u.outcomes[i].result,
                                                  t.results[i]);
                if (diff.empty() && traced.size() > 1)
                    diff = compareResults(traced.front().results[i],
                                          t.results[i]);
                if (!diff.empty()) {
                    std::fprintf(stderr, "self-check: %s: %s\n",
                                 w.configs[i].label().c_str(),
                                 diff.c_str());
                    ++failed;
                }
            }
            clock.reprobe();
        }
    } while (since(loop_start) < args.seconds);
    const double peak_rss = peakRssMib();

    // Correctness of every untraced experiment, after the clock stops.
    if (bases.empty())
        build_bases();
    const std::vector<Expected> expected = expectedAnswers(w, bases);
    for (const Pass &p : passes) {
        for (std::size_t i = 0; i < p.outcomes.size(); ++i) {
            ++attempted;
            const std::string why = checkOutcome(p.outcomes[i], expected[i]);
            if (!why.empty()) {
                std::fprintf(stderr, "wrong: %s: %s\n",
                             w.configs[i].label().c_str(), why.c_str());
                ++failed;
            }
        }
    }

    std::vector<double> walls;
    std::vector<double> norm_walls;
    std::vector<double> rates;
    std::vector<double> norm_rates;
    for (std::size_t k = 0; k < timed_passes.size(); ++k) {
        const Pass &p = passes[timed_passes[k]];
        walls.push_back(p.time.wall);
        norm_walls.push_back(p.time.nominal);
        rates.push_back(static_cast<double>(p.accesses) / p.time.wall / 1e6);
        norm_rates.push_back(static_cast<double>(p.accesses) /
                             norm_walls.back() / 1e6);
    }
    std::fprintf(stderr,
                 "%s seed %llu: %zu timed passes, wall median %.4f s "
                 "(spread %.3f), normalised %.4f s (spread %.3f), speed "
                 "index median %.3f\n",
                 w.name.c_str(), static_cast<unsigned long long>(args.seed),
                 walls.size(), median(walls), relativeSpread(walls),
                 median(norm_walls), relativeSpread(norm_walls),
                 median(clock.indices()));

    std::vector<double> setup_times;
    std::vector<double> setup_norm_times;
    std::vector<double> build_times;
    for (const Setup &s : setups) {
        setup_times.push_back(s.time.wall);
        setup_norm_times.push_back(s.time.nominal);
        build_times.push_back(s.build);
    }

    ResultLine line(args.trace);
    if (!args.trace) {
        line.set("setup_s", median(setup_norm_times));
        line.set("wall_norm_s", median(norm_walls));
        line.set("maccess_per_norm_s", median(norm_rates));
        line.set("peak_rss_mib", peak_rss);
    } else if (traced.empty()) {
        // The traced pass threw; report zeros under an incorrect result.
        for (const MetricDef &d : metricCatalogue())
            if (d.traced)
                line.set(d.name, 0.0);
    } else {
        const double build = median(build_times);
        std::uint64_t dataset_edges = 0;
        for (const auto &[k, g] : bases)
            dataset_edges += g.numEdges();
        line.set("graph.build_s", build);
        line.set("graph.medges_per_s",
                 static_cast<double>(dataset_edges) / build / 1e6);
        line.set("graph.reorder_s",
                 medianOf(traced, [](auto &s) { return s.reorder; }));
        line.set("core.machine_s",
                 medianOf(traced, [](auto &s) { return s.machine; }));
        line.set("core.load_s",
                 medianOf(traced, [](auto &s) { return s.load; }));
        line.set("core.kernel_s",
                 medianOf(traced, [](auto &s) { return s.kernel; }));
        line.set("core.kernel_ns_per_access",
                 medianOf(traced, [](auto &s) {
                     return s.liveAccesses
                                ? s.kernel / s.liveAccesses * 1e9
                                : 0.0;
                 }));
        line.set("core.kernel_compute_s", medianOf(traced, [](auto &s) {
                     return s.kernel - s.liveDispatch;
                 }));

        std::uint64_t acc = 0, dtlb = 0, stlb = 0, walks = 0, compact = 0,
                      migrated = 0, fallbacks = 0, reads = 0, writebacks = 0,
                      evictions = 0, promotions = 0, minor = 0, huge = 0;
        double sim_kernel = 0.0;
        for (const RunResult &r : traced.front().results) {
            acc += r.accesses;
            dtlb += r.dtlbMisses;
            stlb += r.stlbHits;
            walks += r.walks;
            compact += r.compactionRuns;
            migrated += r.compactionPagesMigrated;
            fallbacks += r.hugeFallbacks;
            reads += r.fileReads;
            writebacks += r.fileWritebacks;
            evictions += r.fileEvictions;
            promotions += r.promotions;
            minor += r.minorFaults;
            huge += r.hugeFaults;
            sim_kernel += r.kernelSeconds;
        }
        line.set("core.sim_kernel_s", sim_kernel);
        line.set("tlb.dispatch_s",
                 medianOf(traced, [](auto &s) { return s.dispatch; }));
        line.set("tlb.ns_per_access", medianOf(traced, [acc](auto &s) {
                     return s.dispatch / static_cast<double>(acc) * 1e9;
                 }));
        line.set("tlb.cache_model_s", medianOf(traced, [](auto &s) {
                     return s.dispatch - s.dispatchNoCache;
                 }));
        line.set("tlb.accesses", static_cast<double>(acc));
        line.set("tlb.dtlb_misses", static_cast<double>(dtlb));
        line.set("tlb.stlb_hits", static_cast<double>(stlb));
        line.set("tlb.walks", static_cast<double>(walks));
        line.set("tlb.walk_share",
                 static_cast<double>(walks) / static_cast<double>(acc));
        line.set("replay.decode_s",
                 medianOf(traced, [](auto &s) { return s.decode; }));
        line.set("replay.dispatch_s",
                 medianOf(traced, [](auto &s) { return s.replayDispatch; }));
        line.set("replay.trace_mib",
                 static_cast<double>(traced.front().traceBytes) /
                     (1024.0 * 1024.0));
        line.set("replay.hit_share",
                 static_cast<double>(traced.front().replayed) /
                     static_cast<double>(traced.front().configs));
        line.set("mem.age_s", medianOf(traced, [](auto &s) { return s.age; }));
        line.set("mem.compaction_runs", static_cast<double>(compact));
        line.set("mem.pages_migrated", static_cast<double>(migrated));
        line.set("mem.huge_fallbacks", static_cast<double>(fallbacks));
        line.set("mem.file_reads", static_cast<double>(reads));
        line.set("mem.file_writebacks", static_cast<double>(writebacks));
        line.set("mem.file_evictions", static_cast<double>(evictions));
        line.set("vm.khugepaged_s",
                 medianOf(traced, [](auto &s) { return s.khugepaged; }));
        line.set("vm.promotions", static_cast<double>(promotions));
        line.set("vm.minor_faults", static_cast<double>(minor));
        line.set("vm.huge_faults", static_cast<double>(huge));
        line.set("obs.traced_overhead_pct",
                 (medianOf(traced, [](auto &s) { return s.wall; }) /
                      median(walls) -
                  1.0) *
                     100.0);
        line.set("host.speed_index", median(clock.indices()));
        line.set("host.setup_s", median(setup_times));
        line.set("host.wall_s", median(walls));
        line.set("host.maccess_per_s", median(rates));
    }
    std::cout << line.render(failed == 0, attempted, failed) << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    try {
        return run(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "gpsm_perfbench: %s\n", e.what());
        return 1;
    }
}
