/**
 * @file
 * Bench-harness plumbing implementation.
 */

#include "common.hh"

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <mutex>
#include <optional>

#include "core/replay.hh"
#include "core/runner.hh"
#include "obs/profiler.hh"
#include "obs/telemetry.hh"
#include "util/logging.hh"

namespace gpsm::bench
{

namespace
{

/** The options parseOptions() installed; runAll() reads them. */
Options gOpts;

/** Keeps concurrent note() lines whole. */
std::mutex &
noteMutex()
{
    static std::mutex m;
    return m;
}

/** The config flags a bench accepts (Options::base). */
const char *const benchConfigFlags[] = {"--divisor", "--paper",
                                        "--oo-ratio", "--eviction"};

/** One bench flag into @p opts (the core/cli.hh convention). */
bool
parseBenchFlag(int argc, char **argv, int &i, Options &opts)
{
    const std::string arg = argv[i];
    for (const char *flag : benchConfigFlags)
        if (arg == flag)
            return core::cli::parseConfigFlag(argc, argv, i, opts.base);
    if (core::cli::parseHarnessFlag(argc, argv, i, opts.harness))
        return true;
    if (arg == "--quick") {
        opts.quick = true;
    } else if (arg == "--progress") {
        opts.progress = true;
    } else if (arg == "--shard") {
        core::cli::parseShard(core::cli::flagValue(argc, argv, i),
                              opts.shard, opts.shards);
    } else if (arg == "--datasets") {
        opts.datasets = core::cli::parseList(
            core::cli::flagValue(argc, argv, i), "--datasets");
    } else if (arg == "--apps") {
        opts.apps = core::cli::parseApps(
            core::cli::flagValue(argc, argv, i), "--apps");
    } else {
        return false;
    }
    return true;
}

} // namespace

bool
skipHarnessFlag(int argc, char **argv, int &i)
try {
    Options ignored;
    return parseBenchFlag(argc, argv, i, ignored);
} catch (const FatalError &) {
    std::exit(1); // fatal() has printed the message
}

Options
parseOptions(int argc, char **argv)
try {
    Options opts;
    std::vector<std::string> given;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fprintf(
                stderr,
                "usage: %s [--divisor N] [--quick] [--paper]\n"
                "          [--datasets kron,twit,web,wiki]"
                " [--apps bfs,sssp,pr] [--jobs N]\n"
                "          [--journal PATH] [--timeout-seconds X]\n"
                "          [--metrics-dir PATH] [--sample-interval N]\n"
                "          [--progress] [--shard i/n] [--replay]"
                " [--profile]\n"
                "          [--oo-ratio X] [--eviction clock|lru]\n",
                argv[0]);
            std::exit(0);
        }
        if (!parseBenchFlag(argc, argv, i, opts))
            fatal("unknown argument '%s' (try --help)", arg.c_str());
        given.push_back(arg);
    }

    // Quick mode throttles only what the user left at the default, so
    // e.g. `--quick --apps pr` still runs PageRank.
    auto unset = [&](const char *flag) {
        return std::find(given.begin(), given.end(), flag) == given.end();
    };
    if (opts.quick) {
        if (unset("--divisor"))
            opts.base.scaleDivisor = 1024;
        if (unset("--datasets"))
            opts.datasets = {"kron", "wiki"};
        if (unset("--apps"))
            opts.apps = {core::App::Bfs};
    }
    gOpts = opts;
    core::cli::installHarness(opts.harness);
    if (opts.shards > 1) {
        note("shard %u/%u: unowned rows render as zeros; union the "
             "shards' journals for the full figure",
             opts.shard, opts.shards);
    }
    return opts;
} catch (const FatalError &) {
    std::exit(1); // fatal() has printed the message
}

std::int64_t
paperGiB(double gib, const core::SystemConfig &sys)
{
    // Table 1's node is 64GiB; everything scales linearly with the
    // configured node size.
    const double scale =
        static_cast<double>(sys.node.bytes) / (64.0 * GiB);
    return static_cast<std::int64_t>(gib * GiB * scale);
}

core::ExperimentConfig
baseConfig(const Options &opts, core::App app,
           const std::string &dataset)
{
    core::ExperimentConfig cfg = opts.base;
    cfg.app = app;
    cfg.dataset = dataset;
    return cfg;
}

void
note(const char *fmt, ...)
{
    std::lock_guard<std::mutex> lock(noteMutex());
    std::va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stderr, fmt, ap);
    va_end(ap);
    std::fputc('\n', stderr);
    std::fflush(stderr);
}

void
printHeader(const std::string &bench_name, const Options &opts)
{
    std::cout << "##### " << bench_name << " #####\n"
              << opts.base.sys.describe()
              << "datasets: Table 2 divided by " << opts.base.scaleDivisor
              << "\n\n";
}

namespace
{

void
noteResult(const core::ExperimentConfig &cfg,
           const core::RunResult &res, double wall, bool cached)
{
    note("  [%5.1fs] %-60s kernel=%s dtlb=%.1f%% huge=%s%s", wall,
         cfg.label().c_str(),
         formatSeconds(res.kernelSeconds).c_str(),
         res.dtlbMissRate * 100.0,
         formatBytes(res.hugeBackedBytes).c_str(),
         cached ? " (cached)" : "");
}

} // namespace

core::RunResult
run(const core::ExperimentConfig &cfg)
{
    const auto start = std::chrono::steady_clock::now();
    bool cached = false;
    core::RunResult res;
    try {
        res = core::runMemoized(cfg, &cached);
    } catch (const FatalError &) {
        std::exit(1); // fatal() has printed the message
    }
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    noteResult(cfg, res, wall, cached);
    return res;
}

namespace
{

/**
 * Append one batch summary line to <metrics-dir>/batches.jsonl. This
 * is the only telemetry file carrying wall-clock values (prefetch and
 * batch durations), which is why it lives apart from the per-run
 * documents: those stay byte-identical across --jobs levels and CI
 * diffs them directly, excluding only this file.
 */
void
appendBatchRecord(std::size_t configs, std::size_t owned,
                  std::size_t failures,
                  const core::PrefetchStats &prefetch,
                  double wall_seconds,
                  const obs::ProfTotals &prof_before)
{
    if (!obs::telemetryEnabled())
        return;
    const std::string path =
        obs::telemetry().metricsDir + "/batches.jsonl";
    std::FILE *f = std::fopen(path.c_str(), "ab");
    if (f == nullptr)
        return;
    obs::Json line = obs::Json::object();
    line.set("configs", static_cast<std::uint64_t>(configs));
    line.set("owned", static_cast<std::uint64_t>(owned));
    line.set("failures", static_cast<std::uint64_t>(failures));
    line.set("jobs", static_cast<std::uint64_t>(gOpts.harness.jobs));
    line.set("shard", static_cast<std::uint64_t>(gOpts.shard));
    line.set("shards", static_cast<std::uint64_t>(gOpts.shards));
    line.set("prefetch_datasets",
             static_cast<std::uint64_t>(prefetch.datasets));
    line.set("prefetch_seconds", prefetch.seconds);
    line.set("wall_seconds", wall_seconds);
    // Phase breakdown for this batch (process totals delta), present
    // only when the profiler is armed so dormant batches.jsonl lines
    // keep their pre-profiler shape.
    if (obs::profilingEnabled()) {
        const obs::ProfTotals now = obs::profTotals();
        obs::Json prof = obs::Json::object();
        for (std::size_t i = 0; i < obs::profPhaseCount; ++i) {
            prof.set(
                obs::profPhaseName(static_cast<obs::ProfPhase>(i)),
                now.phases.seconds[i] - prof_before.phases.seconds[i]);
        }
        prof.set("runs", now.runs - prof_before.runs);
        line.set("profile", std::move(prof));
    }
    const std::string text = line.dump() + "\n";
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
}

} // namespace

std::vector<core::RunResult>
runAll(const std::vector<core::ExperimentConfig> &configs)
{
    // Shard filter: run only the owned deterministic partition;
    // unowned rows keep default (zero) results so table geometry is
    // unchanged and shard outputs can be overlaid.
    std::vector<core::ExperimentConfig> owned_configs;
    std::vector<std::size_t> owned_index;
    if (gOpts.shards > 1) {
        const std::vector<bool> owned =
            core::shardSelection(configs, gOpts.shard, gOpts.shards);
        for (std::size_t i = 0; i < configs.size(); ++i) {
            if (owned[i]) {
                owned_index.push_back(i);
                owned_configs.push_back(configs[i]);
            }
        }
    }
    const std::vector<core::ExperimentConfig> &batch =
        gOpts.shards > 1 ? owned_configs : configs;

    std::optional<obs::ProgressMeter> meter;
    if (gOpts.progress)
        meter.emplace(batch.size(), "");

    // Process totals before the batch: appendBatchRecord charges this
    // batch with the delta, so consecutive batches don't double-count.
    const obs::ProfTotals prof_before = obs::profTotals();

    core::PoolOptions popts;
    popts.timeoutSeconds = gOpts.harness.timeoutSeconds;
    core::PrefetchStats prefetch;
    popts.prefetchStats = &prefetch;
    if (meter) {
        popts.errorProgress = [&meter](std::size_t,
                                       const core::ExperimentConfig &,
                                       const core::ExperimentError &) {
            meter->onError();
        };
    }
    const auto start = std::chrono::steady_clock::now();
    // A temporary pool: its workers are joined before any exit below.
    const std::vector<core::RunOutcome> outcomes =
        core::ExperimentPool(gOpts.harness.jobs)
            .runOutcomes(batch, popts,
                         [&meter](std::size_t,
                                  const core::ExperimentConfig &cfg,
                                  const core::RunResult &res,
                                  double wall, bool cached) {
                             noteResult(cfg, res, wall, cached);
                             if (meter)
                                 meter->onResult(wall, cached);
                         });
    const double batch_wall =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    if (meter)
        meter->finish();

    // Report failures only after the whole batch drained: every
    // healthy config has produced (and journaled) its result, so a
    // re-run resumes instead of recomputing.
    std::vector<core::RunResult> results(configs.size());
    std::size_t failures = 0;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const std::size_t at = gOpts.shards > 1 ? owned_index[i] : i;
        if (outcomes[i].ok()) {
            results[at] = *outcomes[i].result;
            continue;
        }
        const core::ExperimentError &err = *outcomes[i].error;
        ++failures;
        note("  FAILED [%s] %s: %s",
             core::experimentErrorKindName(err.kind),
             err.label.c_str(), err.message.c_str());
        note("         fingerprint: %s", err.fingerprint.c_str());
    }
    appendBatchRecord(configs.size(), batch.size(), failures,
                      prefetch, batch_wall, prof_before);
    if (gOpts.harness.replay) {
        const core::ReplayStats rs = core::replayStats();
        note("  replay: %llu streams recorded, %llu kernels skipped, "
             "%llu live fallbacks",
             static_cast<unsigned long long>(rs.recorded),
             static_cast<unsigned long long>(rs.replayed),
             static_cast<unsigned long long>(rs.fallbacks));
    }
    if (failures > 0) {
        std::fprintf(stderr, "fatal: %zu of %zu experiments failed\n",
                     failures, outcomes.size());
        std::exit(1);
    }
    return results;
}

} // namespace gpsm::bench
