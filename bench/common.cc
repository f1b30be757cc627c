/**
 * @file
 * Bench-harness plumbing implementation.
 */

#include "common.hh"

#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <mutex>
#include <optional>
#include <sstream>

#include "core/replay.hh"
#include "core/runner.hh"
#include "obs/profiler.hh"
#include "obs/telemetry.hh"
#include "util/logging.hh"
#include "util/parse.hh"

namespace gpsm::bench
{

namespace
{

/** Worker-thread count selected by parseOptions (0 = hardware). */
unsigned gJobs = 0;

/** Per-experiment timeout selected by parseOptions (0 = none). */
double gTimeoutSeconds = 0.0;

/** Live progress rendering selected by parseOptions. */
bool gProgress = false;

/** Shard selected by parseOptions (1/1 = whole batch). */
unsigned gShard = 1;
unsigned gShards = 1;

/** Metrics dir selected by parseOptions ("" = telemetry off). */
std::string gMetricsDir;

/** Replay switch selected by parseOptions. */
bool gReplay = false;

/** Phase-profiler switch selected by parseOptions. */
bool gProfile = false;

/** Keeps concurrent note() lines whole. */
std::mutex &
noteMutex()
{
    static std::mutex m;
    return m;
}

std::vector<std::string>
splitCsv(const std::string &arg)
{
    std::vector<std::string> out;
    std::istringstream is(arg);
    std::string tok;
    while (std::getline(is, tok, ','))
        if (!tok.empty())
            out.push_back(tok);
    return out;
}

/** Parse a 1-based "--shard i/n" spec. */
void
parseShard(const std::string &spec, unsigned &shard, unsigned &shards)
{
    const std::size_t slash = spec.find('/');
    if (slash == std::string::npos || slash == 0 ||
        slash + 1 >= spec.size()) {
        fatal("--shard wants i/n (e.g. 2/4), got '%s'", spec.c_str());
    }
    shard = parseUnsigned(spec.substr(0, slash), "--shard index");
    shards = parseUnsigned(spec.substr(slash + 1), "--shard count");
    if (shard == 0 || shards == 0 || shard > shards)
        fatal("--shard %s out of range (1 <= i <= n)", spec.c_str());
}

core::App
appByName(const std::string &name)
{
    if (name == "bfs")
        return core::App::Bfs;
    if (name == "sssp")
        return core::App::Sssp;
    if (name == "pr")
        return core::App::Pr;
    if (name == "cc")
        return core::App::Cc;
    fatal("unknown app '%s' (bfs/sssp/pr/cc)", name.c_str());
}

/**
 * Every flag parseOptions() accepts, split by whether a value follows
 * it; skipHarnessFlag() reads these. A flag added to parseOptions()
 * belongs here too (the bench.harness_flags.* ctests pass this set to
 * every binary that ignores it).
 */
const char *const harnessValueFlags[] = {
    "--divisor", "--jobs", "--journal", "--timeout-seconds",
    "--metrics-dir", "--sample-interval", "--shard", "--oo-ratio",
    "--eviction", "--datasets", "--apps",
};
const char *const harnessSwitchFlags[] = {
    "--quick", "--paper", "--progress", "--replay", "--profile",
};

} // namespace

bool
skipHarnessFlag(int argc, char **argv, int &i)
{
    const std::string arg = argv[i];
    for (const char *flag : harnessSwitchFlags)
        if (arg == flag)
            return true;
    for (const char *flag : harnessValueFlags) {
        if (arg == flag) {
            if (i + 1 >= argc)
                fatal("missing value after %s", arg.c_str());
            ++i;
            return true;
        }
    }
    return false;
}

mem::EvictionKind
evictionByName(const std::string &name)
{
    if (name == "clock")
        return mem::EvictionKind::Clock;
    if (name == "lru")
        return mem::EvictionKind::Lru;
    fatal("--eviction/GPSM_EVICTION: unknown policy '%s' (clock|lru)",
          name.c_str());
}

Options
parseOptions(int argc, char **argv)
{
    Options opts;
    bool set_divisor = false;
    bool set_datasets = false;
    bool set_apps = false;
    if (const char *env = std::getenv("GPSM_BENCH_DIVISOR")) {
        opts.divisor = parseU64(env, "GPSM_BENCH_DIVISOR");
        set_divisor = true;
    }
    if (const char *env = std::getenv("GPSM_BENCH_QUICK"))
        opts.quick = env[0] == '1';
    if (const char *env = std::getenv("GPSM_BENCH_JOBS"))
        opts.jobs = parseUnsigned(env, "GPSM_BENCH_JOBS");
    if (const char *env = std::getenv("GPSM_RESULT_JOURNAL"))
        opts.journal = env;
    if (const char *env = std::getenv("GPSM_BENCH_TIMEOUT_SECONDS"))
        opts.timeoutSeconds =
            parseDouble(env, "GPSM_BENCH_TIMEOUT_SECONDS");
    if (const char *env = std::getenv("GPSM_METRICS_DIR"))
        opts.metricsDir = env;
    if (const char *env = std::getenv("GPSM_SAMPLE_INTERVAL"))
        opts.sampleInterval = parseU64(env, "GPSM_SAMPLE_INTERVAL");
    if (const char *env = std::getenv("GPSM_BENCH_PROGRESS"))
        opts.progress = env[0] == '1';
    if (const char *env = std::getenv("GPSM_REPLAY"))
        opts.replay = env[0] == '1';
    if (const char *env = std::getenv("GPSM_PROF"))
        opts.profile = env[0] == '1';
    if (const char *env = std::getenv("GPSM_BENCH_SHARD"))
        parseShard(env, opts.shard, opts.shards);
    if (const char *env = std::getenv("GPSM_OO_RATIO"))
        opts.oocRatio = parseDouble(env, "GPSM_OO_RATIO");
    if (const char *env = std::getenv("GPSM_EVICTION"))
        opts.eviction = evictionByName(env);

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("missing value after %s", arg.c_str());
            return argv[++i];
        };
        if (arg == "--divisor") {
            opts.divisor = parseU64(next(), "--divisor");
            set_divisor = true;
        } else if (arg == "--quick") {
            opts.quick = true;
        } else if (arg == "--paper") {
            opts.paperGeometry = true;
        } else if (arg == "--jobs") {
            opts.jobs = parseUnsigned(next(), "--jobs");
        } else if (arg == "--journal") {
            opts.journal = next();
        } else if (arg == "--timeout-seconds") {
            opts.timeoutSeconds =
                parseDouble(next(), "--timeout-seconds");
        } else if (arg == "--metrics-dir") {
            opts.metricsDir = next();
        } else if (arg == "--sample-interval") {
            opts.sampleInterval =
                parseU64(next(), "--sample-interval");
        } else if (arg == "--progress") {
            opts.progress = true;
        } else if (arg == "--replay") {
            opts.replay = true;
        } else if (arg == "--profile") {
            opts.profile = true;
        } else if (arg == "--shard") {
            parseShard(next(), opts.shard, opts.shards);
        } else if (arg == "--oo-ratio") {
            opts.oocRatio = parseDouble(next(), "--oo-ratio");
        } else if (arg == "--eviction") {
            opts.eviction = evictionByName(next());
        } else if (arg == "--datasets") {
            opts.datasets = splitCsv(next());
            set_datasets = true;
        } else if (arg == "--apps") {
            opts.apps.clear();
            for (const std::string &name : splitCsv(next()))
                opts.apps.push_back(appByName(name));
            set_apps = true;
        } else if (arg == "--help" || arg == "-h") {
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
        } else {
            fatal("unknown argument '%s' (try --help)", arg.c_str());
        }
    }

    // Quick mode throttles only what the user left at the default, so
    // e.g. `--quick --apps pr` still runs PageRank.
    if (opts.quick) {
        if (!set_divisor)
            opts.divisor = std::max<std::uint64_t>(opts.divisor, 1024);
        if (!set_datasets)
            opts.datasets = {"kron", "wiki"};
        if (!set_apps)
            opts.apps = {core::App::Bfs};
    }
    if (opts.divisor == 0)
        fatal("--divisor must be positive");
    if (opts.timeoutSeconds < 0.0)
        fatal("--timeout-seconds must be non-negative");
    if (opts.oocRatio < 0.0)
        fatal("--oo-ratio must be non-negative");
    gJobs = opts.jobs;
    gTimeoutSeconds = opts.timeoutSeconds;
    gProgress = opts.progress;
    gShard = opts.shard;
    gShards = opts.shards;
    gMetricsDir = opts.metricsDir;
    gReplay = opts.replay;
    gProfile = opts.profile;

    // Replay switch (process-wide, before the first experiment).
    core::ReplayOptions replay;
    replay.enabled = opts.replay;
    core::setReplay(replay);

    // Profiler switch (process-wide, before the first experiment).
    obs::setProfiling(opts.profile);

    // Telemetry request (process-wide, before the first experiment).
    // setTelemetry() with an empty dir is the documented off switch,
    // so benches that never pass --metrics-dir install nothing.
    obs::TelemetryOptions telemetry;
    telemetry.metricsDir = opts.metricsDir;
    telemetry.sampleInterval = opts.sampleInterval;
    obs::setTelemetry(telemetry);
    if (gShards > 1) {
        note("shard %u/%u: unowned rows render as zeros; union the "
             "shards' journals for the full figure",
             gShard, gShards);
    }

    if (!opts.journal.empty()) {
        std::string err;
        if (core::enableResultJournal(opts.journal, &err)) {
            const core::JournalStats js = core::resultJournalStats();
            if (js.loaded > 0 || js.corrupted > 0) {
                note("journal %s: %llu results resumed, %llu corrupt "
                     "lines skipped",
                     opts.journal.c_str(),
                     static_cast<unsigned long long>(js.loaded),
                     static_cast<unsigned long long>(js.corrupted));
            }
        } else {
            // Unwritable journal degrades to a warning: the bench can
            // still run, it just won't be resumable.
            warn("result journal disabled: %s", err.c_str());
        }
    }
    return opts;
}

core::SystemConfig
systemConfig(const Options &opts)
{
    return opts.paperGeometry ? core::SystemConfig::haswell()
                              : core::SystemConfig::scaled();
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
    core::ExperimentConfig cfg;
    cfg.sys = systemConfig(opts);
    cfg.app = app;
    cfg.dataset = dataset;
    cfg.scaleDivisor = opts.divisor;
    cfg.oocRatio = opts.oocRatio;
    cfg.oocEviction = opts.eviction;
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
    const core::SystemConfig sys = systemConfig(opts);
    std::cout << "##### " << bench_name << " #####\n"
              << sys.describe() << "datasets: Table 2 divided by "
              << opts.divisor << "\n\n";
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
    core::RunResult res = core::runMemoized(cfg, &cached);
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
    line.set("jobs", static_cast<std::uint64_t>(gJobs));
    line.set("shard", static_cast<std::uint64_t>(gShard));
    line.set("shards", static_cast<std::uint64_t>(gShards));
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
    if (gShards > 1) {
        const std::vector<bool> owned =
            core::shardSelection(configs, gShard, gShards);
        for (std::size_t i = 0; i < configs.size(); ++i) {
            if (owned[i]) {
                owned_index.push_back(i);
                owned_configs.push_back(configs[i]);
            }
        }
    }
    const std::vector<core::ExperimentConfig> &batch =
        gShards > 1 ? owned_configs : configs;

    std::optional<obs::ProgressMeter> meter;
    if (gProgress)
        meter.emplace(batch.size(), "");

    // Process totals before the batch: appendBatchRecord charges this
    // batch with the delta, so consecutive batches don't double-count.
    const obs::ProfTotals prof_before = obs::profTotals();

    core::ExperimentPool pool(gJobs);
    core::PoolOptions popts;
    popts.timeoutSeconds = gTimeoutSeconds;
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
    const std::vector<core::RunOutcome> outcomes = pool.runOutcomes(
        batch, popts,
        [&meter](std::size_t, const core::ExperimentConfig &cfg,
                 const core::RunResult &res, double wall, bool cached) {
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
        const std::size_t at = gShards > 1 ? owned_index[i] : i;
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
    if (gReplay) {
        const core::ReplayStats rs = core::replayStats();
        note("  replay: %llu streams recorded, %llu kernels skipped, "
             "%llu live fallbacks, %llu decoded-cache hits",
             static_cast<unsigned long long>(rs.recorded),
             static_cast<unsigned long long>(rs.replayed),
             static_cast<unsigned long long>(rs.fallbacks),
             static_cast<unsigned long long>(rs.compiledHits));
    }
    if (failures > 0) {
        fatal("%zu of %zu experiments failed", failures,
              outcomes.size());
    }
    return results;
}

} // namespace gpsm::bench
