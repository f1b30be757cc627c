/**
 * @file
 * Run-vocabulary parser implementation.
 */

#include "core/cli.hh"

#include <cstdint>
#include <sstream>

#include "core/replay.hh"
#include "core/runner.hh"
#include "fault/fault_plan_io.hh"
#include "obs/profiler.hh"
#include "util/parse.hh"
#include "util/units.hh"

namespace gpsm::core::cli
{

std::string
flagValue(int argc, char **argv, int &i)
{
    if (i + 1 >= argc)
        fatal("missing value after %s", argv[i]);
    return argv[++i];
}

std::vector<std::string>
parseList(const std::string &text, const char *flag)
{
    std::vector<std::string> out;
    std::istringstream in(text);
    std::string item;
    while (std::getline(in, item, ','))
        if (!item.empty())
            out.push_back(item);
    if (out.empty())
        fatal("%s: empty list '%s'", flag, text.c_str());
    return out;
}

std::vector<App>
parseApps(const std::string &text, const char *flag)
{
    std::vector<App> apps;
    for (const std::string &name : parseList(text, flag))
        apps.push_back(parseNamed(name, flag, allApps, appName));
    return apps;
}

void
parseShard(const std::string &spec, unsigned &shard, unsigned &shards)
{
    const std::size_t slash = spec.find('/');
    if (slash == std::string::npos)
        fatal("--shard wants I/N (e.g. 2/4), got '%s'", spec.c_str());
    shard = parseUnsigned(spec.substr(0, slash), "--shard index");
    shards = parseUnsigned(spec.substr(slash + 1), "--shard count");
    if (shard == 0 || shards == 0 || shard > shards)
        fatal("--shard %s out of range (1 <= I <= N)", spec.c_str());
}

namespace
{

/** @p text MiB as bytes; fatal() naming @p flag when that overflows. */
std::int64_t
mibBytes(const std::string &text, const char *flag)
{
    const std::int64_t mib = parseI64(text, flag);
    constexpr std::int64_t limit = INT64_MAX / std::int64_t(MiB);
    if (mib > limit || mib < -limit)
        fatal("%s: %s MiB out of range", flag, text.c_str());
    return mib * std::int64_t(MiB);
}

} // namespace

ExperimentConfig
defaultConfig()
{
    ExperimentConfig cfg;
    cfg.scaleDivisor = 256;
    return cfg;
}

bool
parseConfigFlag(int argc, char **argv, int &i, ExperimentConfig &cfg)
{
    const std::string arg = argv[i];
    auto value = [&] { return flagValue(argc, argv, i); };
    const char *flag = argv[i];
    if (arg == "--divisor") {
        cfg.scaleDivisor = parseU64(value(), flag);
        if (cfg.scaleDivisor == 0)
            fatal("--divisor must be positive");
    } else if (arg == "--seed") {
        cfg.seed = parseU64(value(), flag);
    } else if (arg == "--paper") {
        cfg.sys = SystemConfig::haswell();
    } else if (arg == "--thp") {
        cfg.thpMode = parseNamed(value(), flag, allThpModes,
                                 vm::thpModeName);
    } else if (arg == "--prop-fraction") {
        cfg.madvise.propertyFraction = parseDouble(value(), flag);
    } else if (arg == "--madvise-vertex") {
        cfg.madvise.vertex = true;
    } else if (arg == "--madvise-edge") {
        cfg.madvise.edge = true;
    } else if (arg == "--madvise-values") {
        cfg.madvise.values = true;
    } else if (arg == "--order") {
        cfg.order = parseNamed(value(), flag, allOrders, allocOrderName);
    } else if (arg == "--reorder") {
        cfg.reorder =
            parseNamed(value(), flag, allReorders,
                       graph::reorderMethodName,
                       {{"none", graph::ReorderMethod::None}});
    } else if (arg == "--slack-mib") {
        cfg.constrainMemory = true;
        cfg.slackBytes = mibBytes(value(), flag);
    } else if (arg == "--frag") {
        cfg.fragLevel = parseDouble(value(), flag);
    } else if (arg == "--fault-plan") {
        cfg.faultPlan = fault::loadFaultPlan(value());
    } else if (arg == "--oo-ratio") {
        cfg.oocRatio = parseDouble(value(), flag);
        if (cfg.oocRatio < 0.0)
            fatal("--oo-ratio must be non-negative");
    } else if (arg == "--eviction") {
        cfg.oocEviction = parseNamed(value(), flag, allEvictions,
                                     mem::evictionKindName);
    } else if (arg == "--file-source") {
        cfg.fileSource =
            parseNamed(value(), flag, allFileSources, fileSourceName,
                       {{"tmpfs", FileSource::TmpfsRemote},
                        {"cache", FileSource::PageCacheLocal},
                        {"directio", FileSource::DirectIo}});
    } else if (arg == "--numa-node1-mib") {
        const std::int64_t bytes = mibBytes(value(), flag);
        if (bytes < 0)
            fatal("%s must be non-negative", flag);
        cfg.sys.enableSecondNode(static_cast<std::uint64_t>(bytes));
    } else if (arg == "--numa-placement") {
        cfg.sys.numaPlacement = parseNamed(value(), flag, allPlacements,
                                           mem::numaPlacementName);
    } else if (arg == "--numa-migrate-on-promote") {
        cfg.sys.numaMigrateOnPromote = true;
    } else if (arg == "--pressure-node") {
        cfg.pressureNode = parseNamed(value(), flag, allPressureNodes,
                                      pressureNodeName);
    } else {
        return false;
    }
    return true;
}

std::vector<ExperimentConfig>
RunSpec::expand() const
{
    std::vector<ExperimentConfig> configs;
    for (const App app : apps) {
        for (const std::string &dataset : datasets) {
            ExperimentConfig cfg = base;
            cfg.app = app;
            cfg.dataset = dataset;
            configs.push_back(std::move(cfg));
        }
    }
    return configs;
}

bool
parseRunFlag(int argc, char **argv, int &i, RunSpec &spec)
{
    const std::string arg = argv[i];
    if (arg == "--app")
        spec.apps = parseApps(flagValue(argc, argv, i), "--app");
    else if (arg == "--dataset")
        spec.datasets = parseList(flagValue(argc, argv, i), "--dataset");
    else
        return parseConfigFlag(argc, argv, i, spec.base);
    return true;
}

bool
parseHarnessFlag(int argc, char **argv, int &i, HarnessOptions &opts)
{
    const std::string arg = argv[i];
    auto value = [&] { return flagValue(argc, argv, i); };
    const char *flag = argv[i];
    if (arg == "--jobs") {
        opts.jobs = parseUnsigned(value(), flag);
    } else if (arg == "--journal") {
        opts.journal = value();
    } else if (arg == "--timeout-seconds") {
        opts.timeoutSeconds = parseDouble(value(), flag);
        if (opts.timeoutSeconds < 0.0)
            fatal("--timeout-seconds must be non-negative");
    } else if (arg == "--metrics-dir") {
        opts.telemetry.metricsDir = value();
    } else if (arg == "--sample-interval") {
        opts.telemetry.sampleInterval = parseU64(value(), flag);
    } else if (arg == "--replay") {
        opts.replay = true;
    } else if (arg == "--profile") {
        opts.profile = true;
    } else {
        return false;
    }
    return true;
}

void
installHarness(const HarnessOptions &opts)
{
    ReplayOptions replay;
    replay.enabled = opts.replay;
    setReplay(replay);
    obs::setProfiling(opts.profile);
    obs::setTelemetry(opts.telemetry);
    if (opts.journal.empty())
        return;
    std::string err;
    if (!enableResultJournal(opts.journal, &err)) {
        warn("result journal disabled: %s", err.c_str());
        return;
    }
    const JournalStats js = resultJournalStats();
    if (js.loaded > 0 || js.corrupted > 0)
        inform("journal %s: %llu results resumed, %llu corrupt lines "
               "skipped",
               opts.journal.c_str(),
               static_cast<unsigned long long>(js.loaded),
               static_cast<unsigned long long>(js.corrupted));
}

} // namespace gpsm::core::cli
