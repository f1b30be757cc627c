/**
 * @file
 * Run-vocabulary parser: every flag and every accepted spelling maps to
 * the config field a hand-built config sets (compared by fingerprint,
 * so no field can drift unseen), and every unknown spelling is fatal()
 * with the flag's name in the message.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "core/cli.hh"
#include "fault/fault_plan_io.hh"
#include "util/logging.hh"
#include "util/units.hh"

using namespace gpsm;
using namespace gpsm::core;

namespace
{

/** Owns argv storage for one parse. */
struct Argv
{
    explicit Argv(std::vector<std::string> args) : strings(std::move(args))
    {
        strings.insert(strings.begin(), "gpsm_run");
        for (std::string &s : strings)
            ptrs.push_back(s.data());
    }

    int argc() const { return static_cast<int>(ptrs.size()); }
    char **argv() { return ptrs.data(); }

    std::vector<std::string> strings;
    std::vector<char *> ptrs;
};

/** Parse @p args as gpsm_run's config flags; a flag the parser does
 *  not own fails the test. */
cli::RunSpec
parseRun(std::vector<std::string> args)
{
    Argv a(std::move(args));
    cli::RunSpec spec;
    for (int i = 1; i < a.argc(); ++i)
        EXPECT_TRUE(cli::parseRunFlag(a.argc(), a.argv(), i, spec))
            << "not a run flag: " << a.strings[i];
    return spec;
}

cli::HarnessOptions
parseHarness(std::vector<std::string> args)
{
    Argv a(std::move(args));
    cli::HarnessOptions opts;
    for (int i = 1; i < a.argc(); ++i)
        EXPECT_TRUE(cli::parseHarnessFlag(a.argc(), a.argv(), i, opts))
            << "not a harness flag: " << a.strings[i];
    return opts;
}

/** The fatal() message a parse of @p args raises ("" when none). */
std::string
runFlagError(std::vector<std::string> args)
{
    try {
        parseRun(std::move(args));
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

struct ConfigCase
{
    std::vector<std::string> args;
    std::function<void(ExperimentConfig &)> expect;
};

std::string
describe(const std::vector<std::string> &args)
{
    std::string out;
    for (const std::string &a : args)
        out += (out.empty() ? "" : " ") + a;
    return out;
}

} // namespace

TEST(Cli, EveryConfigFlagAndSpellingMatchesHandBuiltConfig)
{
    using graph::ReorderMethod;
    using vm::ThpMode;

    const fault::FaultPlan plan =
        fault::FaultPlan::correlatedBursts(2, 3, 1u << 20);
    const std::string plan_path =
        testing::TempDir() + "gpsm_cli_plan.json";
    std::ofstream(plan_path) << fault::faultPlanToJson(plan).dump();

    const std::vector<ConfigCase> cases = {
        {{}, [](auto &) {}},
        {{"--divisor", "512"}, [](auto &c) { c.scaleDivisor = 512; }},
        {{"--seed", "7"}, [](auto &c) { c.seed = 7; }},
        {{"--paper"}, [](auto &c) { c.sys = SystemConfig::haswell(); }},
        {{"--thp", "never"}, [](auto &c) { c.thpMode = ThpMode::Never; }},
        {{"--thp", "madvise"},
         [](auto &c) { c.thpMode = ThpMode::Madvise; }},
        {{"--thp", "always"},
         [](auto &c) { c.thpMode = ThpMode::Always; }},
        {{"--prop-fraction", "0.25"},
         [](auto &c) { c.madvise.propertyFraction = 0.25; }},
        {{"--madvise-vertex"}, [](auto &c) { c.madvise.vertex = true; }},
        {{"--madvise-edge"}, [](auto &c) { c.madvise.edge = true; }},
        {{"--madvise-values"}, [](auto &c) { c.madvise.values = true; }},
        {{"--order", "natural"},
         [](auto &c) { c.order = AllocOrder::Natural; }},
        {{"--order", "prop-first"},
         [](auto &c) { c.order = AllocOrder::PropertyFirst; }},
        {{"--reorder", "none"},
         [](auto &c) { c.reorder = ReorderMethod::None; }},
        {{"--reorder", "orig"},
         [](auto &c) { c.reorder = ReorderMethod::None; }},
        {{"--reorder", "dbg"},
         [](auto &c) { c.reorder = ReorderMethod::Dbg; }},
        {{"--reorder", "sort"},
         [](auto &c) { c.reorder = ReorderMethod::SortByDegree; }},
        {{"--reorder", "hubsort"},
         [](auto &c) { c.reorder = ReorderMethod::HubSort; }},
        {{"--reorder", "random"},
         [](auto &c) { c.reorder = ReorderMethod::Random; }},
        {{"--slack-mib", "8"},
         [](auto &c) {
             c.constrainMemory = true;
             c.slackBytes = 8 * 1024 * 1024;
         }},
        {{"--slack-mib", "-4"},
         [](auto &c) {
             c.constrainMemory = true;
             c.slackBytes = -4 * 1024 * 1024;
         }},
        {{"--frag", "0.5"}, [](auto &c) { c.fragLevel = 0.5; }},
        {{"--fault-plan", plan_path},
         [&plan](auto &c) { c.faultPlan = plan; }},
        {{"--oo-ratio", "2"}, [](auto &c) { c.oocRatio = 2.0; }},
        {{"--eviction", "clock"},
         [](auto &c) { c.oocEviction = mem::EvictionKind::Clock; }},
        {{"--eviction", "lru"},
         [](auto &c) { c.oocEviction = mem::EvictionKind::Lru; }},
        {{"--file-source", "tmpfs"},
         [](auto &c) { c.fileSource = FileSource::TmpfsRemote; }},
        {{"--file-source", "tmpfs-remote"},
         [](auto &c) { c.fileSource = FileSource::TmpfsRemote; }},
        {{"--file-source", "cache"},
         [](auto &c) { c.fileSource = FileSource::PageCacheLocal; }},
        {{"--file-source", "page-cache"},
         [](auto &c) { c.fileSource = FileSource::PageCacheLocal; }},
        {{"--file-source", "directio"},
         [](auto &c) { c.fileSource = FileSource::DirectIo; }},
        {{"--file-source", "direct-io"},
         [](auto &c) { c.fileSource = FileSource::DirectIo; }},
        {{"--numa-node1-mib", "64"},
         [](auto &c) { c.sys.enableSecondNode(64_MiB); }},
        {{"--numa-placement", "first-touch"},
         [](auto &c) { c.sys.numaPlacement = NumaPlacement::FirstTouch; }},
        {{"--numa-placement", "interleave"},
         [](auto &c) { c.sys.numaPlacement = NumaPlacement::Interleave; }},
        {{"--numa-placement", "preferred-local"},
         [](auto &c) {
             c.sys.numaPlacement = NumaPlacement::PreferredLocal;
         }},
        {{"--numa-placement", "remote-only"},
         [](auto &c) { c.sys.numaPlacement = NumaPlacement::RemoteOnly; }},
        {{"--numa-migrate-on-promote"},
         [](auto &c) { c.sys.numaMigrateOnPromote = true; }},
        {{"--pressure-node", "local"},
         [](auto &c) { c.pressureNode = PressureNode::Local; }},
        {{"--pressure-node", "remote"},
         [](auto &c) { c.pressureNode = PressureNode::Remote; }},
        {{"--pressure-node", "both"},
         [](auto &c) { c.pressureNode = PressureNode::Both; }},
    };

    for (const ConfigCase &tc : cases) {
        SCOPED_TRACE(describe(tc.args));
        ExperimentConfig expected;
        expected.scaleDivisor = 256; // the front ends' default
        tc.expect(expected);
        EXPECT_EQ(parseRun(tc.args).base.fingerprint(),
                  expected.fingerprint());
    }
    std::remove(plan_path.c_str());
}

TEST(Cli, AppAndDatasetListsExpandAppsOutermost)
{
    const cli::RunSpec spec = parseRun(
        {"--app", "bfs,sssp,pr,cc", "--dataset", "kron,,wiki", "--seed",
         "3"});
    const std::vector<ExperimentConfig> configs = spec.expand();
    const App apps[] = {App::Bfs, App::Sssp, App::Pr, App::Cc};
    ASSERT_EQ(configs.size(), 8u);
    for (std::size_t i = 0; i < configs.size(); ++i) {
        EXPECT_EQ(configs[i].app, apps[i / 2]);
        EXPECT_EQ(configs[i].dataset, i % 2 == 0 ? "kron" : "wiki");
        EXPECT_EQ(configs[i].seed, 3u);
    }
    // The defaults: one BFS run on kron.
    const std::vector<ExperimentConfig> one = cli::RunSpec{}.expand();
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0].fingerprint(), cli::defaultConfig().fingerprint());
}

TEST(Cli, HarnessFlagsFillHarnessOptions)
{
    const cli::HarnessOptions opts = parseHarness(
        {"--jobs", "3", "--journal", "runs.gpsmj", "--timeout-seconds",
         "1.5", "--metrics-dir", "m", "--sample-interval", "4096",
         "--replay", "--profile"});
    EXPECT_EQ(opts.jobs, 3u);
    EXPECT_EQ(opts.journal, "runs.gpsmj");
    EXPECT_EQ(opts.timeoutSeconds, 1.5);
    EXPECT_EQ(opts.telemetry.metricsDir, "m");
    EXPECT_EQ(opts.telemetry.sampleInterval, 4096u);
    EXPECT_TRUE(opts.replay);
    EXPECT_TRUE(opts.profile);

    const cli::HarnessOptions defaults = parseHarness({});
    EXPECT_EQ(defaults.jobs, 0u);
    EXPECT_TRUE(defaults.journal.empty());
    EXPECT_EQ(defaults.timeoutSeconds, 0.0);
    EXPECT_TRUE(defaults.telemetry.metricsDir.empty());
    EXPECT_FALSE(defaults.replay);
    EXPECT_FALSE(defaults.profile);
}

TEST(Cli, ParsersLeaveForeignFlagsAlone)
{
    Argv a({"--jobs", "2", "--app", "pr"});
    cli::RunSpec spec;
    cli::HarnessOptions harness;
    int i = 1;
    EXPECT_FALSE(cli::parseRunFlag(a.argc(), a.argv(), i, spec));
    EXPECT_EQ(i, 1);
    EXPECT_TRUE(cli::parseHarnessFlag(a.argc(), a.argv(), i, harness));
    EXPECT_EQ(i, 2);
    i = 3;
    EXPECT_FALSE(cli::parseHarnessFlag(a.argc(), a.argv(), i, harness));
    EXPECT_EQ(i, 3);
    EXPECT_TRUE(cli::parseRunFlag(a.argc(), a.argv(), i, spec));
    EXPECT_EQ(i, 4);
}

TEST(Cli, UnknownSpellingsAreFatalAndNameTheFlag)
{
    const std::vector<std::vector<std::string>> bad = {
        {"--app", "dijkstra"},
        {"--app", ","},
        {"--dataset", ""},
        {"--thp", "sometimes"},
        {"--order", "bogus"},
        {"--order", "prop_first"},
        {"--reorder", "degree"},
        {"--eviction", "mru"},
        {"--file-source", "nfs"},
        {"--numa-placement", "local"},
        {"--pressure-node", "neither"},
        {"--divisor", "12cows"},
        {"--divisor", "0"},
        {"--oo-ratio", "banana"},
        {"--oo-ratio", "-1"},
        {"--prop-fraction", "half"},
        {"--slack-mib", "8MiB"},
        {"--slack-mib", "9000000000000"},
        {"--numa-node1-mib", "-64"},
        {"--numa-node1-mib", "20000000000000"},
        {"--seed"},
    };
    for (const std::vector<std::string> &args : bad) {
        SCOPED_TRACE(describe(args));
        EXPECT_NE(runFlagError(args).find(args[0]), std::string::npos)
            << runFlagError(args);
    }
}

TEST(Cli, ShardSpecsAreCheckedAndNameTheFlag)
{
    unsigned shard = 0;
    unsigned shards = 0;
    cli::parseShard("2/4", shard, shards);
    EXPECT_EQ(shard, 2u);
    EXPECT_EQ(shards, 4u);
    for (const char *spec : {"0/0", "3/2", "0/2", "2", "/2", "1/", "a/b"}) {
        SCOPED_TRACE(spec);
        try {
            cli::parseShard(spec, shard, shards);
            ADD_FAILURE() << "accepted";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("--shard"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(Cli, HarnessRejectsBadValuesNamingTheFlag)
{
    const std::vector<std::vector<std::string>> bad = {
        {"--jobs", "banana"},
        {"--timeout-seconds", "fast"},
        {"--timeout-seconds", "-1"},
        {"--sample-interval", "1e6"},
        {"--journal"},
    };
    for (const std::vector<std::string> &args : bad) {
        SCOPED_TRACE(describe(args));
        try {
            parseHarness(args);
            ADD_FAILURE() << "accepted";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(args[0]),
                      std::string::npos)
                << e.what();
        }
    }
}
