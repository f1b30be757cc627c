/**
 * @file
 * Tests for the run-report engine (core/report.hh) and the batch
 * helpers that feed it: store loading from metrics dirs and journals,
 * the regression diff (tolerances, direction, checksums, missing
 * runs), deterministic shard selection, and dataset prefetch.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/journal.hh"
#include "core/metrics.hh"
#include "core/report.hh"
#include "core/runner.hh"
#include "obs/telemetry.hh"
#include "util/logging.hh"
#include "util/units.hh"

using namespace gpsm;
using namespace gpsm::core;

namespace fs = std::filesystem;

namespace
{

ExperimentConfig
smallConfig(App app = App::Bfs, const std::string &dataset = "kron")
{
    ExperimentConfig cfg;
    cfg.app = app;
    cfg.dataset = dataset;
    cfg.scaleDivisor = 512;
    cfg.sys = SystemConfig::scaled();
    cfg.sys.node.bytes = 96_MiB;
    cfg.sys.node.hugeWatermarkBytes = 96_MiB / 26;
    return cfg;
}

std::string
freshPath(const std::string &leaf)
{
    const fs::path p = fs::temp_directory_path() / leaf;
    fs::remove_all(p);
    return p.string();
}

/** A store with one synthetic run holding the given metrics. */
ReportStore
storeWith(const std::string &run, double kernel, double checksum,
          double dtlb_rate = 0.25)
{
    ReportEntry e;
    e.run = run;
    e.label = "synthetic/" + run;
    e.metrics["kernelSeconds"] = kernel;
    e.metrics["checksum"] = checksum;
    e.metrics["dtlbMissRate"] = dtlb_rate;
    ReportStore store;
    store.source = "synthetic";
    store.entries.push_back(std::move(e));
    return store;
}

} // namespace

TEST(Report, ResultMetricsRoundTripThroughJson)
{
    const RunResult res = runExperiment(smallConfig());
    const auto metrics = resultMetricMap(res);
    EXPECT_GT(metrics.size(), 20u);
    EXPECT_EQ(metrics.at("accesses"),
              static_cast<double>(res.accesses));
    EXPECT_EQ(metrics.at("checksum"),
              static_cast<double>(res.checksum));

    // JSON detour preserves every metric value exactly.
    const auto back = metricMapFromJson(resultJson(res));
    EXPECT_EQ(back, metrics);
}

TEST(Report, LoadJournalAndMetricsDirAgree)
{
    const ExperimentConfig cfg = smallConfig(App::Pr, "wiki");

    // Source 1: a result journal.
    const std::string journal_path =
        freshPath("gpsm_test_report.gpsmj");
    RunResult res;
    {
        ResultJournal journal(journal_path);
        res = runExperiment(cfg);
        ASSERT_TRUE(journal.record(cfg.fingerprint(), res));
    }

    // Source 2: a telemetry metrics dir for the same run.
    const std::string dir = freshPath("gpsm_test_report_dir");
    {
        obs::TelemetryOptions opts;
        opts.metricsDir = dir;
        opts.sampleInterval = 0; // metrics doc only
        obs::setTelemetry(opts);
        runExperiment(cfg);
        obs::setTelemetry(obs::TelemetryOptions{});
    }

    // loadStore() auto-detects: file -> journal, directory -> metrics.
    const ReportStore from_journal = loadStore(journal_path);
    const ReportStore from_dir = loadStore(dir);
    ASSERT_EQ(from_journal.entries.size(), 1u);
    ASSERT_EQ(from_dir.entries.size(), 1u);
    EXPECT_TRUE(from_journal.errors.empty());
    EXPECT_TRUE(from_dir.errors.empty());

    const std::string id = obs::runId(cfg.fingerprint());
    EXPECT_EQ(from_journal.entries[0].run, id);
    EXPECT_EQ(from_dir.entries[0].run, id);
    EXPECT_EQ(from_journal.entries[0].metrics,
              from_dir.entries[0].metrics);

    // The two sources diff clean against each other.
    const DiffReport report =
        diffStores(from_journal, from_dir, DiffOptions{});
    EXPECT_EQ(report.comparedRuns, 1u);
    EXPECT_TRUE(report.deltas.empty());
    EXPECT_TRUE(report.clean(DiffOptions{}));

    fs::remove_all(journal_path);
    fs::remove_all(dir);
}

TEST(Report, LoadMetricsDirSkipsMalformedDocs)
{
    const std::string dir = freshPath("gpsm_test_report_bad");
    fs::create_directories(dir);
    {
        std::ofstream bad(fs::path(dir) / "run_not_json.json");
        bad << "{ definitely not json";
    }
    {
        std::ofstream wrong(fs::path(dir) / "run_wrongschema.json");
        wrong << "{\"schema\":\"other\"}";
    }
    const ReportStore store = loadMetricsDir(dir);
    EXPECT_TRUE(store.entries.empty());
    EXPECT_EQ(store.errors.size(), 2u);
    fs::remove_all(dir);
}

TEST(Report, DiffFlagsRegressionsByDirectionAndTolerance)
{
    const std::string id = "00000000000000aa";
    const ReportStore before = storeWith(id, 10.0, 42.0);

    // +3% kernel time: inside the 5% default tolerance.
    {
        const DiffReport r = diffStores(
            before, storeWith(id, 10.3, 42.0), DiffOptions{});
        EXPECT_EQ(r.regressions(), 0u);
        EXPECT_TRUE(r.clean(DiffOptions{}));
        ASSERT_EQ(r.deltas.size(), 1u); // reported as a change
        EXPECT_FALSE(r.deltas[0].regression);
    }
    // +10% kernel time: past tolerance, higher-is-worse -> regression.
    {
        const DiffReport r = diffStores(
            before, storeWith(id, 11.0, 42.0), DiffOptions{});
        EXPECT_EQ(r.regressions(), 1u);
        EXPECT_FALSE(r.clean(DiffOptions{}));
    }
    // -10% kernel time is an improvement, never a regression.
    {
        const DiffReport r = diffStores(
            before, storeWith(id, 9.0, 42.0), DiffOptions{});
        EXPECT_EQ(r.regressions(), 0u);
        EXPECT_TRUE(r.clean(DiffOptions{}));
    }
    // Per-metric tolerance override tightens the gate.
    {
        DiffOptions strict;
        strict.tolerances["kernelSeconds"] = 0.01;
        const DiffReport r =
            diffStores(before, storeWith(id, 10.3, 42.0), strict);
        EXPECT_EQ(r.regressions(), 1u);
        EXPECT_FALSE(r.clean(strict));
    }
}

TEST(Report, DiffTreatsChecksumChangeAsRegression)
{
    const std::string id = "00000000000000bb";
    const ReportStore before = storeWith(id, 10.0, 42.0);
    const DiffReport r =
        diffStores(before, storeWith(id, 10.0, 43.0), DiffOptions{});
    EXPECT_EQ(r.checksumMismatches, 1u);
    EXPECT_FALSE(r.clean(DiffOptions{}));
}

TEST(Report, DiffHandlesOneSidedRuns)
{
    const ReportStore before = storeWith("00000000000000cc", 1.0, 1.0);
    const ReportStore after = storeWith("00000000000000dd", 1.0, 1.0);
    const DiffReport r = diffStores(before, after, DiffOptions{});
    EXPECT_EQ(r.comparedRuns, 0u);
    ASSERT_EQ(r.onlyBefore.size(), 1u);
    ASSERT_EQ(r.onlyAfter.size(), 1u);
    EXPECT_TRUE(r.clean(DiffOptions{})); // tolerated by default

    DiffOptions strict;
    strict.failOnMissing = true;
    EXPECT_FALSE(r.clean(strict));
}

TEST(Report, RenderIsWellFormed)
{
    const std::string id = "00000000000000ee";
    const ReportStore before = storeWith(id, 10.0, 42.0);
    const ReportStore after = storeWith(id, 11.0, 42.0);
    const DiffReport r = diffStores(before, after, DiffOptions{});

    const std::string summary = renderSummary(before);
    EXPECT_NE(summary.find(id), std::string::npos);
    const std::string diff_text = renderDiff(r, DiffOptions{});
    EXPECT_NE(diff_text.find("kernelSeconds"), std::string::npos);
    EXPECT_NE(diff_text.find("DIFF FAILED"), std::string::npos);
}

TEST(Report, ShardSelectionPartitionsBatches)
{
    std::vector<ExperimentConfig> configs;
    for (App app : {App::Bfs, App::Pr, App::Sssp})
        for (const char *ds : {"kron", "wiki"})
            configs.push_back(smallConfig(app, ds));
    // Duplicates must land on their first occurrence's shard.
    configs.push_back(configs[0]);
    configs.push_back(configs[3]);

    for (unsigned shards : {1u, 2u, 3u, 5u}) {
        std::vector<std::size_t> owner_count(configs.size(), 0);
        for (unsigned s = 1; s <= shards; ++s) {
            const std::vector<bool> owned =
                shardSelection(configs, s, shards);
            ASSERT_EQ(owned.size(), configs.size());
            for (std::size_t i = 0; i < owned.size(); ++i)
                owner_count[i] += owned[i] ? 1 : 0;
        }
        // Union of all shards is exactly the batch, no overlap.
        for (std::size_t i = 0; i < configs.size(); ++i)
            EXPECT_EQ(owner_count[i], 1u) << "config " << i;
    }

    // Duplicate configs always follow their first occurrence.
    const std::vector<bool> owned = shardSelection(configs, 1, 3);
    EXPECT_EQ(owned[0], owned[6]);
    EXPECT_EQ(owned[3], owned[7]);

    EXPECT_THROW(shardSelection(configs, 0, 2), FatalError);
    EXPECT_THROW(shardSelection(configs, 3, 2), FatalError);
}

TEST(Report, PrefetchDatasetsWarmsWithoutChangingResults)
{
    std::vector<ExperimentConfig> configs;
    for (const char *ds : {"kron", "wiki"})
        configs.push_back(smallConfig(App::Bfs, ds));
    configs.push_back(configs[0]); // duplicate: one dataset, not two

    const std::size_t warmed = prefetchDatasets(configs, 4);
    EXPECT_LE(warmed, 2u);

    // Results after a prefetch are the ordinary deterministic results.
    const RunResult direct = runExperiment(configs[0]);
    clearExperimentMemo();
    ExperimentPool pool(2);
    const std::vector<RunOutcome> batch = pool.runOutcomes(configs);
    ASSERT_EQ(batch.size(), configs.size());
    for (const RunOutcome &o : batch)
        ASSERT_TRUE(o.ok());
    EXPECT_EQ(batch[0].result->checksum, direct.checksum);
    EXPECT_EQ(batch[0].result->accesses, direct.accesses);
    EXPECT_EQ(batch[2].result->checksum, direct.checksum);
}
