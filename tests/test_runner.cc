/**
 * @file
 * Tests for the parallel experiment engine (core/runner.hh): the pool
 * must reproduce serial execution bit for bit, the memo cache must
 * return identical results without re-executing, and the fingerprint
 * must distinguish configs that label() conflates.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/experiment.hh"
#include "core/runner.hh"
#include "util/units.hh"

using namespace gpsm;
using namespace gpsm::core;

namespace
{

/** Small machine + dataset so each run takes ~100ms. */
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

/** Every field of RunResult, compared exactly (doubles included:
 * parallel execution must be bit-identical, not merely close). */
void
expectIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.initSeconds, b.initSeconds);
    EXPECT_EQ(a.kernelSeconds, b.kernelSeconds);
    EXPECT_EQ(a.preprocessSeconds, b.preprocessSeconds);
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.dtlbMisses, b.dtlbMisses);
    EXPECT_EQ(a.stlbHits, b.stlbHits);
    EXPECT_EQ(a.walks, b.walks);
    EXPECT_EQ(a.dtlbMissRate, b.dtlbMissRate);
    EXPECT_EQ(a.stlbMissRate, b.stlbMissRate);
    EXPECT_EQ(a.translationCycleShare, b.translationCycleShare);
    EXPECT_EQ(a.hugeFaults, b.hugeFaults);
    EXPECT_EQ(a.minorFaults, b.minorFaults);
    EXPECT_EQ(a.majorFaults, b.majorFaults);
    EXPECT_EQ(a.swapOuts, b.swapOuts);
    EXPECT_EQ(a.compactionRuns, b.compactionRuns);
    EXPECT_EQ(a.compactionPagesMigrated, b.compactionPagesMigrated);
    EXPECT_EQ(a.promotions, b.promotions);
    EXPECT_EQ(a.footprintBytes, b.footprintBytes);
    EXPECT_EQ(a.hugeBackedBytes, b.hugeBackedBytes);
    EXPECT_EQ(a.giantBackedBytes, b.giantBackedBytes);
    EXPECT_EQ(a.hugeFractionOfFootprint, b.hugeFractionOfFootprint);
    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_EQ(a.kernelOutput, b.kernelOutput);
}

} // namespace

TEST(Runner, ParallelMatchesSerialBitIdentical)
{
    // 2 apps x 2 datasets, mixed policies: the pool at jobs=4 must
    // return exactly what a serial runExperiment loop returns, in
    // submission order.
    std::vector<ExperimentConfig> configs;
    for (App app : {App::Bfs, App::Pr}) {
        for (const char *ds : {"kron", "wiki"}) {
            ExperimentConfig cfg = smallConfig(app, ds);
            cfg.thpMode = app == App::Bfs ? vm::ThpMode::Never
                                          : vm::ThpMode::Always;
            configs.push_back(cfg);
        }
    }

    std::vector<RunResult> serial;
    for (const ExperimentConfig &cfg : configs)
        serial.push_back(runExperiment(cfg));

    clearExperimentMemo(); // pool results must come from execution
    ExperimentPool pool(4);
    EXPECT_GE(pool.jobs(), 1u);
    EXPECT_LE(pool.jobs(), 4u);
    const std::vector<RunOutcome> parallel = pool.runOutcomes(configs);

    ASSERT_EQ(parallel.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE(configs[i].label());
        ASSERT_TRUE(parallel[i].ok());
        expectIdentical(serial[i], *parallel[i].result);
    }
}

TEST(Runner, MemoCacheSkipsReExecution)
{
    clearExperimentMemo();
    const ExperimentConfig cfg = smallConfig(App::Bfs, "kron");

    bool cached = true;
    const RunResult first = runMemoized(cfg, &cached);
    EXPECT_FALSE(cached);
    MemoStats stats = experimentMemoStats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.entries, 1u);

    const RunResult second = runMemoized(cfg, &cached);
    EXPECT_TRUE(cached);
    stats = experimentMemoStats();
    EXPECT_EQ(stats.misses, 1u); // no re-execution
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.entries, 1u);
    expectIdentical(first, second);

    // The pool dedupes duplicate configs within one batch too: four
    // copies cost at most one additional execution (zero here, since
    // the memo already holds the result).
    ExperimentPool pool(2);
    const std::vector<RunOutcome> batch =
        pool.runOutcomes({cfg, cfg, cfg, cfg});
    stats = experimentMemoStats();
    EXPECT_EQ(stats.misses, 1u);
    for (const RunOutcome &o : batch) {
        ASSERT_TRUE(o.ok());
        expectIdentical(first, *o.result);
    }
}

TEST(Runner, FingerprintDistinguishesLabelOmittedFields)
{
    // label() is a human-readable summary that omits tuning knobs;
    // fingerprint() must not. A config differing only in
    // khugepagedMinPresent has the same label but a distinct
    // fingerprint — using label() as the memo key would alias them.
    ExperimentConfig a = smallConfig();
    ExperimentConfig b = a;
    b.khugepagedMinPresent = 58;
    EXPECT_EQ(a.label(), b.label());
    EXPECT_NE(a.fingerprint(), b.fingerprint());

    // Same for the system configuration and kernel parameters.
    ExperimentConfig c = a;
    c.sys.stlbEntries *= 2;
    EXPECT_EQ(a.label(), c.label());
    EXPECT_NE(a.fingerprint(), c.fingerprint());

    ExperimentConfig d = a;
    d.seed += 1;
    EXPECT_EQ(a.label(), d.label());
    EXPECT_NE(a.fingerprint(), d.fingerprint());

    // And identical configs agree.
    EXPECT_EQ(a.fingerprint(), ExperimentConfig(a).fingerprint());
}

TEST(Runner, MemoCapEvictsLeastRecentlyUsed)
{
    // A byte cap bounds the memo: once full, the least-recently-used
    // entry is evicted (never the one just inserted), so a re-request
    // of an evicted config is a miss that re-executes.
    clearExperimentMemo();
    const MemoStats base = experimentMemoStats();
    setExperimentMemoCapBytes(1); // room for exactly one entry

    const ExperimentConfig bfs = smallConfig(App::Bfs, "kron");
    const ExperimentConfig pr = smallConfig(App::Pr, "kron");

    bool cached = true;
    const RunResult first = runMemoized(bfs, &cached);
    EXPECT_FALSE(cached);
    MemoStats stats = experimentMemoStats();
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.capBytes, 1u);

    // Inserting a second entry evicts the first (LRU).
    runMemoized(pr, &cached);
    EXPECT_FALSE(cached);
    stats = experimentMemoStats();
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_GE(stats.evictions, base.evictions + 1);

    // The evicted config misses and re-executes — bit-identically.
    const RunResult again = runMemoized(bfs, &cached);
    EXPECT_FALSE(cached);
    expectIdentical(first, again);

    // Unbounded again: both fit, the second request hits.
    setExperimentMemoCapBytes(0);
    clearExperimentMemo();
    runMemoized(bfs, &cached);
    EXPECT_FALSE(cached);
    runMemoized(bfs, &cached);
    EXPECT_TRUE(cached);
    setExperimentMemoCapBytes(256ull << 20); // restore the default
}

TEST(Runner, InterruptFlagShortCircuitsBatch)
{
    // A raised interrupt switch cancels the batch: nothing executes,
    // every config still gets an outcome, and the error vocabulary
    // distinguishes Interrupted from Timeout/Exception.
    clearExperimentMemo();
    std::atomic<bool> stop{true};
    PoolOptions opts;
    opts.interrupt = &stop;

    const std::vector<ExperimentConfig> configs = {
        smallConfig(App::Bfs, "kron"), smallConfig(App::Pr, "kron"),
        smallConfig(App::Cc, "kron")};
    ExperimentPool pool(2);
    const MemoStats before = experimentMemoStats();
    const std::vector<RunOutcome> outcomes =
        pool.runOutcomes(configs, opts);

    ASSERT_EQ(outcomes.size(), configs.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        SCOPED_TRACE(configs[i].label());
        ASSERT_FALSE(outcomes[i].ok());
        EXPECT_EQ(outcomes[i].error->kind,
                  ExperimentError::Kind::Interrupted);
        EXPECT_EQ(outcomes[i].error->fingerprint,
                  configs[i].fingerprint());
    }
    // Nothing was executed on behalf of the interrupted batch.
    EXPECT_EQ(experimentMemoStats().misses, before.misses);

    // An already-memoized config is still served under interrupt
    // (finished work is never discarded).
    stop.store(false);
    bool cached = true;
    const RunResult done = runMemoized(configs[0], &cached);
    EXPECT_FALSE(cached);
    stop.store(true);
    const std::vector<RunOutcome> resumed =
        pool.runOutcomes(configs, opts);
    ASSERT_TRUE(resumed[0].ok());
    expectIdentical(done, *resumed[0].result);
    ASSERT_FALSE(resumed[1].ok());
    EXPECT_EQ(resumed[1].error->kind,
              ExperimentError::Kind::Interrupted);
}
