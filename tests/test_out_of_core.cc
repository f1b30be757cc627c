/**
 * @file
 * Out-of-core integration tests: file-backed CSR runs must complete,
 * agree bit-for-bit with in-core results, generate real storage
 * traffic, and stay deterministic.
 */

#include <gtest/gtest.h>

#include <string>

#include "core/experiment.hh"
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

ExperimentConfig
oocConfig(App app, double ratio,
          mem::EvictionKind eviction = mem::EvictionKind::Clock)
{
    ExperimentConfig cfg = smallConfig(app);
    cfg.oocRatio = ratio;
    cfg.oocEviction = eviction;
    return cfg;
}

} // namespace

TEST(OutOfCore, BfsMatchesInCoreChecksum)
{
    RunResult incore = runExperiment(smallConfig(App::Bfs));
    EXPECT_EQ(incore.fileReads, 0u);
    EXPECT_EQ(incore.fileWritebacks, 0u);
    EXPECT_EQ(incore.fileEvictions, 0u);

    RunResult ooc = runExperiment(oocConfig(App::Bfs, 2.0));
    // DRAM holds half the footprint: the CSR must page through the
    // file cache, and the answer must not change.
    EXPECT_GT(ooc.fileReads, 0u);
    EXPECT_GT(ooc.fileEvictions, 0u);
    EXPECT_EQ(ooc.checksum, incore.checksum);
    EXPECT_EQ(ooc.kernelOutput, incore.kernelOutput);
    // Storage traffic costs simulated time.
    EXPECT_GT(ooc.kernelSeconds, incore.kernelSeconds);
}

TEST(OutOfCore, PagerankMatchesInCoreChecksum)
{
    ExperimentConfig base = smallConfig(App::Pr);
    base.prMaxIters = 5;
    RunResult incore = runExperiment(base);

    ExperimentConfig ooc_cfg = base;
    ooc_cfg.oocRatio = 2.0;
    RunResult ooc = runExperiment(ooc_cfg);
    EXPECT_GT(ooc.fileReads, 0u);
    EXPECT_GT(ooc.fileEvictions, 0u);
    // PageRank writes its rank array, but that array is anonymous
    // (only CSR arrays are file-backed), so writebacks stay bounded
    // by evictions of dirty CSR pages.
    EXPECT_LE(ooc.fileWritebacks, ooc.fileEvictions);
    EXPECT_EQ(ooc.checksum, incore.checksum);
    EXPECT_EQ(ooc.kernelOutput, incore.kernelOutput);
}

TEST(OutOfCore, GiantPoolSitsBesideTheShrunkNode)
{
    // The auto-sized giant pool is pinned on top of the out-of-core
    // node instead of crowding it ("giant pool exceeds node memory").
    ExperimentConfig base = smallConfig(App::Bfs);
    base.giantProperty = true;
    const RunResult incore = runExperiment(base);

    ExperimentConfig ooc_cfg = base;
    ooc_cfg.oocRatio = 2.0;
    const RunResult ooc = runExperiment(ooc_cfg);
    EXPECT_GT(ooc.giantBackedBytes, 0u);
    EXPECT_GT(ooc.fileReads, 0u);
    EXPECT_EQ(ooc.checksum, incore.checksum);
    EXPECT_EQ(ooc.kernelOutput, incore.kernelOutput);
}

TEST(OutOfCore, DeterministicAcrossRuns)
{
    const ExperimentConfig cfg = oocConfig(App::Bfs, 2.0);
    RunResult a = runExperiment(cfg);
    RunResult b = runExperiment(cfg);
    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_EQ(a.kernelSeconds, b.kernelSeconds);
    EXPECT_EQ(a.fileReads, b.fileReads);
    EXPECT_EQ(a.fileWritebacks, b.fileWritebacks);
    EXPECT_EQ(a.fileEvictions, b.fileEvictions);
    EXPECT_EQ(a.minorFaults, b.minorFaults);
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.walks, b.walks);
}

TEST(OutOfCore, EvictionPoliciesBothCompleteAndAgreeOnResult)
{
    RunResult clock =
        runExperiment(oocConfig(App::Bfs, 2.0, mem::EvictionKind::Clock));
    RunResult lru =
        runExperiment(oocConfig(App::Bfs, 2.0, mem::EvictionKind::Lru));
    // Policy changes traffic, never answers.
    EXPECT_EQ(clock.checksum, lru.checksum);
    EXPECT_GT(clock.fileReads, 0u);
    EXPECT_GT(lru.fileReads, 0u);
}

TEST(OutOfCore, TighterRatioMeansMoreTraffic)
{
    RunResult loose = runExperiment(oocConfig(App::Bfs, 1.5));
    RunResult tight = runExperiment(oocConfig(App::Bfs, 4.0));
    EXPECT_EQ(loose.checksum, tight.checksum);
    // A quarter of the footprint in DRAM thrashes harder than two
    // thirds of it.
    EXPECT_GT(tight.fileReads, loose.fileReads);
    EXPECT_GE(tight.kernelSeconds, loose.kernelSeconds);
}

TEST(OutOfCore, FingerprintAndLabelAreDormantInCore)
{
    // In-core configs must fingerprint exactly as before the
    // out-of-core layer existed; enabling it must perturb both.
    const ExperimentConfig base = smallConfig(App::Bfs);
    EXPECT_EQ(base.fingerprint().find("|ooc"), std::string::npos);
    EXPECT_EQ(base.label().find("ooc="), std::string::npos);

    const ExperimentConfig ooc = oocConfig(App::Bfs, 2.0);
    EXPECT_NE(ooc.fingerprint().find("|ooc"), std::string::npos);
    EXPECT_NE(ooc.label().find("ooc="), std::string::npos);

    const ExperimentConfig lru =
        oocConfig(App::Bfs, 2.0, mem::EvictionKind::Lru);
    EXPECT_NE(lru.fingerprint(), ooc.fingerprint());
}
