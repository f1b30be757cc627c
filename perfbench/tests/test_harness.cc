/**
 * @file
 * Unit tests of the benchmark's own code: order statistics, the probe's
 * index arithmetic, the metric catalogue against BENCHMARK.json, the
 * reference BFS, and the stage driver against runExperiment.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "core/experiment.hh"
#include "emit.hh"
#include "graph/datasets.hh"
#include "obs/json.hh"
#include "probe.hh"
#include "reference.hh"
#include "stage_driver.hh"
#include "stats.hh"
#include "workloads.hh"

using namespace perfbench;

TEST(Stats, MedianOddAndEven)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
    EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(Stats, QuartilesMatchPythonExclusiveMethod)
{
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    const auto q = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
    EXPECT_DOUBLE_EQ(q[0], 2.75);
    EXPECT_DOUBLE_EQ(q[1], 5.5);
    EXPECT_DOUBLE_EQ(q[2], 8.25);
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    const auto two = quartiles({2, 1});
    EXPECT_DOUBLE_EQ(two[0], 0.75);
    EXPECT_DOUBLE_EQ(two[1], 1.5);
    EXPECT_DOUBLE_EQ(two[2], 2.25);
    // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
    const auto five = quartiles({16, 1, 8, 2, 4});
    EXPECT_DOUBLE_EQ(five[0], 1.5);
    EXPECT_DOUBLE_EQ(five[1], 4.0);
    EXPECT_DOUBLE_EQ(five[2], 12.0);
    EXPECT_THROW(quartiles({1.0}), std::invalid_argument);
}

TEST(Stats, RelativeSpread)
{
    EXPECT_DOUBLE_EQ(relativeSpread({10, 9, 8, 7, 6, 5, 4, 3, 2, 1}),
                     (8.25 - 2.75) / 5.5);
    EXPECT_DOUBLE_EQ(relativeSpread({5.0, 5.0, 5.0}), 0.0);
    EXPECT_DOUBLE_EQ(relativeSpread({5.0}), 0.0);
}

TEST(Probe, IndexIsNominalOverMeasured)
{
    EXPECT_DOUBLE_EQ(speedIndex(nominalProbeSeconds), 1.0);
    // A host 1.6x slower than nominal reads 1/1.6, so a pass's wall
    // time x its index is the nominal time.
    EXPECT_NEAR(speedIndex(nominalProbeSeconds * 1.6), 1.0 / 1.6, 1e-12);
    EXPECT_DOUBLE_EQ(speedIndex(nominalProbeSeconds / 2), 2.0);
    EXPECT_THROW(speedIndex(0.0), std::invalid_argument);
}

TEST(Probe, PassIndexIsGeometricMeanOfNeighbours)
{
    EXPECT_DOUBLE_EQ(passIndex(0.5, 2.0), 1.0);
    EXPECT_DOUBLE_EQ(passIndex(0.9, 0.9), 0.9);
}

TEST(Probe, RunsAndReportsPositiveTime)
{
    SpeedProbe probe;
    EXPECT_GT(probe.run(), 0.0);
    EXPECT_GT(speedIndex(probe.run()), 0.0);
}

TEST(Probe, NominalClockScalesBySurroundingProbes)
{
    NominalClock clock;
    const Timing a = clock.time([] {});
    const Timing b = clock.time([] {});
    const std::vector<double> &idx = clock.indices();
    ASSERT_EQ(idx.size(), 3u);
    EXPECT_DOUBLE_EQ(a.nominal, a.wall * passIndex(idx[0], idx[1]));
    EXPECT_DOUBLE_EQ(b.nominal, b.wall * passIndex(idx[1], idx[2]));
    clock.reprobe();
    EXPECT_EQ(clock.indices().size(), 4u);
}

namespace
{

gpsm::obs::Json
benchmarkJson()
{
    const char *path = std::getenv("PERFBENCH_JSON");
    std::ifstream in(path != nullptr ? path : "BENCHMARK.json");
    std::stringstream text;
    text << in.rdbuf();
    auto doc = gpsm::obs::parseJson(text.str());
    if (!doc)
        throw std::runtime_error("BENCHMARK.json missing or malformed");
    return *doc;
}

} // namespace

TEST(Emit, CatalogueMatchesBenchmarkJson)
{
    const gpsm::obs::Json doc = benchmarkJson();
    std::vector<MetricDef> declared;
    for (const char *section : {"end_to_end", "per_layer"}) {
        const gpsm::obs::Json *list = doc.find(section);
        ASSERT_NE(list, nullptr) << section;
        for (const gpsm::obs::Json &m : list->elements()) {
            declared.push_back({m.find("name")->asString(),
                                m.find("unit")->asString(),
                                std::string(section) == "per_layer"});
        }
    }
    const std::vector<MetricDef> &cat = metricCatalogue();
    ASSERT_EQ(declared.size(), cat.size());
    for (std::size_t i = 0; i < cat.size(); ++i) {
        EXPECT_EQ(declared[i].name, cat[i].name);
        EXPECT_EQ(declared[i].unit, cat[i].unit) << cat[i].name;
        EXPECT_EQ(declared[i].traced, cat[i].traced) << cat[i].name;
    }

    std::vector<std::string> workloads;
    for (const gpsm::obs::Json &w : doc.find("workloads")->elements())
        workloads.push_back(w.find("name")->asString());
    EXPECT_EQ(workloads, workloadNames());
}

TEST(Emit, RendersEveryMetricOfTheRunKind)
{
    ResultLine line(false);
    double v = 1.25;
    for (const MetricDef &d : metricCatalogue()) {
        if (!d.traced)
            line.set(d.name, v++);
    }
    EXPECT_THROW(line.set("tlb.walks", 1.0), std::invalid_argument);
    EXPECT_THROW(line.set("no_such_metric", 1.0), std::invalid_argument);

    const auto doc = gpsm::obs::parseJson(line.render(true, 12, 0));
    ASSERT_TRUE(doc.has_value());
    EXPECT_TRUE(doc->find("correct")->asBool());
    EXPECT_EQ(doc->find("attempted")->asNumber(), 12.0);
    EXPECT_EQ(doc->find("failed")->asNumber(), 0.0);
    const gpsm::obs::Json *metrics = doc->find("metrics");
    ASSERT_NE(metrics, nullptr);
    EXPECT_EQ(metrics->size(), 4u);
    const gpsm::obs::Json *setup = metrics->find("setup_s");
    ASSERT_NE(setup, nullptr);
    EXPECT_DOUBLE_EQ(setup->find("value")->asNumber(), 1.25);
    EXPECT_EQ(setup->find("unit")->asString(), "s");
}

TEST(Emit, MissingMetricIsAnError)
{
    ResultLine line(true);
    line.set("tlb.walks", 3.0);
    EXPECT_THROW(line.render(true, 1, 0), std::logic_error);
}

TEST(Reference, PlainBfsOnHandBuiltGraph)
{
    // 0 -> 1 -> 2, 0 -> 3, 4 -> 0 (4 unreachable from 0), 5 isolated.
    gpsm::graph::CsrGraph g({0, 2, 3, 3, 3, 4, 4}, {1, 3, 2, 0}, {});
    EXPECT_EQ(plainBfsReached(g, 0), 4u);
    EXPECT_EQ(plainBfsReached(g, 4), 5u);
    EXPECT_EQ(plainBfsReached(g, 5), 1u);

    gpsm::core::ExperimentConfig cfg;
    cfg.app = gpsm::core::App::Bfs;
    EXPECT_EQ(nativeAnswer(g, cfg).output, plainBfsReached(g, 0));
}

TEST(Workloads, NamesAndShapes)
{
    EXPECT_EQ(makeWorkload("incore_translate", 1).configs.size(), 4u);
    const Workload aged = makeWorkload("aged_replay_sweep", 1);
    EXPECT_EQ(aged.configs.size(), 9u);
    EXPECT_TRUE(aged.replay);
    EXPECT_EQ(makeWorkload("out_of_core", 1).configs.size(), 4u);
    EXPECT_THROW(makeWorkload("nope", 1), std::invalid_argument);
    // The seed reaches the dataset generator.
    EXPECT_EQ(makeWorkload("out_of_core", 7).configs[0].seed, 7u);
}

/** The traced driver reproduces runExperiment bit for bit. */
class DriverSelfCheck : public ::testing::TestWithParam<const char *>
{
};

TEST_P(DriverSelfCheck, MatchesRunExperiment)
{
    const Workload w = makeWorkload(GetParam(), 3, 16384);
    std::vector<gpsm::graph::CsrGraph> bases;
    bases.reserve(w.configs.size());
    std::vector<const gpsm::graph::CsrGraph *> ptrs;
    for (const auto &cfg : w.configs) {
        bases.push_back(gpsm::graph::makeDataset(
            gpsm::graph::datasetByName(cfg.dataset), cfg.scaleDivisor,
            cfg.app == gpsm::core::App::Sssp, cfg.seed));
        ptrs.push_back(&bases.back());
    }
    const LayerSample s = tracedPass(w, ptrs);
    EXPECT_EQ(s.error, "");
    ASSERT_EQ(s.results.size(), w.configs.size());
    gpsm::core::ReplayOptions off;
    gpsm::core::setReplay(off);
    for (std::size_t i = 0; i < w.configs.size(); ++i) {
        const gpsm::core::RunResult want =
            gpsm::core::runExperiment(w.configs[i]);
        EXPECT_EQ(compareResults(want, s.results[i]), "")
            << w.configs[i].label();
    }
    EXPECT_EQ(s.configs, w.configs.size());
    EXPECT_EQ(s.replayed, w.replay ? 7u : 0u);
    EXPECT_GT(s.dispatch, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, DriverSelfCheck,
                         ::testing::Values("incore_translate",
                                           "aged_replay_sweep",
                                           "out_of_core"));
