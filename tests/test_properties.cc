/**
 * @file
 * Cross-cutting property tests (TEST_P sweeps):
 * - kernel results are invariant under every reordering method;
 * - translation stability: a virtual page keeps its frame until an
 *   event that legitimately moves it;
 * - page-size policy never changes kernel results (policy product
 *   sweep);
 * - generator determinism across the dataset matrix.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <tuple>

#include "core/experiment.hh"
#include "core/kernels.hh"
#include "core/views.hh"
#include "graph/datasets.hh"
#include "graph/reorder.hh"
#include "util/rng.hh"
#include "util/units.hh"

using namespace gpsm;
using namespace gpsm::core;
using namespace gpsm::graph;

// ---------------------------------------------------------------------
// Generator determinism across the dataset matrix. The name is a
// std::string, not a const char *: gtest prints a pointer parameter
// with its address, and that would put the load address into the
// test's listed name.

class DatasetMatrix
    : public ::testing::TestWithParam<std::tuple<std::string, bool>>
{
};

TEST_P(DatasetMatrix, GenerationIsDeterministic)
{
    const auto [name, weighted] = GetParam();
    CsrGraph a = makeDataset(datasetByName(name), 4096, weighted, 9);
    CsrGraph b = makeDataset(datasetByName(name), 4096, weighted, 9);
    EXPECT_EQ(a.vertexArray(), b.vertexArray());
    EXPECT_EQ(a.edgeArray(), b.edgeArray());
    EXPECT_EQ(a.valuesArray(), b.valuesArray());
    // And different seeds differ.
    CsrGraph c = makeDataset(datasetByName(name), 4096, weighted, 10);
    EXPECT_NE(a.edgeArray(), c.edgeArray());
}

INSTANTIATE_TEST_SUITE_P(
    AllDatasets, DatasetMatrix,
    ::testing::Combine(::testing::Values("kron", "twit", "web",
                                         "wiki"),
                       ::testing::Bool()),
    [](const auto &info) {
        return std::get<0>(info.param) +
               (std::get<1>(info.param) ? "_weighted" : "_plain");
    });

// ---------------------------------------------------------------------
// Kernel invariance under every reordering method.

class ReorderInvariance
    : public ::testing::TestWithParam<ReorderMethod>
{
};

TEST_P(ReorderInvariance, BfsReachAndDistancesMapThrough)
{
    CsrGraph g = makeDataset(datasetByName("wiki"), 4096);
    const NodeId root = defaultRoot(g);

    NativeView<std::uint64_t> v1(g, {});
    v1.load(unreachedDist);
    const std::uint64_t reach1 = bfs(v1, root);

    const auto mapping = reorderMapping(g, GetParam(), 5);
    CsrGraph h = applyMapping(g, mapping);
    NativeView<std::uint64_t> v2(h, {});
    v2.load(unreachedDist);
    const std::uint64_t reach2 = bfs(v2, mapping[root]);

    ASSERT_EQ(reach1, reach2);
    for (NodeId v = 0; v < g.numNodes(); ++v)
        ASSERT_EQ(v1.propGet(v), v2.propGet(mapping[v]));
}

TEST_P(ReorderInvariance, PageRankMassMapsThrough)
{
    CsrGraph g = makeDataset(datasetByName("wiki"), 8192);
    NativeView<double>::Options opts;
    opts.needAux = true;

    NativeView<double> v1(g, opts);
    v1.load(1.0 / g.numNodes());
    pagerank(v1, 5, 0.85, 0.0);

    const auto mapping = reorderMapping(g, GetParam(), 5);
    CsrGraph h = applyMapping(g, mapping);
    NativeView<double> v2(h, opts);
    v2.load(1.0 / h.numNodes());
    pagerank(v2, 5, 0.85, 0.0);

    // Push order changes summation order, so allow tiny FP slack.
    for (NodeId v = 0; v < g.numNodes(); ++v)
        ASSERT_NEAR(v1.propGet(v), v2.propGet(mapping[v]), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, ReorderInvariance,
    ::testing::Values(ReorderMethod::None, ReorderMethod::Dbg,
                      ReorderMethod::SortByDegree,
                      ReorderMethod::HubSort, ReorderMethod::Random),
    [](const auto &info) {
        return std::string(reorderMethodName(info.param));
    });

// ---------------------------------------------------------------------
// Page-size policy must never change results: product sweep.

struct PolicyCase
{
    vm::ThpMode mode;
    AllocOrder order;
    double fraction;
    double frag;
};

// Without this gtest prints the raw bytes, padding included, so the
// listed test name would carry whatever the padding happened to hold.
void
PrintTo(const PolicyCase &pc, std::ostream *os)
{
    *os << "{" << vm::thpModeName(pc.mode) << ", "
        << allocOrderName(pc.order) << ", madv=" << pc.fraction
        << ", frag=" << pc.frag << "}";
}

class PolicyProduct : public ::testing::TestWithParam<PolicyCase>
{
};

TEST_P(PolicyProduct, ResultsAreBitIdenticalToBaseline)
{
    const PolicyCase pc = GetParam();

    ExperimentConfig base;
    base.sys = SystemConfig::scaled();
    base.sys.node.bytes = 64_MiB;
    base.sys.node.hugeWatermarkBytes = base.sys.node.bytes / 40;
    base.app = App::Bfs;
    base.dataset = "wiki";
    base.scaleDivisor = 1024;
    base.thpMode = vm::ThpMode::Never;
    const RunResult r0 = runExperiment(base);

    ExperimentConfig cfg = base;
    cfg.thpMode = pc.mode;
    cfg.order = pc.order;
    cfg.madvise = MadviseSelection::propertyOnly(pc.fraction);
    cfg.constrainMemory = pc.frag > 0.0;
    cfg.slackBytes = 4_MiB;
    cfg.fragLevel = pc.frag;
    const RunResult r = runExperiment(cfg);

    EXPECT_EQ(r.checksum, r0.checksum);
    EXPECT_EQ(r.kernelOutput, r0.kernelOutput);
    EXPECT_EQ(r.accesses, r0.accesses); // same traced access stream
}

INSTANTIATE_TEST_SUITE_P(
    Policies, PolicyProduct,
    ::testing::Values(
        PolicyCase{vm::ThpMode::Always, AllocOrder::Natural, 0.0, 0.0},
        PolicyCase{vm::ThpMode::Always, AllocOrder::PropertyFirst, 0.0,
                   0.5},
        PolicyCase{vm::ThpMode::Madvise, AllocOrder::Natural, 0.2,
                   0.0},
        PolicyCase{vm::ThpMode::Madvise, AllocOrder::PropertyFirst,
                   0.6, 0.75},
        PolicyCase{vm::ThpMode::Madvise, AllocOrder::PropertyFirst,
                   1.0, 0.25}));

// ---------------------------------------------------------------------
// Translation stability under simulated execution.

TEST(TranslationStability, FramesOnlyMoveOnLegitimateEvents)
{
    SystemConfig sys = SystemConfig::scaled();
    sys.node.bytes = 32_MiB;
    sys.node.hugeWatermarkBytes = 0;
    sys.enableCache = false;
    SimMachine m(sys, vm::ThpConfig::never());

    SimArray<std::uint64_t> arr(m, 4096, "a", TagOther);
    arr.fill(1);

    // Record every page's frame; re-walk and compare: with no
    // pressure, no swap, no compaction, translations are stable.
    const std::uint64_t pages = arr.bytes() / 4096;
    std::vector<std::uint64_t> frames(pages);
    for (std::uint64_t p = 0; p < pages; ++p) {
        auto t = m.space().translate(arr.vaddr() + p * 4096);
        ASSERT_TRUE(t.valid && t.pte.present);
        frames[p] = t.pte.frame;
    }
    // Random re-accesses must not move anything.
    Rng rng(3);
    for (int i = 0; i < 10000; ++i)
        arr.get(rng.below(4096));
    for (std::uint64_t p = 0; p < pages; ++p) {
        auto t = m.space().translate(arr.vaddr() + p * 4096);
        EXPECT_EQ(t.pte.frame, frames[p]) << "page " << p;
    }
}
