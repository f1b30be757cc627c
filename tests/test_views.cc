/**
 * @file
 * SimArray / SimView tests: traced access counting, fault behaviour,
 * madvise fractions, load ordering.
 */

#include <gtest/gtest.h>

#include "core/kernels.hh"
#include "core/machine.hh"
#include "core/sim_array.hh"
#include "core/views.hh"
#include "graph/builder.hh"
#include "graph/generators.hh"
#include "mem/memhog.hh"
#include "util/units.hh"

using namespace gpsm;
using namespace gpsm::core;
using namespace gpsm::graph;

namespace
{

SystemConfig
testConfig()
{
    SystemConfig cfg = SystemConfig::scaled();
    cfg.node.bytes = 32_MiB;
    cfg.node.hugeWatermarkBytes = 0; // most tests want no watermark
    cfg.enableCache = false;         // cost clarity
    return cfg;
}

} // namespace

TEST(SimArray, EveryAccessIsTraced)
{
    SimMachine m(testConfig(), vm::ThpConfig::never());
    SimArray<std::uint32_t> arr(m, 100, "a", TagProperty);
    arr.set(0, 5);
    EXPECT_EQ(arr.get(0), 5u);
    arr.add(0, 2);
    EXPECT_EQ(arr.raw()[0], 7u);
    EXPECT_EQ(m.mmu().accesses.value(), 3u);
    EXPECT_EQ(m.mmu().tagStats(TagProperty).accesses.value(), 3u);
}

TEST(SimArray, FillFaultsEveryPageOnce)
{
    SimMachine m(testConfig(), vm::ThpConfig::never());
    // 4096 u64s = 8 pages.
    SimArray<std::uint64_t> arr(m, 4096, "a", TagOther);
    arr.fill(7);
    EXPECT_EQ(m.space().minorFaults.value(), 8u);
    EXPECT_EQ(m.mmu().accesses.value(), 4096u);
}

TEST(SimArray, DestructorUnmaps)
{
    SimMachine m(testConfig(), vm::ThpConfig::never());
    const auto free_before = m.node().freeBytes();
    {
        SimArray<std::uint64_t> arr(m, 4096, "a", TagOther);
        arr.fill(1);
        EXPECT_LT(m.node().freeBytes(), free_before);
    }
    EXPECT_EQ(m.node().freeBytes(), free_before);
}

TEST(SimArray, AdviseFractionBacksPrefixOnly)
{
    SimMachine m(testConfig(), vm::ThpConfig::madvise());
    const std::uint64_t huge = m.config().hugePageBytes();
    // Array of exactly 4 huge pages of u64s.
    SimArray<std::uint64_t> arr(m, 4 * huge / 8, "a", TagProperty);
    arr.adviseHugeFraction(0.5);
    arr.fill(1);
    EXPECT_EQ(m.space().hugeBackedBytes(), 2 * huge);
    EXPECT_EQ(m.space().hugeFaults.value(), 2u);
}

TEST(SimArray, AdviseZeroAndFullFractions)
{
    SimMachine m(testConfig(), vm::ThpConfig::madvise());
    const std::uint64_t huge = m.config().hugePageBytes();
    SimArray<std::uint64_t> a(m, 2 * huge / 8, "a", TagProperty);
    a.adviseHugeFraction(0.0);
    a.fill(1);
    EXPECT_EQ(m.space().hugeBackedBytes(), 0u);

    SimArray<std::uint64_t> b(m, 2 * huge / 8, "b", TagProperty);
    b.adviseHugeFraction(1.0);
    b.fill(1);
    EXPECT_EQ(m.space().hugeBackedBytes(), 2 * huge);
}

TEST(SimView, LoadPopulatesAllArrays)
{
    Builder b(256);
    CsrGraph g = b.fromEdgesWeighted(uniformEdges(256, 4, 1), 10, 2);
    SimMachine m(testConfig(), vm::ThpConfig::never());
    SimView<std::uint64_t>::Options opts;
    opts.needValues = true;
    SimView<std::uint64_t> view(m, g, opts);
    view.load(unreachedDist);

    EXPECT_EQ(view.numNodes(), g.numNodes());
    EXPECT_EQ(view.edgeBegin(0), g.vertexArray()[0]);
    EXPECT_EQ(view.edgeTarget(0), g.edgeArray()[0]);
    EXPECT_EQ(view.weight(0), g.valuesArray()[0]);
    EXPECT_EQ(view.propGet(0), unreachedDist);
    EXPECT_EQ(view.footprintBytes(),
              (g.numNodes() + 1) * 8 + g.numEdges() * 4 +
                  g.numEdges() * 4 + g.numNodes() * 8);
}

TEST(SimView, NaturalOrderStarvesPropertyArray)
{
    // Constrain memory so that only a few huge pages exist; under
    // natural order the CSR arrays are loaded first and consume them.
    Builder b(1 << 15);
    CsrGraph g = b.fromEdges(uniformEdges(1 << 15, 16, 1));
    SystemConfig cfg = testConfig();
    cfg.node.hugeWatermarkBytes = 1_MiB;
    SimMachine m(cfg, vm::ThpConfig::always());
    const std::uint64_t huge = cfg.hugePageBytes();

    // Leave room for the WSS plus a hair, like the paper's +0.5GB.
    mem::Memhog hog(m.node());
    const std::uint64_t wss =
        (g.numNodes() + 1) * 8 + g.numEdges() * 4 + g.numNodes() * 8;
    hog.occupyAllBut(wss + 2 * huge);

    SimView<std::uint64_t>::Options opts;
    opts.order = AllocOrder::Natural;
    SimView<std::uint64_t> view(m, g, opts);
    view.load(unreachedDist);

    // The property array (loaded last) should hold almost no huge
    // pages; the huge memory went to vertex/edge arrays.
    const std::uint64_t prop_hus =
        m.space().findVma(view.propArray().vaddr())->hugePages;
    EXPECT_EQ(prop_hus, 0u);
}

TEST(SimView, PropertyFirstOrderWinsHugePages)
{
    Builder b(1 << 15);
    CsrGraph g = b.fromEdges(uniformEdges(1 << 15, 16, 1));
    SystemConfig cfg = testConfig();
    cfg.node.hugeWatermarkBytes = 1_MiB;
    SimMachine m(cfg, vm::ThpConfig::always());
    const std::uint64_t huge = cfg.hugePageBytes();

    mem::Memhog hog(m.node());
    const std::uint64_t wss =
        (g.numNodes() + 1) * 8 + g.numEdges() * 4 + g.numNodes() * 8;
    const std::uint64_t prop_bytes = g.numNodes() * 8;
    hog.occupyAllBut(wss + 2 * huge);

    SimView<std::uint64_t>::Options opts;
    opts.order = AllocOrder::PropertyFirst;
    SimView<std::uint64_t> view(m, g, opts);
    view.load(unreachedDist);

    const std::uint64_t prop_hus =
        m.space().findVma(view.propArray().vaddr())->hugePages;
    EXPECT_EQ(prop_hus, prop_bytes / huge);
}

TEST(SimView, PageCacheInterferenceConsumesFreeMemory)
{
    Builder b(1 << 14);
    CsrGraph g = b.fromEdges(uniformEdges(1 << 14, 8, 1));
    SimMachine m(testConfig(), vm::ThpConfig::never());
    SimView<std::uint64_t>::Options opts;
    opts.fileSource = FileSource::PageCacheLocal;
    SimView<std::uint64_t> view(m, g, opts);
    view.load(0);
    EXPECT_GT(m.stagedInputBytes(), 0u);
    // Cached bytes equal the CSR file data (vertex + edge arrays).
    EXPECT_GE(m.stagedInputBytes(),
              (g.numNodes() + 1) * 8 + g.numEdges() * 4);
}

TEST(SimView, AuxArrayCountsAsProperty)
{
    // Arrays sized to exactly two huge pages each.
    SystemConfig cfg = testConfig();
    const NodeId n =
        static_cast<NodeId>(2 * cfg.hugePageBytes() / 8);
    Builder b(n);
    CsrGraph g = b.fromEdges(uniformEdges(n, 4, 1));
    SimMachine m(cfg, vm::ThpConfig::madvise());
    SimView<double>::Options opts;
    opts.needAux = true;
    SimView<double> view(m, g, opts);
    view.advisePropertyFraction(1.0);
    view.load(0.25);
    EXPECT_EQ(view.propertyBytes(), 2ull * n * 8);
    // Both prop and aux are fully huge-backed.
    EXPECT_EQ(m.space().hugeBackedBytes(), 4 * cfg.hugePageBytes());
    EXPECT_EQ(view.auxGet(5), 0.0);
    view.auxAdd(5, 0.5);
    EXPECT_EQ(view.auxGet(5), 0.5);
}

TEST(SimView, ArrayTagNames)
{
    EXPECT_STREQ(arrayTagName(TagVertex), "vertex");
    EXPECT_STREQ(arrayTagName(TagProperty), "property");
    EXPECT_STREQ(arrayTagName(TagOther), "other");
    EXPECT_STREQ(allocOrderName(AllocOrder::Natural), "natural");
    EXPECT_STREQ(allocOrderName(AllocOrder::PropertyFirst),
                 "prop-first");
}
