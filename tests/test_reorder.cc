/**
 * @file
 * Reordering tests: DBG binning, permutation validity, structure
 * preservation, hot-prefix coverage.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <set>

#include "graph/builder.hh"
#include "graph/datasets.hh"
#include "graph/generators.hh"
#include "graph/reorder.hh"
#include "util/logging.hh"

using namespace gpsm;
using namespace gpsm::graph;

namespace
{

CsrGraph
testGraph(std::uint64_t seed = 1)
{
    RmatParams p;
    p.scale = 11;
    p.edgeFactor = 12;
    p.seed = seed;
    Builder b(1u << p.scale);
    return b.fromEdges(rmatEdges(p));
}

std::vector<std::uint64_t>
inDegrees(const CsrGraph &g)
{
    std::vector<std::uint64_t> indeg(g.numNodes(), 0);
    for (NodeId t : g.edgeArray())
        ++indeg[t];
    return indeg;
}

} // namespace

TEST(Reorder, DbgThresholdsMatchPaper)
{
    auto thr = dbgThresholds();
    ASSERT_EQ(thr.size(), 8u);
    EXPECT_DOUBLE_EQ(thr[0], 32.0);
    EXPECT_DOUBLE_EQ(thr[6], 0.5);
    EXPECT_DOUBLE_EQ(thr[7], 0.0);
}

TEST(Reorder, DbgBinsRespectThresholds)
{
    CsrGraph g = testGraph();
    const auto bins = dbgBins(g);
    const auto indeg = inDegrees(g);
    const double d = g.averageDegree();
    const auto thr = dbgThresholds();
    for (NodeId v = 0; v < g.numNodes(); ++v) {
        const unsigned b = bins[v];
        EXPECT_GE(static_cast<double>(indeg[v]), thr[b] * d);
        if (b > 0) {
            EXPECT_LT(static_cast<double>(indeg[v]), thr[b - 1] * d);
        }
    }
}

class ReorderMethods
    : public ::testing::TestWithParam<ReorderMethod>
{
};

TEST_P(ReorderMethods, MappingIsAPermutation)
{
    CsrGraph g = testGraph();
    auto mapping = reorderMapping(g, GetParam(), 7);
    ASSERT_EQ(mapping.size(), g.numNodes());
    std::vector<bool> seen(g.numNodes(), false);
    for (NodeId id : mapping) {
        ASSERT_LT(id, g.numNodes());
        ASSERT_FALSE(seen[id]);
        seen[id] = true;
    }
}

TEST_P(ReorderMethods, ApplyMappingPreservesStructure)
{
    CsrGraph g = testGraph();
    auto mapping = reorderMapping(g, GetParam(), 7);
    CsrGraph h = applyMapping(g, mapping);
    h.validate();
    ASSERT_EQ(h.numNodes(), g.numNodes());
    ASSERT_EQ(h.numEdges(), g.numEdges());
    // Per-vertex neighbor multisets must map exactly.
    for (NodeId v = 0; v < g.numNodes(); ++v) {
        auto old_n = g.neighborsOf(v);
        auto new_n = h.neighborsOf(mapping[v]);
        ASSERT_EQ(old_n.size(), new_n.size());
        std::multiset<NodeId> expect;
        for (NodeId t : old_n)
            expect.insert(mapping[t]);
        std::multiset<NodeId> got(new_n.begin(), new_n.end());
        ASSERT_EQ(expect, got) << "vertex " << v;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, ReorderMethods,
    ::testing::Values(ReorderMethod::None, ReorderMethod::Dbg,
                      ReorderMethod::SortByDegree,
                      ReorderMethod::HubSort, ReorderMethod::Random),
    [](const auto &info) {
        return std::string(reorderMethodName(info.param));
    });

TEST(Reorder, NoneIsIdentity)
{
    CsrGraph g = testGraph();
    auto mapping = reorderMapping(g, ReorderMethod::None);
    for (NodeId v = 0; v < g.numNodes(); ++v)
        EXPECT_EQ(mapping[v], v);
}

TEST(Reorder, DbgGroupsHotVerticesFirst)
{
    CsrGraph g = testGraph();
    auto mapping = reorderMapping(g, ReorderMethod::Dbg);
    CsrGraph h = applyMapping(g, mapping);
    const auto indeg = inDegrees(h);
    // Bin boundaries: new IDs must have non-increasing bin hotness.
    const auto bins = dbgBins(h);
    for (NodeId v = 1; v < h.numNodes(); ++v)
        EXPECT_LE(bins[v - 1], bins[v]) << "new id " << v;
    (void)indeg;
}

TEST(Reorder, DbgIsStableWithinBins)
{
    CsrGraph g = testGraph();
    const auto bins = dbgBins(g);
    auto mapping = reorderMapping(g, ReorderMethod::Dbg);
    // Vertices in the same bin keep their relative old-ID order.
    std::map<unsigned, NodeId> last_new_id;
    for (NodeId old_id = 0; old_id < g.numNodes(); ++old_id) {
        auto it = last_new_id.find(bins[old_id]);
        if (it != last_new_id.end()) {
            EXPECT_GT(mapping[old_id], it->second);
        }
        last_new_id[bins[old_id]] = mapping[old_id];
    }
}

TEST(Reorder, SortByDegreeIsMonotone)
{
    CsrGraph g = testGraph();
    auto mapping = reorderMapping(g, ReorderMethod::SortByDegree);
    CsrGraph h = applyMapping(g, mapping);
    const auto indeg = inDegrees(h);
    for (NodeId v = 1; v < h.numNodes(); ++v)
        EXPECT_GE(indeg[v - 1], indeg[v]);
}

TEST(Reorder, DbgImprovesHotPrefixCoverageOnScatteredGraphs)
{
    // Kron-like data (permuted hubs): DBG should concentrate edge
    // endpoints into a small ID prefix.
    CsrGraph g = testGraph();
    const NodeId prefix = g.numNodes() / 20;
    const double before = hotPrefixCoverage(g, prefix);
    CsrGraph h =
        applyMapping(g, reorderMapping(g, ReorderMethod::Dbg));
    const double after = hotPrefixCoverage(h, prefix);
    EXPECT_GT(after, before * 2);
    EXPECT_GT(after, 0.3);
}

TEST(Reorder, DbgBarelyChangesHubLocalGraphs)
{
    // Twitter-like data already has hubs at low IDs (paper §5.2):
    // DBG's prefix-coverage gain should be small.
    CsrGraph g = makeDataset(datasetByName("twit"), 4096);
    const NodeId prefix = g.numNodes() / 20;
    const double before = hotPrefixCoverage(g, prefix);
    CsrGraph h =
        applyMapping(g, reorderMapping(g, ReorderMethod::Dbg));
    const double after = hotPrefixCoverage(h, prefix);
    EXPECT_LT(after - before, 0.25);
    EXPECT_GT(before, 0.2); // already concentrated
}

TEST(Reorder, HotPrefixCoverageIsMonotoneInPrefix)
{
    CsrGraph g = testGraph();
    double prev = 0.0;
    for (NodeId prefix : {0u, 16u, 256u, 1024u, 2048u}) {
        const double c = hotPrefixCoverage(g, prefix);
        EXPECT_GE(c, prev);
        prev = c;
    }
    EXPECT_DOUBLE_EQ(hotPrefixCoverage(g, g.numNodes()), 1.0);
}

TEST(Reorder, MappingSizeMismatchIsFatal)
{
    CsrGraph g = testGraph();
    std::vector<NodeId> bad(g.numNodes() - 1);
    EXPECT_THROW(applyMapping(g, bad), FatalError);
    // Non-permutation (duplicate target) also fails.
    std::vector<NodeId> dup(g.numNodes(), 0);
    EXPECT_THROW(applyMapping(g, dup), FatalError);
}

TEST(Reorder, DbgTraversalWorkModel)
{
    CsrGraph g = testGraph();
    EXPECT_EQ(dbgTraversalWork(g),
              g.numEdges() + 2ull * g.numNodes());
}
