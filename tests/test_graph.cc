/**
 * @file
 * Graph substrate tests: CSR, builder, generators, IO, datasets.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "graph/builder.hh"
#include "graph/csr.hh"
#include "graph/datasets.hh"
#include "graph/generators.hh"
#include "util/logging.hh"

using namespace gpsm;
using namespace gpsm::graph;

TEST(Csr, BuildFromEdgesBasic)
{
    Builder b(4);
    CsrGraph g = b.fromEdges({{0, 1}, {0, 2}, {2, 3}, {3, 0}});
    EXPECT_EQ(g.numNodes(), 4u);
    EXPECT_EQ(g.numEdges(), 4u);
    EXPECT_EQ(g.outDegree(0), 2u);
    EXPECT_EQ(g.outDegree(1), 0u);
    auto n0 = g.neighborsOf(0);
    ASSERT_EQ(n0.size(), 2u);
    EXPECT_EQ(n0[0], 1u);
    EXPECT_EQ(n0[1], 2u);
    EXPECT_DOUBLE_EQ(g.averageDegree(), 1.0);
}

TEST(Csr, SelfLoopsDroppedByDefault)
{
    Builder b(3);
    CsrGraph g = b.fromEdges({{0, 0}, {0, 1}, {1, 1}});
    EXPECT_EQ(g.numEdges(), 1u);
}

TEST(Csr, DedupKeepsFirst)
{
    Builder b(3, true, /*dedup=*/true);
    CsrGraph g = b.fromEdges({{0, 1}, {0, 1}, {0, 2}, {0, 1}});
    EXPECT_EQ(g.numEdges(), 2u);
}

TEST(Csr, OutOfRangeEdgeIsFatal)
{
    Builder b(2);
    EXPECT_THROW(b.fromEdges({{0, 5}}), FatalError);
}

TEST(Csr, WeightedBuildIsDeterministic)
{
    Builder b(8);
    std::vector<Edge> edges{{0, 1}, {1, 2}, {2, 3}, {3, 4}};
    CsrGraph g1 = b.fromEdgesWeighted(edges, 255, 42);
    CsrGraph g2 = b.fromEdgesWeighted(edges, 255, 42);
    EXPECT_EQ(g1.valuesArray(), g2.valuesArray());
    for (Weight w : g1.valuesArray()) {
        EXPECT_GE(w, 1u);
        EXPECT_LE(w, 255u);
    }
}

TEST(Csr, ValidateCatchesCorruption)
{
    EXPECT_THROW(CsrGraph({0, 2}, {1}, {}), FatalError); // end != m
    EXPECT_THROW(CsrGraph({0, 1}, {7}, {}), FatalError); // target oob
    EXPECT_THROW(CsrGraph({1, 1}, {}, {}), FatalError);  // start != 0
}

TEST(Csr, FootprintMatchesTable2Accounting)
{
    Builder b(100);
    std::vector<Edge> edges;
    for (NodeId i = 0; i + 1 < 100; ++i)
        edges.push_back({i, i + 1});
    CsrGraph g = b.fromEdges(edges);
    const std::uint64_t base = 101 * 8 + 99 * 4 + 100 * 8;
    EXPECT_EQ(g.footprintBytes(false), base);
    // (values array would add 99 * 4)
}

TEST(Csr, DegreeHistogram)
{
    Builder b(4);
    CsrGraph g = b.fromEdges({{0, 1}, {0, 2}, {0, 3}, {1, 0}});
    auto h = g.degreeHistogram();
    EXPECT_EQ(h.samples(), 4u);
    EXPECT_EQ(h.max(), 3u);
}

TEST(Generators, RmatIsDeterministic)
{
    RmatParams p;
    p.scale = 10;
    p.edgeFactor = 8;
    p.seed = 5;
    auto e1 = rmatEdges(p);
    auto e2 = rmatEdges(p);
    ASSERT_EQ(e1.size(), e2.size());
    EXPECT_EQ(e1.size(), static_cast<size_t>(8 * 1024));
    for (size_t i = 0; i < e1.size(); ++i) {
        EXPECT_EQ(e1[i].src, e2[i].src);
        EXPECT_EQ(e1[i].dst, e2[i].dst);
    }
}

TEST(Generators, RmatIsSkewed)
{
    RmatParams p;
    p.scale = 12;
    p.edgeFactor = 16;
    auto edges = rmatEdges(p);
    Builder b(1u << p.scale);
    CsrGraph g = b.fromEdges(edges);
    // Power-law check: the busiest 1% of vertices should own far more
    // than 1% of the edges (in-degree skew).
    std::vector<std::uint64_t> indeg(g.numNodes(), 0);
    for (NodeId t : g.edgeArray())
        ++indeg[t];
    std::sort(indeg.begin(), indeg.end(), std::greater<>());
    const std::uint64_t top1 =
        std::accumulate(indeg.begin(),
                        indeg.begin() + g.numNodes() / 100, 0ull);
    EXPECT_GT(static_cast<double>(top1) / g.numEdges(), 0.10);
}

TEST(Generators, RmatPermutationScattersHubs)
{
    RmatParams p;
    p.scale = 12;
    p.edgeFactor = 8;
    p.permute = true;
    auto edges = rmatEdges(p);
    Builder b(1u << p.scale);
    CsrGraph g = b.fromEdges(edges);
    std::vector<std::uint64_t> indeg(g.numNodes(), 0);
    for (NodeId t : g.edgeArray())
        ++indeg[t];
    // Without permutation vertex 0 is almost always the hottest; with
    // permutation, the top-16 hot vertices should not cluster in the
    // low ID range.
    std::vector<NodeId> order(g.numNodes());
    std::iota(order.begin(), order.end(), 0u);
    std::partial_sort(order.begin(), order.begin() + 16, order.end(),
                      [&](NodeId a, NodeId c) {
                          return indeg[a] > indeg[c];
                      });
    NodeId low_id_hubs = 0;
    for (int i = 0; i < 16; ++i)
        low_id_hubs += order[i] < g.numNodes() / 8 ? 1 : 0;
    EXPECT_LT(low_id_hubs, 9u); // scattered, not clustered
}

TEST(Generators, PowerLawHubLocalityClustersHubs)
{
    PowerLawParams p;
    p.nodes = 1u << 12;
    p.avgDegree = 16;
    p.theta = 0.7;
    p.hubLocality = 1.0;
    auto edges = powerLawEdges(p);
    Builder b(p.nodes);
    CsrGraph g = b.fromEdges(edges);
    std::vector<std::uint64_t> indeg(g.numNodes(), 0);
    for (NodeId t : g.edgeArray())
        ++indeg[t];
    // With full hub locality, low IDs are the hot ones: the first 1%
    // of IDs should hold a large share of edge endpoints.
    std::uint64_t low = 0;
    for (NodeId v = 0; v < g.numNodes() / 100; ++v)
        low += indeg[v];
    EXPECT_GT(static_cast<double>(low) / g.numEdges(), 0.15);
}

TEST(Generators, CommunityParameterLocalizesEdges)
{
    PowerLawParams p;
    p.nodes = 1u << 14;
    p.avgDegree = 8;
    p.community = 0.9;
    p.communityWindow = 256;
    auto edges = powerLawEdges(p);
    std::uint64_t near = 0;
    for (const Edge &e : edges) {
        const auto d = e.src > e.dst ? e.src - e.dst : e.dst - e.src;
        near += d <= 256 ? 1 : 0;
    }
    EXPECT_GT(static_cast<double>(near) / edges.size(), 0.5);
}

TEST(Generators, UniformCoversRange)
{
    auto edges = uniformEdges(100, 20, 3);
    EXPECT_EQ(edges.size(), 2000u);
    std::set<NodeId> seen;
    for (const Edge &e : edges) {
        EXPECT_LT(e.src, 100u);
        EXPECT_LT(e.dst, 100u);
        seen.insert(e.dst);
    }
    EXPECT_GT(seen.size(), 80u);
}

TEST(Datasets, FourStandardSpecsMatchTable2)
{
    auto specs = standardDatasets();
    ASSERT_EQ(specs.size(), 4u);
    EXPECT_EQ(specs[0].shortName, "kron");
    EXPECT_EQ(specs[0].paperNodes, 34'000'000u);
    EXPECT_EQ(specs[1].shortName, "twit");
    EXPECT_EQ(specs[1].paperEdges, 1'940'000'000u);
    EXPECT_EQ(specs[2].shortName, "web");
    EXPECT_EQ(specs[3].shortName, "wiki");
    EXPECT_THROW(datasetByName("nope"), FatalError);
}

TEST(Datasets, ScaledInstancesPreserveAverageDegree)
{
    for (const auto &spec : standardDatasets()) {
        CsrGraph g = makeDataset(spec, 2048);
        const double paper_deg =
            static_cast<double>(spec.paperEdges) / spec.paperNodes;
        EXPECT_NEAR(g.averageDegree(), paper_deg, paper_deg * 0.25)
            << spec.shortName;
        g.validate();
    }
}

TEST(Datasets, WeightedInstanceHasValues)
{
    CsrGraph g = makeDataset(datasetByName("wiki"), 2048, true, 3);
    EXPECT_TRUE(g.weighted());
    EXPECT_EQ(g.valuesArray().size(), g.numEdges());
}
