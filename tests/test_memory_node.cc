/**
 * @file
 * MemoryNode escalation tests: reclaim, compaction, swap, OOM.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/addr_space_cache.hh"
#include "mem/memory_node.hh"
#include "util/logging.hh"
#include "util/units.hh"

using namespace gpsm;
using namespace gpsm::mem;

namespace
{

MemoryNode::Params
smallNode()
{
    MemoryNode::Params p;
    p.bytes = 4_MiB; // 1024 frames
    p.basePageBytes = 4_KiB;
    p.hugeOrder = 6; // 64-frame huge pages, 16 regions
    return p;
}

/** Client that owns pages and cooperates with swap by freeing them. */
class TestClient : public PageClient
{
  public:
    explicit TestClient(MemoryNode &node) : node(node)
    {
        id = node.registerClient(this);
    }

    FrameNum
    allocOne(bool may_swap = false)
    {
        MemoryNode::Request req;
        req.order = 0;
        req.client = id;
        req.maySwap = may_swap;
        AllocOutcome out = node.allocate(req);
        if (out.success)
            frames.push_back(out.frame);
        return out.success ? out.frame : invalidFrame;
    }

    void
    migratePage(FrameNum from, FrameNum to) override
    {
        for (FrameNum &f : frames)
            if (f == from)
                f = to;
        ++migrations;
    }

    bool
    evictPage(FrameNum frame) override
    {
        if (!evictable)
            return false;
        for (auto it = frames.begin(); it != frames.end(); ++it) {
            if (*it == frame) {
                frames.erase(it);
                node.free(frame);
                ++evictions;
                return true;
            }
        }
        return false;
    }

    const char *clientName() const override { return "test"; }

    MemoryNode &node;
    std::uint16_t id = 0;
    std::vector<FrameNum> frames;
    int migrations = 0;
    int evictions = 0;
    bool evictable = true;
};

} // namespace

TEST(MemoryNode, GeometryQueries)
{
    MemoryNode node(smallNode());
    EXPECT_EQ(node.basePageBytes(), 4096u);
    EXPECT_EQ(node.hugePageBytes(), 256u * 1024);
    EXPECT_EQ(node.totalBytes(), 4u * 1024 * 1024);
    EXPECT_EQ(node.freeBytes(), node.totalBytes());
    EXPECT_EQ(node.freeHugeRegions(), 16u);
}

TEST(MemoryNode, RejectsTinyNode)
{
    MemoryNode::Params p = smallNode();
    p.bytes = 128 * 1024; // smaller than one 256KiB huge page
    EXPECT_THROW(MemoryNode node(p), FatalError);
}

TEST(MemoryNode, BasicAllocateFree)
{
    MemoryNode node(smallNode());
    TestClient client(node);
    FrameNum f = client.allocOne();
    ASSERT_NE(f, invalidFrame);
    EXPECT_EQ(node.freeBytes(), node.totalBytes() - 4096);
    node.free(f);
    EXPECT_EQ(node.freeBytes(), node.totalBytes());
}

TEST(MemoryNode, ReclaimsPageCacheUnderPressure)
{
    MemoryNode node(smallNode());
    AddressSpaceCache cache(node);
    const FileId file = cache.createFile("input-files");
    TestClient client(node);

    // Fill the whole node with page cache.
    EXPECT_EQ(cache.populate(file, 0, node.totalBytes()).bytes,
              node.totalBytes());
    EXPECT_EQ(node.freeBytes(), 0u);

    // A base-page allocation succeeds by reclaiming one cache page.
    MemoryNode::Request req;
    req.order = 0;
    req.client = client.id;
    AllocOutcome out = node.allocate(req);
    ASSERT_TRUE(out.success);
    EXPECT_EQ(out.reclaimedPages, 1u);
    EXPECT_EQ(node.reclaimedPages.value(), 1u);
    EXPECT_EQ(cache.residentPagesOf(file), node.totalBytes() / 4096 - 1);
}

TEST(MemoryNode, SwapsOutMovablePagesWhenAllowed)
{
    MemoryNode node(smallNode());
    TestClient victim_owner(node);

    while (victim_owner.allocOne() != invalidFrame) {
    }
    for (FrameNum f : victim_owner.frames)
        node.noteSwappable(f);
    EXPECT_EQ(node.freeBytes(), 0u);

    TestClient needy(node);
    FrameNum f = needy.allocOne(/*may_swap=*/true);
    ASSERT_NE(f, invalidFrame);
    EXPECT_EQ(victim_owner.evictions, 1);
    EXPECT_EQ(node.swapOuts.value(), 1u);
}

TEST(MemoryNode, FailsCleanlyWithoutEscalationPaths)
{
    MemoryNode node(smallNode());
    TestClient hog(node);
    while (hog.allocOne() != invalidFrame) {
    }
    TestClient needy(node);
    EXPECT_EQ(needy.allocOne(/*may_swap=*/false), invalidFrame);
    EXPECT_GE(node.oomFailures.value(), 1u);
}

TEST(MemoryNode, HugeRequestCompactsScatteredMovablePages)
{
    MemoryNode node(smallNode());
    TestClient client(node);

    // Scatter one movable page into every huge region so no region is
    // free; plenty of free memory remains for evacuation.
    for (std::uint64_t r = 0; r < 16; ++r) {
        bool ok = node.buddy().allocateExact(r * 64 + 7, 0,
                                             Migratetype::Movable,
                                             client.id);
        ASSERT_TRUE(ok);
        client.frames.push_back(r * 64 + 7);
    }
    EXPECT_EQ(node.freeHugeRegions(), 0u);

    MemoryNode::Request req;
    req.order = 6;
    req.client = client.id;
    req.mayCompact = true;
    AllocOutcome out = node.allocate(req);
    ASSERT_TRUE(out.success);
    EXPECT_EQ(out.migratedPages, 1u);
    EXPECT_EQ(client.migrations, 1);
    EXPECT_EQ(node.compactionRuns.value(), 1u);
}

TEST(MemoryNode, HugeRequestWithoutCompactionFallsThrough)
{
    MemoryNode node(smallNode());
    TestClient client(node);
    for (std::uint64_t r = 0; r < 16; ++r) {
        ASSERT_TRUE(node.buddy().allocateExact(
            r * 64 + 7, 0, Migratetype::Movable, client.id));
        client.frames.push_back(r * 64 + 7);
    }
    MemoryNode::Request req;
    req.order = 6;
    req.client = client.id;
    req.mayCompact = false;
    AllocOutcome out = node.allocate(req);
    EXPECT_FALSE(out.success);
    EXPECT_EQ(client.migrations, 0);
}

TEST(MemoryNode, CompactionCannotBeatUnmovablePages)
{
    MemoryNode node(smallNode());
    TestClient client(node);
    for (std::uint64_t r = 0; r < 16; ++r) {
        ASSERT_TRUE(node.buddy().allocateExact(
            r * 64 + 3, 0, Migratetype::Unmovable, client.id));
    }
    MemoryNode::Request req;
    req.order = 6;
    req.client = client.id;
    req.mayCompact = true;
    AllocOutcome out = node.allocate(req);
    EXPECT_FALSE(out.success);
    EXPECT_EQ(out.compactionFailures, 1u);
    EXPECT_EQ(node.compactionFails.value(), 1u);
}

TEST(MemoryNode, StatsRegistration)
{
    MemoryNode node(smallNode());
    StatSet stats("s");
    node.registerStats(stats, "node");
    EXPECT_TRUE(stats.has("node.compactionRuns"));
    EXPECT_TRUE(stats.has("node.buddy.allocCalls"));
}
