/**
 * @file
 * Direct-compaction tests: candidate choice, feasibility, migration
 * bookkeeping.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/compactor.hh"
#include "mem/memory_node.hh"
#include "util/units.hh"

using namespace gpsm;
using namespace gpsm::mem;

namespace
{

MemoryNode::Params
smallNode()
{
    MemoryNode::Params p;
    p.bytes = 4_MiB;
    p.basePageBytes = 4_KiB;
    p.hugeOrder = 6;
    return p;
}

class Tracker : public PageClient
{
  public:
    explicit Tracker(MemoryNode &node) : node(node)
    {
        id = node.registerClient(this);
    }

    void
    place(FrameNum frame, Migratetype mt = Migratetype::Movable)
    {
        ASSERT_TRUE(node.buddy().allocateExact(frame, 0, mt, id));
        frames.push_back(frame);
    }

    void
    migratePage(FrameNum from, FrameNum to) override
    {
        for (FrameNum &f : frames)
            if (f == from)
                f = to;
        log.emplace_back(from, to);
    }

    const char *clientName() const override { return "tracker"; }

    MemoryNode &node;
    std::uint16_t id = 0;
    std::vector<FrameNum> frames;
    std::vector<std::pair<FrameNum, FrameNum>> log;
};

} // namespace

TEST(Compactor, PicksCheapestRegion)
{
    MemoryNode node(smallNode());
    Tracker t(node);
    Compactor compactor(node);

    // Region 0: 3 movable pages. Region 1: 1 movable page. Poison all
    // other regions with an unmovable page so only 0 and 1 qualify.
    t.place(3);
    t.place(17);
    t.place(40);
    t.place(64 + 9);
    for (std::uint64_t r = 2; r < 16; ++r)
        ASSERT_TRUE(node.buddy().allocateExact(
            r * 64, 0, Migratetype::Unmovable, t.id));

    auto res = compactor.createHugeRegion();
    ASSERT_TRUE(res.success);
    EXPECT_EQ(res.regionHead, 64u); // the 1-page region is cheaper
    EXPECT_EQ(res.migratedPages, 1u);
    ASSERT_EQ(t.log.size(), 1u);
    EXPECT_EQ(t.log[0].first, 64u + 9);
    // Destination must be outside the compacted region.
    EXPECT_TRUE(t.log[0].second < 64 || t.log[0].second >= 128);
    // The region is now one free huge block.
    EXPECT_GE(node.freeHugeRegions(), 1u);
}

TEST(Compactor, SkipsRegionsWithPinnedPages)
{
    MemoryNode node(smallNode());
    Tracker t(node);
    Compactor compactor(node);

    for (std::uint64_t r = 0; r < 16; ++r) {
        const Migratetype mt =
            r == 5 ? Migratetype::Movable : Migratetype::Pinned;
        ASSERT_TRUE(node.buddy().allocateExact(r * 64 + 1, 0, mt,
                                               t.id));
        if (r == 5)
            t.frames.push_back(r * 64 + 1);
    }
    auto res = compactor.createHugeRegion();
    ASSERT_TRUE(res.success);
    EXPECT_EQ(res.regionHead, 5u * 64);
}

TEST(Compactor, FailsWhenEveryRegionIsPoisoned)
{
    MemoryNode node(smallNode());
    Tracker t(node);
    Compactor compactor(node);
    for (std::uint64_t r = 0; r < 16; ++r)
        ASSERT_TRUE(node.buddy().allocateExact(
            r * 64 + 1, 0, Migratetype::Unmovable, t.id));
    auto res = compactor.createHugeRegion();
    EXPECT_FALSE(res.success);
    EXPECT_EQ(res.migratedPages, 0u);
}

TEST(Compactor, FailsWithoutRoomForEvacuees)
{
    // Node with exactly 2 regions: one full of movable pages, the
    // other with a single unmovable page. No free space to evacuate
    // into -> compaction infeasible.
    MemoryNode::Params p = smallNode();
    p.bytes = 2 * 256 * 1024;
    MemoryNode node(p);
    Tracker t(node);
    Compactor compactor(node);

    for (FrameNum f = 0; f < 64; ++f)
        t.place(f);
    ASSERT_TRUE(node.buddy().allocateExact(64 + 9, 0,
                                           Migratetype::Unmovable,
                                           t.id));
    // Free space = 63 frames, all inside the poisoned region.
    auto res = compactor.createHugeRegion();
    EXPECT_FALSE(res.success);
}

TEST(Compactor, GoldenCountersOnHandBuiltFragmentation)
{
    // Fully hand-computed scenario: every buddy event counter and both
    // migration destinations are asserted exactly, so any change to
    // split/coalesce decisions, free-list discipline (LIFO), candidate
    // choice or reservation order — however subtly it preserves the
    // end state — fails here.
    MemoryNode node(smallNode()); // 1024 frames, 16 order-6 regions
    Tracker t(node);
    Compactor compactor(node);
    BuddyAllocator &b = node.buddy();

    const std::uint64_t calls0 = b.allocCalls.value();
    const std::uint64_t splits0 = b.splits.value();
    ASSERT_EQ(b.merges.value(), 0u);

    // Poison every region but 5 with one unmovable page at offset 1
    // (each costs one order-6 -> order-0 split chain: 6 splits), then
    // scatter two movable pages in region 5: frame 329 splits 6 times,
    // frame 364 lands in the order-5 remainder and splits 5 times.
    for (std::uint64_t r = 0; r < 16; ++r) {
        if (r != 5) {
            ASSERT_TRUE(b.allocateExact(r * 64 + 1, 0,
                                        Migratetype::Unmovable, t.id));
        }
    }
    t.place(320 + 9);
    t.place(320 + 44);
    EXPECT_EQ(b.allocCalls.value() - calls0, 17u);
    EXPECT_EQ(b.splits.value() - splits0, 15u * 6 + 6 + 5);
    EXPECT_EQ(b.merges.value(), 0u);
    EXPECT_EQ(b.freeFrames(), 1024u - 15 - 2);

    auto res = compactor.createHugeRegion();
    ASSERT_TRUE(res.success);
    EXPECT_EQ(res.regionHead, 5u * 64);
    EXPECT_EQ(res.migratedPages, 2u);

    // Region 5 held 10 free fragments around the two movable pages;
    // reserving each is one exact allocation with no split (eager
    // coalescing left each fragment maximal), and the two evacuees
    // each claim the LIFO head of the order-0 free list — the low
    // frames freed by the r=15 and r=14 poison splits.
    EXPECT_EQ(b.allocCalls.value() - calls0, 17u + 10 + 2);
    EXPECT_EQ(b.splits.value() - splits0, 101u);
    ASSERT_EQ(t.log.size(), 2u);
    EXPECT_EQ(t.log[0].first, 329u);
    EXPECT_EQ(t.log[0].second, 960u);
    EXPECT_EQ(t.log[1].first, 364u);
    EXPECT_EQ(t.log[1].second, 896u);

    // Rebuilding the region from its 12 blocks takes exactly 11
    // pairwise merges (a full binary-tree rebuild), and compaction
    // must not change the free-frame total.
    EXPECT_EQ(b.merges.value(), 11u);
    EXPECT_EQ(b.freeFrames(), 1024u - 15 - 2);
    EXPECT_EQ(b.freeBlocksAt(6), 1u);
    b.checkInvariants();
}

TEST(Compactor, EvacuatesMultiplePagesAndCoalesces)
{
    MemoryNode node(smallNode());
    Tracker t(node);
    Compactor compactor(node);

    // Poison all but region 2; scatter 10 movable pages there.
    for (std::uint64_t r = 0; r < 16; ++r) {
        if (r != 2) {
            ASSERT_TRUE(node.buddy().allocateExact(
                r * 64 + 1, 0, Migratetype::Unmovable, t.id));
        }
    }
    for (FrameNum i = 0; i < 10; ++i)
        t.place(2 * 64 + i * 6);

    const std::uint64_t free_before = node.buddy().freeFrames();
    auto res = compactor.createHugeRegion();
    ASSERT_TRUE(res.success);
    EXPECT_EQ(res.regionHead, 2u * 64);
    EXPECT_EQ(res.migratedPages, 10u);
    EXPECT_EQ(t.log.size(), 10u);
    // Compaction moves pages; it must not change the free total.
    EXPECT_EQ(node.buddy().freeFrames(), free_before);
    node.buddy().checkInvariants();

    // All ten pages still owned, now outside region 2.
    for (FrameNum f : t.frames)
        EXPECT_TRUE(f < 128 || f >= 192);
}
