/**
 * @file
 * Page cache model tests: staged single-use input data (paper §4.3) in
 * the machine-wide AddressSpaceCache.
 */

#include <gtest/gtest.h>

#include "core/machine.hh"
#include "mem/addr_space_cache.hh"
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

} // namespace

TEST(PageCache, ByteAccountingIsExact)
{
    MemoryNode node(smallNode());
    AddressSpaceCache cache(node);
    const FileId file = cache.createFile("input-files");
    // 5000 bytes occupy two frames but cache exactly 5000 bytes: the
    // final page is clamped to the requested size instead of being
    // over-reported as a whole page.
    const AddressSpaceCache::PopulateResult first =
        cache.populate(file, 0, 5000);
    EXPECT_EQ(first.bytes, 5000u);
    EXPECT_EQ(first.pages, 2u);
    EXPECT_EQ(cache.residentPagesOf(file), 2u);
    EXPECT_EQ(cache.residentBytesOf(file), 5000u);
    EXPECT_EQ(cache.pagesCached.value(), 2u);
    cache.checkInvariants();

    // A follow-up load starts on a fresh page (no partial-page
    // sharing), and page-aligned loads report exactly what they ask.
    EXPECT_EQ(cache.populate(file, first.pages, 8192).bytes, 8192u);
    EXPECT_EQ(cache.residentPagesOf(file), 4u);
    EXPECT_EQ(cache.residentBytesOf(file), 5000u + 8192u);
    cache.checkInvariants();
}

TEST(PageCache, MachineStagingStartsEachLoadOnAFreshPage)
{
    core::SystemConfig cfg = core::SystemConfig::scaled();
    cfg.node.bytes = 32_MiB;
    core::SimMachine m(cfg, vm::ThpConfig::never());
    const std::uint64_t page = cfg.node.basePageBytes;
    EXPECT_EQ(m.stageInputFiles(5000), 5000u);
    EXPECT_EQ(m.stageInputFiles(2 * page), 2 * page);
    EXPECT_EQ(m.stagedInputBytes(), 5000u + 2 * page);
    // 5000 bytes take two pages, the second load two more of its own.
    EXPECT_EQ(m.fileCache().residentPages(),
              (5000 + page - 1) / page + 2);
    m.fileCache().checkInvariants();
}

TEST(PageCache, StopsAtExhaustionWithoutEscalating)
{
    MemoryNode node(smallNode());
    AddressSpaceCache cache(node);
    const FileId file = cache.createFile("input-files");
    // Ask for double the node: caching is best effort.
    EXPECT_EQ(cache.populate(file, 0, 8_MiB).bytes, 4_MiB);
    EXPECT_EQ(node.freeBytes(), 0u);
}

TEST(PageCache, ReclaimIsFifoAndBounded)
{
    MemoryNode node(smallNode());
    AddressSpaceCache cache(node);
    const FileId file = cache.createFile("input-files");
    cache.populate(file, 0, 16 * 4096);
    // Staged pages are never touched, so CLOCK evicts in insertion
    // order: the first four pages go first.
    EXPECT_EQ(cache.reclaim(4), 4u);
    EXPECT_EQ(cache.residentPagesOf(file), 12u);
    for (std::uint64_t i = 0; i < 16; ++i)
        EXPECT_EQ(cache.isResident(file, i), i >= 4) << "page " << i;
    cache.checkInvariants();
    EXPECT_EQ(cache.reclaim(100), 12u);
    EXPECT_EQ(cache.residentPagesOf(file), 0u);
    EXPECT_EQ(cache.reclaim(1), 0u);
    cache.checkInvariants();
}

TEST(PageCache, DropAllFreesEverything)
{
    MemoryNode node(smallNode());
    AddressSpaceCache cache(node);
    const FileId file = cache.createFile("input-files");
    cache.populate(file, 0, 1_MiB);
    EXPECT_EQ(cache.dropFile(file), 1_MiB / 4096);
    EXPECT_EQ(cache.residentPagesOf(file), 0u);
    EXPECT_EQ(cache.residentBytesOf(file), 0u);
    EXPECT_EQ(node.freeBytes(), node.totalBytes());
    node.buddy().checkInvariants();
}

TEST(PageCache, SurvivesMigrationDuringCompaction)
{
    MemoryNode node(smallNode());
    AddressSpaceCache cache(node);
    const FileId file = cache.createFile("input-files");

    // Leave exactly two usable regions: pin 14 regions wholesale,
    // poison one more with a single unmovable page, and put 20 cache
    // pages in the last one. A huge request must then compact the
    // cache-holding region, migrating its pages into the poisoned
    // region's free frames.
    std::vector<FrameNum> pinned;
    for (int i = 0; i < 14; ++i) {
        FrameNum f = node.buddy().allocate(6, Migratetype::Pinned, 0);
        ASSERT_NE(f, invalidFrame);
        pinned.push_back(f);
    }
    cache.populate(file, 0, 20 * 4096);
    const std::uint64_t pages_before = cache.residentPagesOf(file);
    // Poison whichever region is still fully free.
    FrameNum poison = invalidFrame;
    for (FrameNum r = 0; r < 16; ++r) {
        auto s = node.buddy().summarizeRegion(r * 64);
        if (s.freeFrames == 64) {
            poison = r * 64 + 5;
            break;
        }
    }
    ASSERT_NE(poison, invalidFrame);
    ASSERT_TRUE(node.buddy().allocateExact(poison, 0,
                                           Migratetype::Unmovable, 0));
    EXPECT_EQ(node.freeHugeRegions(), 0u);

    MemoryNode::Request req;
    req.order = 6;
    req.mayCompact = true;
    req.mayReclaim = false;
    AllocOutcome out = node.allocate(req);
    ASSERT_TRUE(out.success);
    EXPECT_EQ(out.migratedPages, 20u);
    EXPECT_EQ(cache.residentPagesOf(file), pages_before);
    // Migration fixup regression: the moved pages were retargeted
    // in place (no stale entries, no unbounded policy growth), so
    // the structural invariants — policy size == resident pages ==
    // frame-map size — still hold after compaction.
    cache.checkInvariants();
    // The cache can still reclaim everything it owns.
    EXPECT_EQ(cache.reclaim(~0ull), pages_before);
    cache.checkInvariants();
    node.free(out.frame);
    node.buddy().checkInvariants();
}

TEST(PageCache, SingleUseInterferenceScenario)
{
    // The paper's §4.3 scenario at miniature scale: the page cache
    // eats free memory during loading, so a later huge-page fault
    // without reclaim rights fails even though the data is single-use.
    MemoryNode node(smallNode());
    AddressSpaceCache cache(node);
    const FileId file = cache.createFile("input-files");
    cache.populate(file, 0, node.totalBytes());

    MemoryNode::Request huge;
    huge.order = 6;
    huge.mayReclaim = false;
    huge.mayCompact = false;
    EXPECT_FALSE(node.allocate(huge).success);

    // With reclaim (drop_caches semantics) the same request succeeds.
    huge.mayReclaim = true;
    AllocOutcome out = node.allocate(huge);
    EXPECT_TRUE(out.success);
    EXPECT_EQ(out.reclaimedPages, 64u);
}
