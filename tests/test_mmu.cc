/**
 * @file
 * MMU tests: two-level lookup flow, walk/fault cost accounting,
 * per-tag attribution, shootdown synchronization.
 */

#include <gtest/gtest.h>

#include "mem/memory_node.hh"
#include "mem/swap_device.hh"
#include "tlb/mmu.hh"
#include "util/units.hh"
#include "vm/address_space.hh"

using namespace gpsm;
using namespace gpsm::mem;
using namespace gpsm::tlb;
using namespace gpsm::vm;

namespace
{

constexpr std::uint64_t pageB = 4_KiB;
constexpr std::uint64_t hugeB = 256_KiB;

struct World
{
    explicit World(const ThpConfig &thp, bool with_cache = false,
                   std::uint64_t node_bytes = 16_MiB,
                   unsigned huge_order = 6,
                   std::vector<CacheLevelConfig> cache_levels = {
                       CacheLevelConfig{"l1", 16_KiB, 8, 64, 4}})
        : node(params(node_bytes, huge_order)), swap(16_MiB, pageB),
          space(node, swap, thp),
          mmu(space, Tlb("dtlb", {TlbGeometry{16, 4}, TlbGeometry{8, 4}}),
              Tlb::makeUnified("stlb", 64, 8), CostModel{},
              with_cache ? std::make_unique<CacheModel>(
                               std::move(cache_levels), 200u)
                         : nullptr)
    {
    }

    static MemoryNode::Params
    params(std::uint64_t bytes, unsigned huge_order)
    {
        MemoryNode::Params p;
        p.bytes = bytes;
        p.basePageBytes = pageB;
        p.hugeOrder = huge_order;
        return p;
    }

    MemoryNode node;
    SwapDevice swap;
    AddressSpace space;
    Mmu mmu;
};

} // namespace

TEST(Mmu, FirstAccessWalksAndFaults)
{
    World w(ThpConfig::never());
    Addr a = w.space.mmap(1_MiB, "arr");
    w.mmu.access(a, true);
    EXPECT_EQ(w.mmu.accesses.value(), 1u);
    EXPECT_EQ(w.mmu.dtlbMisses.value(), 1u);
    EXPECT_EQ(w.mmu.walks.value(), 1u);
    EXPECT_EQ(w.mmu.walksBase.value(), 1u);
    EXPECT_EQ(w.mmu.faultCycles.value(),
              w.mmu.costModel().minorFaultCycles);
}

TEST(Mmu, SecondAccessHitsDtlb)
{
    World w(ThpConfig::never());
    Addr a = w.space.mmap(1_MiB, "arr");
    w.mmu.access(a, true);
    w.mmu.access(a + 8, false);
    EXPECT_EQ(w.mmu.accesses.value(), 2u);
    EXPECT_EQ(w.mmu.dtlbMisses.value(), 1u);
    EXPECT_EQ(w.mmu.walks.value(), 1u);
}

TEST(Mmu, StlbCatchesDtlbEvictions)
{
    World w(ThpConfig::never());
    Addr a = w.space.mmap(4_MiB, "arr");
    // Touch 64 distinct pages: DTLB (16 entries) thrashes, STLB (64)
    // holds them all.
    for (int i = 0; i < 64; ++i)
        w.mmu.access(a + i * pageB, true);
    const auto walks_after_fill = w.mmu.walks.value();
    EXPECT_EQ(walks_after_fill, 64u);
    // Second sweep: no more walks, many STLB hits.
    for (int i = 0; i < 64; ++i)
        w.mmu.access(a + i * pageB, false);
    EXPECT_EQ(w.mmu.walks.value(), walks_after_fill);
    EXPECT_GT(w.mmu.stlbHits.value(), 0u);
}

TEST(Mmu, HugeMappingUsesHugeClass)
{
    World w(ThpConfig::always());
    Addr a = w.space.mmap(hugeB, "arr");
    w.mmu.access(a, true);
    EXPECT_EQ(w.mmu.walksHuge.value(), 1u);
    // Any page within the huge region now hits the DTLB huge class.
    w.mmu.access(a + 17 * pageB, false);
    EXPECT_EQ(w.mmu.accesses.value(), 2u);
    EXPECT_EQ(w.mmu.dtlbMisses.value(), 1u);
    EXPECT_EQ(w.mmu.faultCycles.value(),
              w.mmu.costModel().hugeFaultCycles(6));
}

TEST(Mmu, DtlbMissRateMetric)
{
    World w(ThpConfig::never());
    Addr a = w.space.mmap(1_MiB, "arr");
    w.mmu.access(a, true);
    w.mmu.access(a, true);
    w.mmu.access(a, true);
    w.mmu.access(a, true);
    EXPECT_DOUBLE_EQ(w.mmu.dtlbMissRate(), 0.25);
    EXPECT_DOUBLE_EQ(w.mmu.stlbMissRate(), 0.25);
}

TEST(Mmu, TagAttribution)
{
    World w(ThpConfig::never());
    Addr a = w.space.mmap(1_MiB, "arr");
    w.mmu.access(a, true, 2);
    w.mmu.access(a, true, 2);
    w.mmu.access(a + pageB, true, 4);
    EXPECT_EQ(w.mmu.tagStats(2).accesses.value(), 2u);
    EXPECT_EQ(w.mmu.tagStats(2).walks.value(), 1u);
    EXPECT_EQ(w.mmu.tagStats(4).accesses.value(), 1u);
    EXPECT_EQ(w.mmu.tagStats(4).walks.value(), 1u);
}

TEST(Mmu, CacheModelChargesMemoryCycles)
{
    World w(ThpConfig::never(), /*with_cache=*/true);
    Addr a = w.space.mmap(1_MiB, "arr");
    w.mmu.access(a, true);
    EXPECT_EQ(w.mmu.memoryCycles.value(), 200u); // cold miss
    w.mmu.access(a, false);
    EXPECT_EQ(w.mmu.memoryCycles.value(), 204u); // + L1 hit
}

TEST(Mmu, CyclesAccumulateAcrossBuckets)
{
    World w(ThpConfig::never());
    Addr a = w.space.mmap(1_MiB, "arr");
    w.mmu.access(a, true);
    const CostModel &costs = w.mmu.costModel();
    EXPECT_EQ(w.mmu.totalCycles(),
              costs.baseAccessCycles + costs.walkCyclesBase +
                  costs.minorFaultCycles);
    EXPECT_GT(w.mmu.seconds(), 0.0);
}

TEST(Mmu, DemotionShootdownInvalidatesHugeEntry)
{
    World w(ThpConfig::always());
    Addr a = w.space.mmap(hugeB, "arr");
    w.mmu.access(a, true);
    // Demote behind the MMU's back, then sync.
    w.space.demote(a);
    const auto os_before = w.mmu.osCycles.value();
    w.mmu.syncTlb();
    EXPECT_GT(w.mmu.osCycles.value(), os_before);
    // Next access misses (entry invalidated) and walks to a base page.
    const auto walks = w.mmu.walks.value();
    w.mmu.access(a, false);
    EXPECT_EQ(w.mmu.walks.value(), walks + 1);
    EXPECT_EQ(w.mmu.walksBase.value(), 1u);
}

TEST(Mmu, SwapShootdownsAreChargedDuringAccess)
{
    // Oversubscribe a tiny node so faults trigger swap-outs; the
    // shootdown events must be drained and charged automatically.
    World w(ThpConfig::never(), false, 1_MiB);
    Addr a = w.space.mmap(2_MiB, "arr");
    for (Addr off = 0; off < 2_MiB; off += pageB)
        w.mmu.access(a + off, true);
    EXPECT_GT(w.space.swapOutPages.value(), 0u);
    EXPECT_FALSE(w.space.hasPendingInvalidations());
    EXPECT_GT(w.mmu.osCycles.value(), 0u);
}

TEST(Mmu, FlushTlbsForcesRewalk)
{
    World w(ThpConfig::never());
    Addr a = w.space.mmap(1_MiB, "arr");
    w.mmu.access(a, true);
    w.mmu.flushTlbs();
    w.mmu.access(a, false);
    EXPECT_EQ(w.mmu.walks.value(), 2u);
    // But no new fault: the page stayed mapped.
    EXPECT_EQ(w.space.minorFaults.value(), 1u);
}

TEST(Mmu, StatsRegistration)
{
    World w(ThpConfig::never());
    StatSet stats("s");
    w.mmu.registerStats(stats, "mmu");
    EXPECT_TRUE(stats.has("mmu.accesses"));
    EXPECT_TRUE(stats.has("mmu.cycles.translation"));
}

// Analytic reference counts for a sequential scan over fresh memory,
// derived from the model's rules rather than from a second run:
// - the first access to a page misses both L1 size classes (one DTLB
//   miss), finds nothing in the STLB (the page was never translated,
//   so no STLB hit) and walks once, and that walk demand-faults the
//   page in (one fault of the page's size class);
// - every later access to the same page hits the L1 entry the walk
//   installed, because a sequential scan never returns to an earlier
//   page and so nothing it needs is evicted.
// Per page of P bytes scanned at stride S: P/S accesses, 1 DTLB miss,
// 1 walk, 1 fault, 0 STLB hits. translateRun must give the same
// counts as the per-element loop.

namespace
{

/**
 * Map @p pages pages of 2^@p order base pages each (order 0: base
 * pages), scan them once at @p stride — element by element, or as one
 * translateRun when @p bulk — and check the counts above.
 */
void
expectAnalyticScan(World &w, std::uint64_t pages, unsigned order,
                   std::uint64_t stride, bool bulk)
{
    const std::uint64_t page_bytes = pageB << order;
    const std::uint64_t bytes = pages * page_bytes;
    const Addr a = w.space.mmap(bytes, "arr");
    ASSERT_EQ(a % page_bytes, 0u);
    if (bulk) {
        w.mmu.translateRun(a, bytes / stride, stride, /*write=*/true);
    } else {
        for (Addr off = 0; off < bytes; off += stride)
            w.mmu.access(a + off, /*write=*/true);
    }

    const bool huge = order != 0;
    const CostModel &c = w.mmu.costModel();
    EXPECT_EQ(w.mmu.accesses.value(), bytes / stride);
    EXPECT_EQ(w.mmu.dtlbMisses.value(), pages);
    EXPECT_EQ(w.mmu.stlbHits.value(), 0u);
    EXPECT_EQ(w.mmu.walks.value(), pages);
    EXPECT_EQ(w.mmu.walksBase.value(), huge ? 0 : pages);
    EXPECT_EQ(w.mmu.walksHuge.value(), huge ? pages : 0);
    EXPECT_EQ(w.space.minorFaults.value(), huge ? 0 : pages);
    EXPECT_EQ(w.space.hugeFaults.value(), huge ? pages : 0);
    EXPECT_EQ(w.mmu.translationCycles.value(),
              pages * (huge ? c.walkCyclesHuge : c.walkCyclesBase));
    EXPECT_EQ(w.mmu.faultCycles.value(),
              pages * (huge ? c.hugeFaultCycles(order)
                            : c.minorFaultCycles));
    EXPECT_EQ(w.mmu.baseCycles.value(),
              bytes / stride * c.baseAccessCycles);
}

} // namespace

TEST(MmuAnalytic, SequentialScanOfFreshBasePages)
{
    for (const bool bulk : {false, true}) {
        SCOPED_TRACE(bulk ? "translateRun" : "per-element access");
        World w(ThpConfig::never());
        expectAnalyticScan(w, /*pages=*/64, /*order=*/0, /*stride=*/8,
                           bulk);
    }
}

TEST(MmuAnalytic, SequentialScanOfFreshHugeRegions)
{
    // 4 KiB base pages with 2 MiB huge pages (order 9), THP always,
    // over a 2 MiB-aligned VMA on a fresh node: every region's first
    // touch takes a huge fault, and the huge L1 entry then covers the
    // other 511 base pages of the region.
    for (const bool bulk : {false, true}) {
        SCOPED_TRACE(bulk ? "translateRun" : "per-element access");
        World w(ThpConfig::always(), /*with_cache=*/false, 64_MiB,
                /*huge_order=*/9);
        expectAnalyticScan(w, /*pages=*/4, /*order=*/9, /*stride=*/64,
                           bulk);
    }
}

// Analytic cache counts for sssp's edge loop: edgeTarget(e) and
// weight(e) read two arrays under two tags, alternately element by
// element. Here both arrays hold 4-byte elements and lie 128 KiB
// apart, a multiple of every level's set span in the scaled hierarchy
// (L1 16 KiB/8-way: 2 KiB; L2 128 KiB/8-way: 16 KiB; LLC 2 MiB/16-way:
// 128 KiB), so line j of one array shares its set with line j of the
// other at every level. Two passes over arrays of L lines each:
// - pass 1: each line's first element misses every level (the data
//   is cold); its other 15 elements hit L1, because the only probe
//   between two elements of one line is the other array's element,
//   whose line sits beside it in the same set;
// - pass 2 revisits 2L lines cyclically. Per set at a level with S
//   sets and W ways, 2*ceil(L/S) lines cycle; if that exceeds W, LRU
//   has evicted each line before its reuse and the level misses every
//   line, otherwise every line hits there.
// With L = 256 (16 KiB arrays): 16 lines per L1 set cycle through 8
// ways (miss), 2 per L2 set (hit). With L = 2048 (128 KiB arrays): 128
// per L1 set and 16 per L2 set miss, 2 per LLC set hit.
// So, with A = 2 passes * 2 arrays * 16 L accesses and 2L lines:
// memory accesses = 2L, hits at the pass-2 level = 2L, L1 hits =
// A - 4L, and memoryCycles = 2L * 200 + 2L * hitCycles(level) + L1
// hits * 4.

namespace
{

void
expectAnalyticEdgeWeightStream(std::uint64_t array_bytes,
                               size_t pass2_level)
{
    const std::vector<CacheLevelConfig> levels = {
        CacheLevelConfig{"l1d", 16_KiB, 8, 64, 4},
        CacheLevelConfig{"l2", 128_KiB, 8, 64, 12},
        CacheLevelConfig{"llc", 2_MiB, 16, 64, 42}};
    World w(ThpConfig::never(), /*with_cache=*/true, 16_MiB, 6, levels);
    const Addr base = w.space.mmap(2 * 128_KiB, "edges+weights");
    const Addr edges = base;
    const Addr weights = base + 128_KiB;
    const std::uint64_t n = array_bytes / 4;
    for (int pass = 0; pass < 2; ++pass) {
        for (std::uint64_t e = 0; e < n; ++e) {
            w.mmu.access(edges + 4 * e, /*write=*/false, /*tag=*/0);
            w.mmu.access(weights + 4 * e, /*write=*/false, /*tag=*/1);
        }
    }

    const std::uint64_t lines = array_bytes / 64;
    const std::uint64_t accesses = 2 * 2 * n;
    const std::uint64_t l1_hits = accesses - 4 * lines;
    const CacheModel &cache = *w.mmu.cacheModel();
    EXPECT_EQ(cache.accesses.value(), accesses);
    EXPECT_EQ(cache.memoryAccesses(), 2 * lines);
    EXPECT_EQ(cache.hitsAt(0), l1_hits);
    for (size_t lvl = 1; lvl < levels.size(); ++lvl)
        EXPECT_EQ(cache.hitsAt(lvl), lvl == pass2_level ? 2 * lines : 0)
            << levels[lvl].name;
    EXPECT_EQ(w.mmu.memoryCycles.value(),
              2 * lines * 200 +
                  2 * lines * levels[pass2_level].hitCycles +
                  l1_hits * 4);
}

} // namespace

TEST(MmuAnalytic, AlternatingEdgeWeightStreamsShareL1Sets)
{
    {
        SCOPED_TRACE("16 KiB arrays: pass 2 hits L2");
        expectAnalyticEdgeWeightStream(16_KiB, /*pass2_level=*/1);
    }
    {
        SCOPED_TRACE("128 KiB arrays: pass 2 hits the LLC");
        expectAnalyticEdgeWeightStream(128_KiB, /*pass2_level=*/2);
    }
}
