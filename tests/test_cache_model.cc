/**
 * @file
 * Multi-level cache model tests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <vector>

#include "tlb/cache_model.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/units.hh"

using namespace gpsm;
using namespace gpsm::tlb;

namespace
{

CacheModel
twoLevel()
{
    return CacheModel({CacheLevelConfig{"l1", 1024, 2, 64, 4},
                       CacheLevelConfig{"l2", 4096, 4, 64, 12}},
                      100);
}

} // namespace

TEST(CacheModel, ColdMissCostsMemoryLatency)
{
    CacheModel c = twoLevel();
    EXPECT_EQ(c.access(0x1000, 0), 100u);
    EXPECT_EQ(c.memoryAccesses(), 1u);
}

TEST(CacheModel, HitAfterFillCostsL1)
{
    CacheModel c = twoLevel();
    c.access(0x1000, 0);
    EXPECT_EQ(c.access(0x1000, 0), 4u);
    EXPECT_EQ(c.hitsAt(0), 1u);
    // Same line, different byte: still a hit.
    EXPECT_EQ(c.access(0x1010, 0), 4u);
}

TEST(CacheModel, L2CatchesL1Evictions)
{
    CacheModel c = twoLevel();
    // L1: 1KiB/64B = 16 lines, 2-way, 8 sets. Lines 0x0000, 0x2000,
    // 0x4000 collide in set 0 of L1 but spread over L2's 16 sets.
    c.access(0x0000, 0);
    c.access(0x2000, 0);
    c.access(0x4000, 0); // evicts 0x0000 from L1
    const std::uint32_t lat = c.access(0x0000, 0);
    EXPECT_EQ(lat, 12u); // L2 hit
    EXPECT_EQ(c.hitsAt(1), 1u);
}

TEST(CacheModel, LruWithinSet)
{
    CacheModel c = twoLevel();
    c.access(0x0000, 0);
    c.access(0x2000, 0);
    c.access(0x0000, 0);  // make 0x2000 the L1 victim
    c.access(0x4000, 0);
    EXPECT_EQ(c.access(0x0000, 0), 4u); // still in L1
}

TEST(CacheModel, FlushAllEmpties)
{
    CacheModel c = twoLevel();
    c.access(0x1000, 0);
    c.flushAll();
    EXPECT_EQ(c.access(0x1000, 0), 100u);
}

TEST(CacheModel, SequentialStreamHasPerLineMisses)
{
    CacheModel c = twoLevel();
    std::uint64_t misses_cost = 0;
    for (Addr a = 0; a < 64 * 64; a += 8)
        misses_cost += c.access(a, 0) == 100 ? 1 : 0;
    // One miss per 64B line.
    EXPECT_EQ(misses_cost, 64u);
}

TEST(CacheModel, StatsRegistration)
{
    CacheModel c = twoLevel();
    StatSet stats("s");
    c.registerStats(stats, "cache");
    EXPECT_TRUE(stats.has("cache.accesses"));
    EXPECT_TRUE(stats.has("cache.l1.hits"));
    EXPECT_TRUE(stats.has("cache.l2.hits"));
}

TEST(CacheModel, AccessRunMatchesLoop)
{
    // Twin caches: one driven by accessRun, one by the per-element
    // loop it batches. Counters, summed latency and subsequent
    // behaviour must be indistinguishable.
    for (const std::size_t stride : {8ul, 24ul, 64ul, 200ul}) {
        CacheModel bulk = twoLevel();
        CacheModel loop = twoLevel();
        const Addr start = 0x1234; // unaligned on purpose
        const std::uint64_t n = 500;

        std::uint64_t loop_cycles = 0;
        for (std::uint64_t j = 0; j < n; ++j)
            loop_cycles += loop.access(start + j * stride, 0);
        const std::uint64_t bulk_cycles =
            bulk.accessRun(start, stride, n, 0);

        EXPECT_EQ(bulk_cycles, loop_cycles) << "stride " << stride;
        EXPECT_EQ(bulk.accesses.value(), loop.accesses.value());
        EXPECT_EQ(bulk.memoryAccesses(), loop.memoryAccesses());
        EXPECT_EQ(bulk.hitsAt(0), loop.hitsAt(0));
        EXPECT_EQ(bulk.hitsAt(1), loop.hitsAt(1));

        // LRU state must match too: replay a conflicting probe
        // sequence and require identical outcomes.
        for (Addr a = 0; a < 64 * 128; a += 32)
            EXPECT_EQ(bulk.access(a, 0), loop.access(a, 0));
        EXPECT_EQ(bulk.hitsAt(0), loop.hitsAt(0));
        EXPECT_EQ(bulk.memoryAccesses(), loop.memoryAccesses());
    }
}

TEST(CacheModel, AccessRunAfterFlush)
{
    CacheModel c = twoLevel();
    c.access(0x0, 0);
    c.flushAll();
    // 64 lines of 8 elements: one full miss each, 7 L1 hits each.
    const std::uint64_t cycles = c.accessRun(0, 8, 512, 0);
    EXPECT_EQ(cycles, 64u * 100 + 448u * 4);
    EXPECT_EQ(c.memoryAccesses(), 65u);
    EXPECT_EQ(c.hitsAt(0), 448u);
}

TEST(CacheModel, BadGeometryIsFatal)
{
    EXPECT_THROW(CacheModel({CacheLevelConfig{"x", 1000, 3, 64, 1}},
                            10),
                 FatalError);
    EXPECT_THROW(CacheModel({}, 10), FatalError);
}

// Differential test: CacheModel (stamped lines, single-pass probe,
// per-tag last-line hints) against a reference written separately
// from it — one std::list per set in recency order (most recent
// first), a linear search, no stamps and no tags. Both are driven by
// the same tagged stream of access, accessRun and flushAll; after
// every operation the returned cycles and every counter must agree.

namespace
{

/** Naive inclusive-fill LRU hierarchy. */
class ReferenceCache
{
  public:
    ReferenceCache(const std::vector<CacheLevelConfig> &levels,
                   std::uint32_t memory_cycles)
        : memCycles(memory_cycles)
    {
        for (const CacheLevelConfig &cfg : levels) {
            RefLevel lvl{cfg, {}, 0};
            lvl.sets.resize(cfg.bytes / cfg.lineBytes / cfg.ways);
            lvls.push_back(std::move(lvl));
        }
    }

    std::uint64_t
    access(Addr addr, std::uint32_t miss_extra)
    {
        ++accesses;
        size_t hit = lvls.size();
        for (size_t i = 0; i < lvls.size(); ++i) {
            std::list<std::uint64_t> &set = setOf(i, addr);
            const std::uint64_t block = addr / lvls[i].cfg.lineBytes;
            auto it = std::find(set.begin(), set.end(), block);
            if (it != set.end()) {
                set.splice(set.begin(), set, it);
                hit = i;
                break;
            }
        }
        for (size_t i = 0; i < hit; ++i) {
            std::list<std::uint64_t> &set = setOf(i, addr);
            if (set.size() == lvls[i].cfg.ways)
                set.pop_back();
            set.push_front(addr / lvls[i].cfg.lineBytes);
        }
        if (hit == lvls.size()) {
            ++memoryAccesses;
            return memCycles + miss_extra;
        }
        ++lvls[hit].hits;
        return lvls[hit].cfg.hitCycles;
    }

    std::uint64_t
    accessRun(Addr start, std::size_t stride, std::uint64_t n,
              std::uint32_t miss_extra)
    {
        std::uint64_t cycles = 0;
        for (std::uint64_t j = 0; j < n; ++j)
            cycles += access(start + j * stride, miss_extra);
        return cycles;
    }

    void
    flushAll()
    {
        for (RefLevel &lvl : lvls)
            for (std::list<std::uint64_t> &set : lvl.sets)
                set.clear();
    }

    std::uint64_t accesses = 0;
    std::uint64_t memoryAccesses = 0;
    std::uint64_t hitsAt(size_t i) const { return lvls[i].hits; }

  private:
    struct RefLevel
    {
        CacheLevelConfig cfg;
        std::vector<std::list<std::uint64_t>> sets;
        std::uint64_t hits;
    };

    std::list<std::uint64_t> &
    setOf(size_t i, Addr addr)
    {
        RefLevel &lvl = lvls[i];
        return lvl.sets[(addr / lvl.cfg.lineBytes) % lvl.sets.size()];
    }

    std::vector<RefLevel> lvls;
    std::uint32_t memCycles;
};

/** The three geometries the differential test runs under. */
struct Geometry
{
    const char *name;
    std::vector<CacheLevelConfig> levels;
    std::uint32_t memoryCycles;
};

std::vector<Geometry>
geometries()
{
    return {
        // SystemConfig::scaled()
        {"scaled",
         {CacheLevelConfig{"l1d", 16_KiB, 8, 64, 4},
          CacheLevelConfig{"l2", 128_KiB, 8, 64, 12},
          CacheLevelConfig{"llc", 2_MiB, 16, 64, 42}},
         200},
        // SystemConfig::paper(): a 20-way LLC
        {"paper",
         {CacheLevelConfig{"l1d", 32_KiB, 8, 64, 4},
          CacheLevelConfig{"l2", 256_KiB, 8, 64, 12},
          CacheLevelConfig{"llc", 20_MiB, 20, 64, 42}},
         220},
        {"one-level-2way", {CacheLevelConfig{"l1", 1_KiB, 2, 64, 4}},
         100},
    };
}

/** Drives a CacheModel and a ReferenceCache in lockstep. */
class Twins
{
  public:
    explicit Twins(const Geometry &g)
        : model(g.levels, g.memoryCycles), ref(g.levels, g.memoryCycles),
          nlevels(g.levels.size())
    {
    }

    /** @return the model's cycles, after checking them. */
    std::uint64_t
    access(Addr addr, unsigned tag, std::uint32_t extra = 0)
    {
        const std::uint64_t got = model.access(addr, tag, extra);
        EXPECT_EQ(got, ref.access(addr, extra))
            << "access " << addr << " tag " << tag;
        expectCounters();
        return got;
    }

    void
    accessRun(Addr start, std::size_t stride, std::uint64_t n,
              unsigned tag, std::uint32_t extra = 0)
    {
        const std::uint64_t got =
            model.accessRun(start, stride, n, tag, extra);
        EXPECT_EQ(got, ref.accessRun(start, stride, n, extra))
            << "run " << start << "+" << stride << "x" << n << " tag "
            << tag;
        expectCounters();
    }

    void
    flushAll()
    {
        model.flushAll();
        ref.flushAll();
    }

    void
    expectCounters()
    {
        EXPECT_EQ(model.accesses.value(), ref.accesses);
        EXPECT_EQ(model.memoryAccesses(), ref.memoryAccesses);
        for (size_t i = 0; i < nlevels; ++i)
            EXPECT_EQ(model.hitsAt(i), ref.hitsAt(i)) << "level " << i;
    }

    CacheModel model;
    ReferenceCache ref;
    size_t nlevels;
};

/** Line span of one set index round at level @p cfg (bytes). */
std::uint64_t
setSpan(const CacheLevelConfig &cfg)
{
    return cfg.bytes / cfg.ways;
}

} // namespace

TEST(CacheModelDifferential, RandomTaggedStreams)
{
    for (const Geometry &g : geometries()) {
        SCOPED_TRACE(g.name);
        Twins t(g);
        // A pool of lines that conflict at every level (strides of the
        // LLC's and L1's set span over a handful of set indices), with
        // more lines per conflict group than the largest way count, so
        // evictions happen at every level.
        std::vector<Addr> pool;
        const std::uint64_t max_ways = g.levels.back().ways + 6;
        for (const std::uint64_t span :
             {setSpan(g.levels.front()), setSpan(g.levels.back())})
            for (std::uint64_t c = 0; c < max_ways; ++c)
                for (const std::uint64_t s : {0u, 1u, 7u})
                    pool.push_back(c * span + s * 64);
        Rng rng(0x5eed ^ g.levels.size());
        Addr last[CacheModel::numTags] = {};
        for (int op = 0; op < 20000 && !HasFailure(); ++op) {
            const unsigned tag =
                static_cast<unsigned>(rng.below(CacheModel::numTags));
            const std::uint64_t kind = rng.below(100);
            // Half the probes repeat the tag's previous line, as an
            // array stream does, so the hints are exercised.
            const Addr line = rng.below(2) == 0
                                  ? last[tag] & ~Addr(63)
                                  : pool[rng.below(pool.size())];
            const Addr addr = line + rng.below(64);
            const std::uint32_t extra =
                static_cast<std::uint32_t>(rng.below(3)) * 50;
            if (kind < 1) {
                t.flushAll();
            } else if (kind < 15) {
                static const std::size_t strides[] = {4, 8, 24, 64, 200};
                t.accessRun(addr, strides[rng.below(5)],
                            1 + rng.below(40), tag, extra);
            } else {
                t.access(addr, tag, extra);
            }
            last[tag] = addr;
        }
        EXPECT_GT(t.model.hitsAt(0), 0u);
        EXPECT_GT(t.model.memoryAccesses(), 0u);
        for (size_t i = 1; i < g.levels.size(); ++i)
            EXPECT_GT(t.model.hitsAt(i), 0u) << "level " << i;
    }
}

TEST(CacheModelDifferential, HintedLineRefilledByAnotherTag)
{
    // One set of a 1-level 2-way cache (8 sets of 64 B: set span
    // 512 B). Tag 0's hint is left on way 0; tag 1 then evicts that
    // line and refills the same way with a different block.
    const Geometry g = geometries()[2];
    Twins t(g);
    const Addr a = 0x0000, b = 0x0200, c = 0x0400;
    t.access(a, 0); // miss: way 0 <- a, tag 0 hints way 0
    t.access(b, 1); // miss: way 1 <- b
    t.access(c, 1); // miss: evicts a (LRU), way 0 <- c
    // Tag 0's hinted way now holds c: a must miss, not hit.
    EXPECT_EQ(t.access(a, 0), 100u);
    // And a probe of c under tag 0 is a genuine hit (c is resident).
    t.access(c, 0);
    EXPECT_EQ(t.model.hitsAt(0), 1u);
}

TEST(CacheModelDifferential, HintedBlockReturnsInAnotherWay)
{
    const Geometry g = geometries()[2];
    Twins t(g);
    const Addr a = 0x0000, b = 0x0200, c = 0x0400;
    t.access(a, 0); // way 0 <- a; tag 0 hints way 0
    t.access(b, 1); // way 1 <- b
    t.access(c, 1); // evicts a: way 0 <- c
    t.access(a, 1); // evicts b: way 1 <- a
    // a is resident again, in way 1; tag 0's hint (way 0) holds c.
    EXPECT_EQ(t.access(a + 8, 0), 4u);
    // The LRU order must be the scan's: c is now the victim.
    t.access(b, 2);
    t.access(a, 0);
    t.access(c, 0);
    EXPECT_EQ(t.model.memoryAccesses(), 6u);
}

TEST(CacheModelDifferential, FlushInvalidatesHints)
{
    const Geometry g = geometries()[2];
    Twins t(g);
    t.access(0x40, 3);
    t.flushAll();
    t.access(0x40, 3); // hinted line has stamp 0: a miss
    EXPECT_EQ(t.model.memoryAccesses(), 2u);
    t.flushAll();
    // The first fill after a flush lands in the hinted way with
    // another block; a hint match on it is a real hit.
    t.access(0x240, 4);
    t.access(0x240, 3);
    EXPECT_EQ(t.model.hitsAt(0), 1u);
    // A tag that never probed starts on L1 line 0, which is invalid
    // here: block 0 must miss.
    t.access(0x0, 7);
    EXPECT_EQ(t.model.memoryAccesses(), 4u);
}
