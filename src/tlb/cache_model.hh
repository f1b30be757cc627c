/**
 * @file
 * Multi-level set-associative data cache model.
 *
 * Captures the on-chip locality effects that accompany the paper's
 * reordering optimization (DBG improves both cache and TLB behaviour,
 * §5.2 "any other improvement ... is present in the baseline and with
 * our page management strategy"). Indexed by whatever address the
 * caller passes (tlb::Mmu passes the virtual address); LRU per set.
 */

#ifndef GPSM_TLB_CACHE_MODEL_HH
#define GPSM_TLB_CACHE_MODEL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/logging.hh"
#include "util/stats.hh"
#include "util/units.hh"

namespace gpsm::tlb
{

/** Geometry and latency of one cache level. */
struct CacheLevelConfig
{
    std::string name = "cache";
    std::uint64_t bytes = 32 * 1024;
    std::uint32_t ways = 8;
    std::uint32_t lineBytes = 64;
    std::uint32_t hitCycles = 4;
};

/**
 * Non-inclusive multi-level cache. access() probes L1..Ln in order and
 * returns the cycles of the first hit (or the memory latency on a full
 * miss), filling every level above the hit on the way back. Nothing
 * back-invalidates and a hit restamps only its own level, so an outer
 * level may evict a line that an inner level still holds.
 */
class CacheModel
{
  public:
    /**
     * @param levels L1 first.
     * @param memory_cycles Latency charged on a full miss.
     */
    CacheModel(std::vector<CacheLevelConfig> levels,
               std::uint32_t memory_cycles);

    // The hints point into this model's L1 line array; a copy would
    // aim them at the source's.
    CacheModel(const CacheModel &) = delete;
    CacheModel &operator=(const CacheModel &) = delete;

    /** Number of access tags, one last-line hint each (Mmu's too). */
    static constexpr unsigned numTags = 8;

    /**
     * Probe with an address on behalf of access tag @p tag (one per
     * simulated array); @return latency in cycles.
     * @p miss_extra_cycles is added only on a full miss — the hook
     * through which the remote-DRAM tier charges its interconnect
     * penalty (a hit at any level never pays it, since the line is
     * already on-chip).
     *
     * The tag only selects a last-line hint: the L1 line that served
     * the tag's previous probe. If that line still holds this block it
     * is an L1 hit, accounted here without a set scan; otherwise the
     * out-of-line probe() runs. Counters, latency and LRU state are
     * exactly those of the scan, whatever the tag.
     */
    std::uint32_t access(Addr addr, unsigned tag,
                         std::uint32_t miss_extra_cycles = 0);

    /**
     * Probe @p n strided addresses starting at @p start and @return
     * the summed latency. Counter and LRU state are exactly those of
     * n access() calls (asserted by tests/test_cache_model): after a
     * line's first probe, the following elements of the same L1 line
     * are guaranteed L1 hits — nothing intervenes within the run — so
     * they are accounted in one step per line instead of one set scan
     * per element. @p miss_extra_cycles applies per full miss, i.e. to
     * leading line probes only (trailing same-line elements are L1
     * hits by construction). @p tag is as for access().
     */
    std::uint64_t accessRun(Addr start, std::size_t stride,
                            std::uint64_t n, unsigned tag,
                            std::uint32_t miss_extra_cycles = 0);

    /** Drop all lines (used between experiment phases). */
    void flushAll();

    void registerStats(StatSet &stats, const std::string &prefix) const;

    size_t levels() const { return lvls.size(); }
    std::uint64_t hitsAt(size_t level) const
    {
        return lvls[level].hits.value();
    }
    std::uint64_t memoryAccesses() const { return misses.value(); }

    Counter accesses;
    Counter misses; ///< accesses that reached memory

  private:
    /**
     * stamp == 0 marks the line invalid: stampCounter is never reset
     * (flushAll only zeroes line stamps), so a resident line always
     * carries a nonzero, set-unique stamp. Folding validity into the
     * stamp keeps the line at 16 bytes — the set scan is the hottest
     * loop in the simulator.
     */
    struct Line
    {
        std::uint64_t tag = 0;
        std::uint64_t stamp = 0;
    };

    struct Level
    {
        CacheLevelConfig cfg;
        std::uint32_t sets = 0;
        unsigned lineShift = 0;
        std::vector<Line> arr;
        mutable Counter hits;

        Line *
        set(std::uint64_t block)
        {
            return &arr[(block & (sets - 1)) *
                        static_cast<std::uint64_t>(cfg.ways)];
        }
    };

    /** Upper bound on configured levels (victim scratch in probe). */
    static constexpr size_t maxLevels = 8;

    /**
     * Out-of-line single-pass probe of every level: counts the access,
     * fills the levels above the hit point, and points hints[tag] at
     * the L1 line it hit or filled.
     */
    std::uint32_t probe(Addr addr, unsigned tag,
                        std::uint32_t miss_extra_cycles);

    std::vector<Level> lvls;
    std::uint32_t memCycles;
    std::uint64_t stampCounter = 0;

    /**
     * Per-tag last L1 line. Any L1 line is a safe initial hint: a line
     * matches only if it holds the probed block and is valid, and a
     * valid line holding the block *is* its one L1 copy. So nothing
     * needs to invalidate a hint — an eviction refills the way with
     * another block, flushAll zeroes the stamp — and a matching hint
     * is exactly the hit the set scan would find.
     */
    Line *hints[numTags] = {};
};

inline std::uint32_t
CacheModel::access(Addr addr, unsigned tag,
                   std::uint32_t miss_extra_cycles)
{
    GPSM_ASSERT(tag < numTags);
    Level &l1 = lvls[0];
    Line *hint = hints[tag];
    if ((hint->tag == addr >> l1.lineShift) & (hint->stamp != 0)) {
        ++accesses;
        ++l1.hits;
        hint->stamp = ++stampCounter;
        return l1.cfg.hitCycles;
    }
    return probe(addr, tag, miss_extra_cycles);
}

} // namespace gpsm::tlb

#endif // GPSM_TLB_CACHE_MODEL_HH
