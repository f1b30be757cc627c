/**
 * @file
 * One NUMA node's physical memory: buddy allocator plus the escalation
 * machinery Linux runs when an allocation cannot be satisfied directly
 * (page-cache reclaim, direct compaction, swap-out).
 */

#ifndef GPSM_MEM_MEMORY_NODE_HH
#define GPSM_MEM_MEMORY_NODE_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "mem/buddy_allocator.hh"
#include "mem/types.hh"
#include "obs/hooks.hh"
#include "util/stats.hh"
#include "util/units.hh"

namespace gpsm::mem
{

class Compactor;

/**
 * Narrow fault-injection hook threaded through MemoryNode::allocate().
 *
 * The fault layer (fault::FaultSession) implements this to (a) apply
 * scheduled events lazily at the next allocation — the only point at
 * which changed physical-memory state becomes observable — and (b)
 * veto individual huge-order requests inside a failure window. With no
 * interceptor installed the allocation path is bit-identical to the
 * un-hooked build.
 */
class AllocationInterceptor
{
  public:
    virtual ~AllocationInterceptor() = default;

    /** Called at the top of every allocate(), before any attempt. */
    virtual void onAllocate() = 0;

    /**
     * Should this huge-order request be failed artificially? Called
     * once per huge-order allocate(); a true return fails the request
     * fast, exactly like a watermark rejection.
     */
    virtual bool dropHugeAllocation() = 0;
};

/**
 * Physical memory of one NUMA node.
 *
 * All sizes are in base pages (frames). The node is time-free: callers
 * receive an AllocOutcome describing the work performed (pages
 * migrated/reclaimed/swapped) and convert it into simulated cycles.
 */
class MemoryNode
{
  public:
    struct Params
    {
        /** Node capacity in bytes (rounded down to whole frames). */
        std::uint64_t bytes = 1_GiB;
        /** Base page size in bytes (power of two). */
        std::uint64_t basePageBytes = 4_KiB;
        /** log2(huge page / base page); 9 for x86 4KB/2MB. */
        unsigned hugeOrder = 9;
        /**
         * Huge-page allocation watermark: requests of hugeOrder fail
         * fast (no compaction, no reclaim) once satisfying them would
         * push free memory below this level. Models Linux's GFP
         * watermarks plus deferred compaction, which make high-order
         * allocations unreliable under memory pressure — the paper
         * empirically measured ~2.5GB of a 64GB node as the headroom
         * needed for dependable THP allocation (§4.3.1). Base-page
         * allocations are exempt, as in Linux. 0 disables the check.
         */
        std::uint64_t hugeWatermarkBytes = 0;

        /**
         * Giant (1GB-class) pages, hugetlbfs-style: log2(giant/base)
         * and the number of giant pages reserved at "boot". The pool
         * is carved out of pristine memory at construction (so it is
         * immune to later fragmentation, like hugetlbfs reservations)
         * and handed out only through allocGiantPage().
         */
        unsigned giantOrder = 0;
        std::uint64_t giantPoolPages = 0;
    };

    /**
     * @param params Node geometry.
     * @param frame_base Global number of this node's first frame: 0
     *        for the local node, remoteNodeFrameBase for the second
     *        node of a two-node machine. Every FrameNum this node
     *        hands out carries the base, so frame numbers are
     *        machine-global and identify their owning node.
     */
    explicit MemoryNode(const Params &params, FrameNum frame_base = 0);
    ~MemoryNode();

    MemoryNode(const MemoryNode &) = delete;
    MemoryNode &operator=(const MemoryNode &) = delete;

    /** @name Client registry @{ */
    std::uint16_t registerClient(PageClient *client);
    PageClient *client(std::uint16_t id) const;
    /** @} */

    /** Register a pool willing to surrender pages under pressure. */
    void addReclaimable(Reclaimable *pool);

    /**
     * Install (or, with nullptr, remove) the fault-injection hook.
     * At most one interceptor is supported; the caller owns it and
     * must uninstall it before destruction.
     */
    void setInterceptor(AllocationInterceptor *hook)
    {
        interceptor = hook;
    }

    /**
     * Wire the trace hook that direct-compaction passes are reported
     * through (core::SimMachine wires its fan-out once, at assembly).
     * Caller-owned, must outlive the node, observation-only.
     */
    void setTraceHook(obs::TraceHook *hook) { traceHook = hook; }

    /** Allocation request with Linux-like escalation switches. */
    struct Request
    {
        unsigned order = 0;
        Migratetype mt = Migratetype::Movable;
        std::uint16_t client = 0;
        /** Reclaim page-cache pages when the free lists come up empty. */
        bool mayReclaim = true;
        /** Run direct compaction (huge-page requests). */
        bool mayCompact = false;
        /** Swap out movable pages as a last resort (order-0 requests). */
        bool maySwap = false;
    };

    /**
     * Allocate one block, escalating per the request flags:
     * free lists -> reclaim -> compaction -> swap. The outcome records
     * the work done even when the request ultimately fails.
     */
    AllocOutcome allocate(const Request &req);

    /** Return a block to the buddy. */
    void free(FrameNum head);

    /**
     * Record that @p frame holds an evictable (swappable) page. Called
     * by address spaces for unpinned anonymous pages; entries are
     * validated lazily at swap time.
     */
    void noteSwappable(FrameNum frame);

    /** @name Giant-page pool (hugetlbfs analogue) @{ */

    /** Head frame of a reserved giant page, or invalidFrame. */
    FrameNum allocGiantPage();
    /** Return a giant page to the pool. */
    void freeGiantPage(FrameNum head);
    unsigned giantOrder() const { return giantOrd; }
    std::uint64_t giantPageBytes() const
    {
        return pageBytes << giantOrd;
    }
    std::uint64_t giantPagesFree() const { return giantPool.size(); }
    std::uint64_t giantPagesTotal() const { return giantTotal; }
    /** @} */

    /** @name Geometry and state queries @{ */
    std::uint64_t basePageBytes() const { return pageBytes; }
    std::uint64_t hugePageBytes() const
    {
        return pageBytes << hugeOrd;
    }
    unsigned hugeOrder() const { return hugeOrd; }
    FrameNum frameBase() const { return alloc->frameBase(); }
    std::uint64_t totalBytes() const { return alloc->frames() * pageBytes; }
    std::uint64_t freeBytes() const { return alloc->freeFrames() * pageBytes; }
    std::uint64_t freeHugeRegions() const
    {
        return alloc->freeBlocksAt(hugeOrd);
    }
    double fragmentationLevel() const { return alloc->fragmentationLevel(); }
    /** @} */

    BuddyAllocator &buddy() { return *alloc; }
    const BuddyAllocator &buddy() const { return *alloc; }

    /** Register all node + buddy counters under @p stats. */
    void registerStats(StatSet &stats, const std::string &prefix) const;

    /** @name Event counters @{ */
    mutable Counter injectedHugeFailures;
    mutable Counter watermarkFailures;
    mutable Counter reclaimedPages;
    mutable Counter swapOuts;
    mutable Counter compactionRuns;
    mutable Counter compactionPagesMigrated;
    mutable Counter compactionFails;
    mutable Counter oomFailures;
    /** @} */

  private:
    friend class Compactor;

    /** Try to reclaim at least @p frames; @return frames reclaimed. */
    std::uint64_t reclaimFrames(std::uint64_t frames);

    /** Swap out movable pages until one frame frees; @return count. */
    std::uint64_t swapOutOne();

    std::uint64_t pageBytes;
    unsigned hugeOrd;
    unsigned giantOrd = 0;
    std::uint64_t watermarkFrames;

    std::vector<FrameNum> giantPool;
    std::uint64_t giantTotal = 0;

    std::unique_ptr<BuddyAllocator> alloc;
    std::unique_ptr<Compactor> compactor;

    std::vector<PageClient *> clients;
    std::vector<Reclaimable *> reclaimables;
    AllocationInterceptor *interceptor = nullptr;
    obs::TraceHook *traceHook = nullptr;

    /** FIFO of possibly-swappable frames (validated lazily). */
    std::deque<FrameNum> swappable;
};

} // namespace gpsm::mem

#endif // GPSM_MEM_MEMORY_NODE_HH
