/**
 * @file
 * Binary buddy allocator over one memory node's physical frames.
 *
 * This reproduces the structural behaviour of Linux's zoned buddy
 * allocator that the paper's huge-page availability arguments rest on:
 * power-of-two blocks with aligned buddies, split on demand from the
 * smallest sufficient order, and eager coalescing on free. Huge pages
 * are order `hugeOrder()` blocks; a node has a free huge-page region iff
 * the buddy has a free block of at least that order.
 *
 * Internally the allocator is O(1) in block size: only head frames
 * carry metadata (body state is derived, never written), buddy-free
 * tests read one bit of a per-order pair bitmap, and free-block /
 * per-region occupancy queries read cached counters. See DESIGN.md
 * §5f for the invariants.
 */

#ifndef GPSM_MEM_BUDDY_ALLOCATOR_HH
#define GPSM_MEM_BUDDY_ALLOCATOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mem/types.hh"
#include "util/stats.hh"

namespace gpsm::mem
{

/**
 * Buddy allocator state plus per-frame metadata.
 *
 * Frames are identified by FrameNum in [frameBase(), frameBase() +
 * frames()). A block of order k covers 2^k frames and is aligned to
 * 2^k. The allocator tracks, per head frame, the block's order,
 * migratetype and owning client id; body frames carry no state (their
 * membership is derived from the head's order), so allocating or
 * freeing a block never touches its 2^order - 1 body frames.
 *
 * Three auxiliary structures keep every query off the frame array:
 *
 *  - Per-order XOR-buddy pair bitmaps (sv6 style): one bit per buddy
 *    pair at each order, flipped whenever a block of that order is
 *    attached to or detached from its free list. Eager coalescing
 *    guarantees at most one member of a pair is free below maxOrder,
 *    so while freeing a block the bit *is* "my buddy is free" — the
 *    coalesce test is a single bit read instead of a metadata probe.
 *  - Per-order free-block counters, so freeBlocksAt / freeBlocksAtLeast
 *    / largestFreeOrder / fragmentationLevel never walk a free list.
 *  - Per-maxOrder-region frame-class counters (free / movable /
 *    unmovable / pinned frames plus movable huge-block count), so the
 *    compactor's candidate scan is O(regions), not O(blocks).
 *
 * On a two-node machine the remote node's allocator runs with
 * frame_base = remoteNodeFrameBase, so its FrameNums are globally
 * unique and carry their node identity. The base is aligned to every
 * representable order, so alignment and buddy-XOR math agree between
 * the global and node-local numberings. Internals are node-local
 * (0-based); conversion happens at the public boundary.
 */
class BuddyAllocator
{
  public:
    /**
     * @param frames Total frames managed (need not be a power of two).
     * @param max_order Largest block order (the huge-page order).
     * @param frame_base Global number of this node's first frame
     *        (0 for the local node, remoteNodeFrameBase for node 1).
     */
    BuddyAllocator(std::uint64_t frames, unsigned max_order,
                   FrameNum frame_base = 0);

    BuddyAllocator(const BuddyAllocator &) = delete;
    BuddyAllocator &operator=(const BuddyAllocator &) = delete;

    /**
     * Allocate one block of exactly @p order, splitting larger blocks
     * if needed (smallest-sufficient-order policy).
     *
     * @param order Block order requested.
     * @param mt Mobility class recorded on the block.
     * @param client Owner id recorded on the block (see MemoryNode).
     * @return Head frame, or invalidFrame when no block of any order
     *         >= @p order is free.
     */
    FrameNum allocate(unsigned order, Migratetype mt,
                      std::uint16_t client);

    /**
     * Allocate a specific free block (used by the compactor to claim a
     * region it just emptied, and by tests).
     *
     * @return true when the exact block [head, head+2^order) was free
     *         and is now allocated.
     */
    bool allocateExact(FrameNum head, unsigned order, Migratetype mt,
                       std::uint16_t client);

    /**
     * Free the block headed at @p head. The block's recorded order is
     * used; freeing a non-head or free frame panics. Buddies coalesce
     * eagerly up to maxOrder.
     */
    void free(FrameNum head);

    /**
     * Split one allocated block of order >= 1 headed at @p head into
     * two allocated buddies of order-1 (fragmenter building block;
     * mirrors Linux split_page()). Metadata (mt, client) is copied.
     */
    void splitAllocated(FrameNum head);

    /** @name Queries @{ */
    std::uint64_t frames() const { return nframes; }
    /** Global frame number of this node's first frame. */
    FrameNum frameBase() const { return fbase; }
    unsigned maxOrder() const { return maxOrd; }
    std::uint64_t freeFrames() const { return nfree; }

    /** Number of free blocks at exactly @p order (cached, O(1)). */
    std::uint64_t freeBlocksAt(unsigned order) const;

    /** Number of free blocks of order >= @p order. */
    std::uint64_t freeBlocksAtLeast(unsigned order) const;

    /** Largest order with a free block, or -1 when empty. */
    int largestFreeOrder() const;

    /**
     * True when frame is inside any allocated block. Frames outside
     * this node's range are simply "not allocated here" (stale swap
     * queue entries probe across nodes), not an error.
     */
    bool isAllocated(FrameNum frame) const;

    /** True when @p frame heads an allocated block (range-tolerant). */
    bool isAllocatedHead(FrameNum frame) const;

    /** Order of the allocated block headed at @p frame (panics else). */
    unsigned orderOf(FrameNum frame) const;

    /** Migratetype of the allocated block headed at @p frame. */
    Migratetype migratetypeOf(FrameNum frame) const;

    /** Owner id of the allocated block headed at @p frame. */
    std::uint16_t clientOf(FrameNum frame) const;

    /**
     * Head frame of the allocated block containing @p frame
     * (invalidFrame when the frame is free).
     */
    FrameNum headOf(FrameNum frame) const;

    /**
     * The unique block (free or allocated) containing @p frame.
     * Found by descending the order hierarchy from maxOrder — O(log)
     * in node size, independent of block size.
     */
    struct BlockInfo
    {
        FrameNum head;
        unsigned order;
        bool free;
    };

    BlockInfo blockOf(FrameNum frame) const;
    /** @} */

    /**
     * Cached per-region frame-class counters, maintained on every
     * allocate/free/split. Lets the compactor rank candidate regions
     * without touching any frame metadata.
     */
    struct RegionCounts
    {
        std::uint64_t freeFrames = 0;
        std::uint64_t movableFrames = 0;
        std::uint64_t unmovableFrames = 0;
        std::uint64_t pinnedFrames = 0;
        /** Movable allocated blocks of order maxOrder in the region. */
        std::uint32_t movableHugeBlocks = 0;
    };

    /** Counters for full region @p region_index < regions(). */
    const RegionCounts &regionCounts(std::uint64_t region_index) const;

    /**
     * Per-maxOrder-region summary used by the compactor and by
     * fragmentation metrics: counts of free / movable / unmovable /
     * pinned frames within the aligned region containing @p frame.
     */
    struct RegionSummary
    {
        std::uint64_t freeFrames = 0;
        std::uint64_t movableFrames = 0;
        std::uint64_t unmovableFrames = 0;
        std::uint64_t pinnedFrames = 0;
        /** Heads of movable allocated blocks inside the region. */
        std::vector<FrameNum> movableHeads;
    };

    RegionSummary summarizeRegion(FrameNum region_head) const;

    /**
     * Buffer-reusing variant: counts come from the cached region
     * counters; only the movable-head walk touches block metadata.
     * @p out.movableHeads keeps its capacity across calls.
     */
    void summarizeRegion(FrameNum region_head, RegionSummary &out) const;

    /** Number of maxOrder regions fully contained in the node. */
    std::uint64_t regions() const { return nframes >> maxOrd; }

    /**
     * Fraction of free memory that does not belong to any free
     * maxOrder block — the paper's "fragmentation level" measured on
     * the current allocator state.
     */
    double fragmentationLevel() const;

    /** Consistency check used by tests; panics on violation. */
    void checkInvariants() const;

    /** One line per order: "order k: n free blocks". */
    std::string dumpFreeLists() const;

    /** @name Event counters (registered by MemoryNode) @{ */
    Counter allocCalls;
    Counter allocFailures;
    Counter splits;
    Counter merges;
    /** @} */

  private:
    /**
     * Body carries no information: a frame is a body iff no head
     * claims it, and which head claims it is derived by blockAt().
     * The only transition that turns a head into a body — losing a
     * coalescing merge — explicitly resets the loser to Body, so a
     * head state read is never stale.
     */
    enum class State : std::uint8_t
    {
        Body,
        FreeHead,
        AllocHead,
    };

    struct Frame
    {
        State state = State::Body;
        std::uint8_t order = 0;
        Migratetype mt = Migratetype::Movable;
        std::uint16_t client = 0;
    };

    /** Remove a known free block from its free list (O(1)). */
    void detachFree(FrameNum head, unsigned order);
    /** Push a block onto the free list of @p order (O(1)). */
    void attachFree(FrameNum head, unsigned order);
    /** Record allocated-block metadata on the head frame (O(1)). */
    void markAllocated(FrameNum head, unsigned order, Migratetype mt,
                       std::uint16_t client);
    /** Reverse markAllocated's region accounting. */
    void unaccountAllocated(FrameNum head, unsigned order,
                            Migratetype mt);

    /** Node-local containing-block lookup (descent from maxOrder). */
    BlockInfo blockAt(FrameNum local) const;

    /** Flip the pair bit of @p head's buddy pair at @p order. */
    void togglePairBit(FrameNum head, unsigned order)
    {
        const std::uint64_t idx = head >> (order + 1);
        pairBits[order][idx >> 6] ^= 1ull << (idx & 63);
    }

    /** True when exactly one member of the pair is free at @p order. */
    bool pairBitSet(FrameNum head, unsigned order) const
    {
        const std::uint64_t idx = head >> (order + 1);
        return (pairBits[order][idx >> 6] >> (idx & 63)) & 1;
    }

    FrameNum buddyOf(FrameNum head, unsigned order) const
    {
        return head ^ (1ull << order);
    }

    /** Global frame range check (public-boundary validation). */
    bool inRange(FrameNum global) const
    {
        return global >= fbase && global - fbase < nframes;
    }

    std::uint64_t nframes;
    FrameNum fbase = 0;
    unsigned maxOrd;
    std::uint64_t nfree = 0;

    std::vector<Frame> meta;

    /** Intrusive doubly-linked free lists, one per order. */
    std::vector<FrameNum> freeListHead; // per order
    std::vector<FrameNum> nextFree;     // per frame (valid for FreeHead)
    std::vector<FrameNum> prevFree;

    /** Free-block count per order (satisfies freeBlocksAt in O(1)). */
    std::vector<std::uint64_t> freeCount;

    /**
     * One bitmap per order; bit i is the XOR-flip parity of buddy pair
     * i = head >> (order+1): set iff an odd number of the pair's two
     * blocks is on the order's free list. Below maxOrder, eager
     * coalescing makes "odd" mean "exactly one".
     */
    std::vector<std::vector<std::uint64_t>> pairBits;

    /**
     * Frame-class counters per maxOrder region. Sized to cover the
     * non-region tail of a non-power-of-two node as one extra pseudo
     * region, so accounting never branches; regionCounts() only
     * exposes the regions() full regions.
     */
    std::vector<RegionCounts> regionInfo;
};

} // namespace gpsm::mem

#endif // GPSM_MEM_BUDDY_ALLOCATOR_HH
