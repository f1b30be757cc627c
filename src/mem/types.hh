/**
 * @file
 * Shared physical-memory types: frame numbers, migratetypes, and the
 * client interface through which page owners participate in migration,
 * reclaim and swap.
 */

#ifndef GPSM_MEM_TYPES_HH
#define GPSM_MEM_TYPES_HH

#include <cstdint>

namespace gpsm::mem
{

/** Physical frame number, in base-page units within one memory node. */
using FrameNum = std::uint64_t;

constexpr FrameNum invalidFrame = ~0ull;

/**
 * Frame-number base of the second (remote) memory node on a two-node
 * machine. Node 0 owns [0, frames0); node 1 numbers its frames from
 * remoteNodeFrameBase so every FrameNum identifies its node. The base
 * is a power of two far above any node size and aligned to every
 * buddy order in use, so order-alignment checks and XOR buddy math on
 * global frame numbers behave identically on both nodes.
 */
constexpr FrameNum remoteNodeFrameBase = 1ull << 32;

/** Which node a (global) frame number belongs to: 0 local, 1 remote. */
constexpr unsigned
nodeOfFrame(FrameNum frame)
{
    return frame != invalidFrame && frame >= remoteNodeFrameBase ? 1u
                                                                 : 0u;
}

/**
 * Mobility class of an allocated block, mirroring Linux migratetypes.
 *
 * Movable pages can be relocated by compaction (user data). Unmovable
 * pages model kernel allocations that pin their frame forever (the
 * paper's non-movable fragmentation source). Pinned pages model
 * mlock()ed user memory: they cannot be swapped, and our compactor also
 * skips them (memhog occupies whole blocks, so their movability never
 * matters for huge page formation).
 */
enum class Migratetype : std::uint8_t
{
    Movable,
    Unmovable,
    Pinned,
};

/**
 * Where policy-eligible anonymous allocations land on a two-node
 * machine (numactl analogues). FirstTouch is the single-node-
 * equivalent default: every page lands on node 0 and the remote tier
 * never charges.
 */
enum class NumaPlacement : std::uint8_t
{
    /** Allocate on the faulting (local) node only — the default. */
    FirstTouch,
    /** Alternate nodes per huge-page-sized region (numactl -i). */
    Interleave,
    /** Local first, spill base pages to the remote node when full. */
    PreferredLocal,
    /** Everything on the remote node (numactl --membind=1). */
    RemoteOnly,
};

const char *numaPlacementName(NumaPlacement p);

/**
 * Replacement policy for resident file pages in the address-space
 * cache (AddressSpaceCache). Clock is the Linux-like default: a hand
 * sweeps the resident ring, giving referenced pages a second chance.
 * Lru evicts the least recently touched page exactly.
 */
enum class EvictionKind : std::uint8_t
{
    Clock,
    Lru,
};

const char *evictionKindName(EvictionKind kind);

/** Identifier of a file object inside an AddressSpaceCache. */
using FileId = std::uint32_t;

constexpr FileId invalidFile = ~0u;

/**
 * Interface implemented by owners of physical frames (address spaces,
 * the page cache, pinned-memory holders).
 *
 * The memory node calls back through this interface when it wants to
 * move or take back a frame. Implementations must keep their own
 * mapping metadata (e.g. page-table entries) consistent.
 */
class PageClient
{
  public:
    virtual ~PageClient() = default;

    /**
     * The frame backing one of this client's pages moved from @p from
     * to @p to during compaction. Data is logically copied by the
     * caller; the client must retarget its mapping.
     */
    virtual void migratePage(FrameNum from, FrameNum to) = 0;

    /**
     * Ask the client to give up @p frame for swap-out. On success the
     * client has unmapped the page, recorded it as swapped, and freed
     * the frame back to the node before returning.
     *
     * @retval true the frame was released.
     * @retval false the page cannot be evicted (e.g. mlocked).
     */
    virtual bool evictPage(FrameNum frame) { (void)frame; return false; }

    /** Debug name used in allocator dumps. */
    virtual const char *clientName() const = 0;
};

/**
 * What it took to satisfy (or fail) an allocation request.
 *
 * The VM layer converts these event counts into simulated cycles; the
 * memory layer itself is time-free.
 */
struct AllocOutcome
{
    FrameNum frame = invalidFrame;
    unsigned order = 0;
    bool success = false;

    /** Pages copied by direct compaction on this request's path. */
    std::uint64_t migratedPages = 0;
    /** Page-cache pages reclaimed to satisfy this request. */
    std::uint64_t reclaimedPages = 0;
    /** Pages swapped out to satisfy this request. */
    std::uint64_t swappedPages = 0;
    /** Number of failed compaction scans (charged as wasted effort). */
    std::uint64_t compactionFailures = 0;
};

/**
 * Interface for pools that can surrender clean pages under pressure
 * (the page cache). reclaim(n) frees up to n frames and returns how
 * many were actually released.
 */
class Reclaimable
{
  public:
    virtual ~Reclaimable() = default;
    virtual std::uint64_t reclaim(std::uint64_t frames) = 0;
};

} // namespace gpsm::mem

#endif // GPSM_MEM_TYPES_HH
