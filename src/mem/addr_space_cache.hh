/**
 * @file
 * AddressSpaceCache: the page-cache/address-space layer.
 *
 * One cache serves every file object in the machine, in the shape of
 * Linux's struct address_space: a radix tree per file maps file-page
 * offsets to frame-backed page descriptors with clean/dirty/writeback
 * state, and a pluggable eviction policy (CLOCK or exact LRU) decides
 * which resident page goes when memory is needed.
 *
 * Two producers feed it:
 *
 * - core::SimMachine::stageInputFiles() stages input-file pages as
 *   clean resident data (the paper's §4.3 single-use interference
 *   scenario);
 * - file-backed VMAs (out-of-core CSR arrays) demand-fault pages in
 *   through faultPage() and let the policy evict under pressure
 *   instead of failing allocation.
 *
 * Eviction state machine per page:
 *
 *   Clean ──evict──────────────────▶ dropped (re-fault zero-fills or
 *   Clean ──write access──▶ Dirty      reads from storage if on disk)
 *   Dirty ──evict──▶ Writeback ──▶ written to storage, then dropped
 *                                  (re-fault charges a storage read)
 *
 * The cache is time-free: it counts events (storage reads, writebacks,
 * evictions) and the MMU converts them into cycles via tlb::CostModel.
 *
 * The cache registers itself with its MemoryNode as both a PageClient
 * (compaction retargets resident pages in place, so no stale queue
 * entries are left behind) and a Reclaimable (any allocation under
 * pressure can shrink the cache).
 */

#ifndef GPSM_MEM_ADDR_SPACE_CACHE_HH
#define GPSM_MEM_ADDR_SPACE_CACHE_HH

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "mem/memory_node.hh"
#include "mem/types.hh"
#include "util/radix_tree.hh"
#include "util/stats.hh"

namespace gpsm::mem
{

/**
 * Callback interface the owner of a file mapping (vm::AddressSpace)
 * implements so the cache can keep page-table entries honest when it
 * evicts or compaction migrates a resident page.
 */
class FileMapper
{
  public:
    virtual ~FileMapper() = default;

    /**
     * The page mapped at @p vpn lost its frame (eviction or teardown).
     * Clear the PTE; push a TLB invalidation when @p invalidateTlb
     * (teardown paths that already flush the whole TLB pass false).
     */
    virtual void unmapFilePage(std::uint64_t vpn, bool invalidateTlb) = 0;

    /** The frame under @p vpn moved to @p to during compaction. */
    virtual void retargetFilePage(std::uint64_t vpn, FrameNum to) = 0;
};

/** Residency state of a cached file page. */
enum class FilePageState : std::uint8_t
{
    Clean,     ///< matches backing storage (or zero-fill, never written)
    Dirty,     ///< modified since fault-in; eviction must write back
    Writeback, ///< write-out in flight (transient, inside eviction)
};

/** What servicing one file-page fault took. */
struct FileFaultResult
{
    FrameNum frame = invalidFrame;
    bool success = false;
    /** Page content was read from backing storage (was written back). */
    bool storageRead = false;
    /** Dirty pages written back by evictions on this fault's path. */
    std::uint64_t writebackPages = 0;
    /** Page-cache pages reclaimed to satisfy the allocation. */
    std::uint64_t reclaimedPages = 0;
    /** Anonymous pages swapped out to satisfy the allocation. */
    std::uint64_t swappedPages = 0;
};

/**
 * Replacement policy over resident page keys. A key packs
 * (file, page index) into 64 bits; policies treat it as opaque.
 *
 * All operations are O(1) and in place: removed() never leaves a stale
 * entry behind, so a policy's size always equals the resident page
 * count (asserted by AddressSpaceCache::checkInvariants()).
 */
class EvictionPolicy
{
  public:
    static constexpr std::uint64_t noVictim = ~0ull;

    virtual ~EvictionPolicy() = default;

    virtual const char *name() const = 0;
    /** A page became resident. */
    virtual void inserted(std::uint64_t key) = 0;
    /** A resident page was accessed (TLB-walk granularity). */
    virtual void touched(std::uint64_t key) = 0;
    /** A resident page went away for a non-policy reason (teardown). */
    virtual void removed(std::uint64_t key) = 0;
    /** Choose the next victim and remove it; noVictim when empty. */
    virtual std::uint64_t pickVictim() = 0;
    virtual std::uint64_t size() const = 0;
};

/**
 * Second-chance CLOCK. Pages sit on a ring in insertion order; the
 * hand sweeps circularly, clearing reference bits until it finds an
 * unreferenced page. New pages enter at the tail with their reference
 * bit clear (they earn it on first touch); inserts never move the
 * hand — a hand parked at end() (empty ring, or the tail was just
 * evicted) wraps to the head on the next sweep.
 */
class ClockPolicy : public EvictionPolicy
{
  public:
    const char *name() const override { return "clock"; }
    void inserted(std::uint64_t key) override;
    void touched(std::uint64_t key) override;
    void removed(std::uint64_t key) override;
    std::uint64_t pickVictim() override;
    std::uint64_t size() const override { return pos.size(); }

  private:
    struct Entry
    {
        std::uint64_t key;
        bool referenced;
    };

    using Ring = std::list<Entry>;

    Ring ring;
    Ring::iterator hand = ring.end();
    std::unordered_map<std::uint64_t, Ring::iterator> pos;
};

/** Exact LRU: touch moves to MRU, the victim is the LRU page. */
class LruPolicy : public EvictionPolicy
{
  public:
    const char *name() const override { return "lru"; }
    void inserted(std::uint64_t key) override;
    void touched(std::uint64_t key) override;
    void removed(std::uint64_t key) override;
    std::uint64_t pickVictim() override;
    std::uint64_t size() const override { return pos.size(); }

  private:
    std::list<std::uint64_t> order; ///< front = MRU, back = LRU
    std::unordered_map<std::uint64_t,
                       std::list<std::uint64_t>::iterator> pos;
};

std::unique_ptr<EvictionPolicy> makeEvictionPolicy(EvictionKind kind);

class AddressSpaceCache : public PageClient, public Reclaimable
{
  public:
    explicit AddressSpaceCache(MemoryNode &node,
                               EvictionKind kind = EvictionKind::Clock);
    ~AddressSpaceCache() override;

    /**
     * Create a new (empty, sparse) file object. Slots released by
     * destroyFile() are reused (LIFO), so long-lived services that
     * create one file per array per run do not accumulate dead
     * FileObjects.
     */
    FileId createFile(std::string name);

    /**
     * dropFile() plus release of the file object itself: the FileId
     * becomes invalid (any later use asserts) and its slot is free for
     * the next createFile(). Callers that keep using the id (the
     * machine's input-staging file) want dropFile() instead.
     *
     * @return pages dropped.
     */
    std::uint64_t destroyFile(FileId file, bool invalidateTlb = true);

    struct PopulateResult
    {
        std::uint64_t pages = 0;
        std::uint64_t bytes = 0; ///< exact bytes (final page clamped)
    };

    /**
     * Stage @p bytes of file data as clean resident pages starting at
     * page @p startPage. Best effort with no escalation (matching the
     * kernel's opportunistic readahead): stops at the first failed
     * frame allocation. The final page is clamped to the requested
     * bytes, so caching 100 bytes accounts 100, not 4096.
     */
    PopulateResult populate(FileId file, std::uint64_t startPage,
                            std::uint64_t bytes);

    /**
     * Demand-fault one non-resident page of @p file. Allocates a frame
     * with full escalation rights (reclaim from this cache, swap
     * anonymous memory) so footprint beyond DRAM evicts instead of
     * failing. A write fault latches the page Dirty.
     *
     * @param vpn    Virtual page the caller maps the frame under.
     * @param mapper Owner to notify on later eviction/migration.
     */
    FileFaultResult faultPage(FileId file, std::uint64_t index,
                              bool write, std::uint64_t vpn,
                              FileMapper *mapper);

    /**
     * A mapped resident page was accessed (called at TLB-walk
     * granularity): feeds the replacement policy and latches Dirty on
     * write. Fast-path TLB hits do not reach here — an accepted
     * fidelity limit, documented in DESIGN §5j.
     */
    void notePageAccess(FileId file, std::uint64_t index, bool write);

    /**
     * Drop every resident page of @p file and forget its on-disk
     * shadow (teardown/drop_caches). Dirty contents are discarded
     * without writeback, like munmap without msync.
     *
     * @return pages dropped.
     */
    std::uint64_t dropFile(FileId file, bool invalidateTlb = true);

    /**
     * Forget every mapper pointer without unmapping anything. Teardown
     * only: the owner of the page tables (the FileMapper) is being or
     * has been destroyed, so later evictions and the cache's own
     * destructor must not call back into it.
     */
    void detachMappers();

    /** PageClient: in-place fixup, O(1), no stale policy entries. */
    void migratePage(FrameNum from, FrameNum to) override;
    const char *clientName() const override { return "pagecache"; }

    /** Reclaimable: evict up to @p frames resident pages per policy. */
    std::uint64_t reclaim(std::uint64_t frames) override;

    std::uint64_t residentPages() const { return frameMap.size(); }
    std::uint64_t residentBytes() const { return residentBytes_; }
    std::uint64_t residentPagesOf(FileId file) const;
    std::uint64_t residentBytesOf(FileId file) const;

    bool isResident(FileId file, std::uint64_t index) const;
    /** State of a resident page (panics when not resident). */
    FilePageState pageState(FileId file, std::uint64_t index) const;
    /** True when the page has been written back to storage. */
    bool isOnDisk(FileId file, std::uint64_t index) const;

    EvictionKind kind() const { return evictionKind; }
    const EvictionPolicy &policy() const { return *policy_; }

    /**
     * Structural self-check: policy size == resident pages == frame
     * map size, and the byte account matches the page set. Replaces
     * the old "deque never exceeds the frame map" property.
     */
    void checkInvariants() const;

    Counter pagesCached;  ///< pages brought in (staging + faults)
    Counter pagesDropped; ///< pages released (eviction + teardown)
    Counter storageReads; ///< fault-path reads from backing storage
    Counter writebacks;   ///< dirty pages written back before release
    Counter evictions;    ///< policy-driven evictions

  private:
    struct CachedPage
    {
        FrameNum frame = invalidFrame;
        FilePageState state = FilePageState::Clean;
        std::uint32_t bytes = 0;    ///< exact bytes (≤ basePageBytes)
        std::uint64_t vpn = ~0ull;  ///< mapped VPN; ~0 = staging page
        FileMapper *mapper = nullptr;
    };

    struct FileObject
    {
        std::string name;
        util::RadixTree<CachedPage> pages;   ///< resident pages
        util::RadixTree<char> onDisk;        ///< written-back shadow
    };

    /**
     * Policy keys pack (file, index); 40 index bits cover 4 PiB files
     * at 4 KiB pages, far beyond any modeled dataset.
     */
    static std::uint64_t
    keyOf(FileId file, std::uint64_t index)
    {
        GPSM_ASSERT(index < (1ull << 40), "file page index too large");
        return (static_cast<std::uint64_t>(file) << 40) | index;
    }
    static FileId fileOfKey(std::uint64_t key)
    {
        return static_cast<FileId>(key >> 40);
    }
    static std::uint64_t indexOfKey(std::uint64_t key)
    {
        return key & ((1ull << 40) - 1);
    }

    FileObject &fileOf(FileId file);
    const FileObject &fileOf(FileId file) const;
    void insertPage(FileId file, std::uint64_t index, CachedPage page);
    /** Evict one page per policy; false when the cache is empty. */
    bool evictOne();

    MemoryNode &node;
    EvictionKind evictionKind;
    std::unique_ptr<EvictionPolicy> policy_;
    /** Slot per file id; null = destroyed, awaiting reuse. */
    std::vector<std::unique_ptr<FileObject>> files;
    /** Ids freed by destroyFile, reused LIFO by createFile. */
    std::vector<FileId> freeFileIds;
    /** frame -> policy key, for O(1) migration fixup. */
    std::unordered_map<FrameNum, std::uint64_t> frameMap;
    std::uint64_t residentBytes_ = 0;
    std::uint16_t clientId = 0;
};

} // namespace gpsm::mem

#endif // GPSM_MEM_ADDR_SPACE_CACHE_HH
