/**
 * @file
 * Process address space: VMAs, demand paging, THP fault policy, swap,
 * and the owner-side half of compaction and khugepaged.
 */

#ifndef GPSM_VM_ADDRESS_SPACE_HH
#define GPSM_VM_ADDRESS_SPACE_HH

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "mem/addr_space_cache.hh"
#include "mem/memory_node.hh"
#include "mem/swap_device.hh"
#include "mem/types.hh"
#include "obs/hooks.hh"
#include "util/stats.hh"
#include "util/units.hh"
#include "vm/page_table.hh"
#include "vm/thp_config.hh"

namespace gpsm::vm
{

/**
 * One virtual memory area (a contiguous mmap'd range).
 */
struct Vma
{
    Addr start = 0;
    Addr end = 0; // exclusive
    std::string name;

    /** MADV_HUGEPAGE intervals, disjoint and sorted, [start,end). */
    std::vector<std::pair<Addr, Addr>> hugeAdvised;
    /** MADV_NOHUGEPAGE intervals. */
    std::vector<std::pair<Addr, Addr>> hugeForbidden;

    /**
     * File backing (mmapFile): pages demand-fault through the
     * address-space cache and evict under pressure instead of
     * swapping. Never THP-eligible, like Linux file mappings outside
     * the niche file-THP configurations. nullptr = anonymous.
     */
    mem::AddressSpaceCache *fileCache = nullptr;
    mem::FileId fileId = mem::invalidFile;

    /** @name Live mapping counters @{ */
    std::uint64_t presentBasePages = 0;
    std::uint64_t swappedBasePages = 0;
    std::uint64_t hugePages = 0;
    std::uint64_t giantPages = 0;
    /** @} */

    std::uint64_t length() const { return end - start; }
    bool contains(Addr a) const { return a >= start && a < end; }
};

/**
 * One pending TLB invalidation, produced whenever a translation a TLB
 * may have cached stops being valid (migration, swap-out, promotion,
 * demotion, unmap). The Mmu drains these, invalidates matching entries
 * and charges shootdown cost.
 */
struct TlbInvalidation
{
    /** Invalidate everything (munmap). */
    bool flushAll = false;
    std::uint64_t vpn = 0;
    PageSizeClass size = PageSizeClass::Base;
};

/**
 * Events produced while making one virtual address accessible. The TLB
 * layer (Mmu) converts these into simulated cycles; the address space
 * itself is time-free.
 */
struct TouchInfo
{
    mem::FrameNum frame = mem::invalidFrame;
    PageSizeClass size = PageSizeClass::Base;

    bool pageFault = false;      ///< any fault was taken
    bool hugeFault = false;      ///< fault was satisfied with a huge page
    bool majorFault = false;     ///< page had to be read back from swap
    bool remote = false;         ///< fault was satisfied from node 1

    /** Escalation work performed on the fault path. */
    std::uint64_t migratedPages = 0;
    std::uint64_t reclaimedPages = 0;
    std::uint64_t swappedOutPages = 0;
    std::uint64_t compactionFailures = 0;
    /** Bounded huge-allocation retries taken before fallback
     *  (ThpConfig::hugeFaultRetries); each is charged backoff. */
    std::uint64_t hugeAllocRetries = 0;

    /** @name File-backed fault work (out-of-core mappings only) @{ */
    /** Pages read from backing storage (previously written back). */
    std::uint64_t fileReadPages = 0;
    /** Dirty file pages written back by evictions on this path. */
    std::uint64_t writebackPages = 0;
    /** @} */
};

/**
 * Two-node placement policy handed to an AddressSpace at construction.
 * The default (no remote node, FirstTouch) reproduces the single-node
 * machine exactly: every allocation goes to the local node through the
 * pre-NUMA code path.
 */
struct NumaPolicy
{
    /** The second node, or nullptr for a single-node machine. Must be
     *  built with mem::remoteNodeFrameBase and the same page geometry
     *  as the local node. */
    mem::MemoryNode *remoteNode = nullptr;
    mem::NumaPlacement placement = mem::NumaPlacement::FirstTouch;
    /** Pull remote-backed regions local when khugepaged collapses
     *  them (AutoNUMA-style promote-and-migrate). */
    bool migrateOnPromote = false;
};

/**
 * The simulated process address space.
 *
 * Responsibilities:
 * - virtual address allocation (mmap/munmap), huge-page aligned;
 * - madvise(MADV_HUGEPAGE / MADV_NOHUGEPAGE) interval bookkeeping;
 * - demand paging with Linux-like THP fault policy: on first touch of
 *   an eligible huge region, try a huge allocation (with optional
 *   reclaim and direct compaction), else fall back to a base page;
 * - swap-in of previously evicted pages (major faults);
 * - PageClient duties: retargeting mappings when compaction migrates a
 *   frame, and surrendering pages chosen as swap victims.
 *
 * All state-changing operations bump a pending-TLB-shootdown counter
 * that the Mmu drains to charge invalidation costs and flush stale
 * entries.
 */
class AddressSpace : public mem::PageClient, public mem::FileMapper
{
  public:
    AddressSpace(mem::MemoryNode &node, mem::SwapDevice &swap,
                 const ThpConfig &thp);
    /**
     * Two-node construction: @p numa names the remote node and the
     * placement policy. Huge allocations never cross nodes
     * (__GFP_THISNODE); base pages spill per policy.
     */
    AddressSpace(mem::MemoryNode &node, mem::SwapDevice &swap,
                 const ThpConfig &thp, const NumaPolicy &numa);
    ~AddressSpace() override;

    AddressSpace(const AddressSpace &) = delete;
    AddressSpace &operator=(const AddressSpace &) = delete;

    /** @name Region management @{ */

    /**
     * Reserve @p length bytes of virtual address space.
     * The base is huge-page aligned, as glibc arranges for large
     * allocations (and as the paper's madvise usage requires).
     */
    Addr mmap(std::uint64_t length, const std::string &name);

    /**
     * Reserve and *eagerly* map @p length bytes backed by giant pages
     * from the node's hugetlbfs-style pool (rounded up to whole giant
     * pages). Fatal when the pool cannot cover the request — explicit
     * reservations fail loudly, unlike THP.
     */
    Addr mmapGiant(std::uint64_t length, const std::string &name);

    /**
     * Reserve @p length bytes backed by file object @p file of the
     * given address-space cache. Pages demand-fault through the cache
     * with full escalation rights, so a mapping larger than DRAM runs
     * out-of-core: the cache evicts (writing dirty pages back) instead
     * of the allocator failing. File VMAs are never THP-eligible.
     */
    Addr mmapFile(std::uint64_t length, const std::string &name,
                  mem::AddressSpaceCache &cache, mem::FileId file);

    /** Unmap the entire VMA starting at @p start; frees its frames. */
    void munmap(Addr start);

    /** madvise(MADV_HUGEPAGE) on [start, start+length). */
    void madviseHuge(Addr start, std::uint64_t length);

    /** madvise(MADV_NOHUGEPAGE) on [start, start+length). */
    void madviseNoHuge(Addr start, std::uint64_t length);
    /** @} */

    /** @name Access path @{ */

    /**
     * Ensure @p vaddr is mapped, faulting if necessary, and report the
     * backing translation plus all fault-path events.
     */
    TouchInfo touch(Addr vaddr, bool write);

    /** Fault-free lookup (invalid result when unmapped). */
    PageTable::Translation translate(Addr vaddr) const;
    /** @} */

    /** @name khugepaged / policy hooks @{ */

    struct PromoteResult
    {
        bool success = false;
        std::uint64_t copiedPages = 0;
        std::uint64_t migratedPages = 0;
        std::uint64_t reclaimedPages = 0;
    };

    /**
     * Try to promote the huge region containing @p vaddr, copying the
     * present base pages into a fresh huge frame (khugepaged's
     * collapse operation).
     */
    PromoteResult promote(Addr vaddr);

    /**
     * Demote the huge mapping covering @p vaddr into base pages; the
     * physical huge block is split so constituent frames can be freed
     * or swapped individually.
     */
    void demote(Addr vaddr);

    /**
     * Is the huge region containing @p vaddr eligible for huge-page
     * backing under the current mode (ignoring what is mapped)?
     */
    bool hugeEligible(Addr vaddr) const;
    /** @} */

    /** @name Introspection @{ */
    const ThpConfig &thpConfig() const { return thp; }

    /**
     * Replace the THP configuration at runtime (the sysfs knobs are
     * writable on a live system; existing mappings are unaffected).
     */
    void updateThpConfig(const ThpConfig &config) { thp = config; }
    const PageTable &pageTable() const { return pt; }
    mem::MemoryNode &memoryNode() { return node; }
    /** The remote node, or nullptr on a single-node machine. */
    mem::MemoryNode *remoteMemoryNode() { return remote; }

    const Vma *findVma(Addr vaddr) const;
    std::vector<const Vma *> vmas() const;

    std::uint64_t basePageBytes() const { return pageBytes; }
    std::uint64_t hugePageBytes() const { return pageBytes << hugeOrd; }

    /** Total bytes currently backed by huge pages. */
    std::uint64_t hugeBackedBytes() const;
    /** Total bytes currently backed by giant pages. */
    std::uint64_t giantBackedBytes() const;
    /** Total mapped bytes (present base + swapped + huge). */
    std::uint64_t footprintBytes() const;

    /**
     * True when TLB invalidations are pending (checked on the hot
     * path; draining allocates, so callers test this first).
     */
    bool hasPendingInvalidations() const
    {
        return !pendingInvalidations.empty();
    }

    /** Move out the pending TLB invalidation events. */
    std::vector<TlbInvalidation> drainInvalidations();
    /** @} */

    /** @name PageClient @{ */
    void migratePage(mem::FrameNum from, mem::FrameNum to) override;
    bool evictPage(mem::FrameNum frame) override;
    const char *clientName() const override { return "addrspace"; }
    /** @} */

    /** @name FileMapper (cache-initiated PTE maintenance) @{ */
    void unmapFilePage(std::uint64_t vpn, bool invalidateTlb) override;
    void retargetFilePage(std::uint64_t vpn, mem::FrameNum to) override;
    /** @} */

    void registerStats(StatSet &stats, const std::string &prefix) const;

    /**
     * Wire the trace hook that promotion and demotion events are
     * reported through (core::SimMachine wires its fan-out once, at
     * assembly). Caller-owned, must outlive the address space,
     * observation-only.
     */
    void setTraceHook(obs::TraceHook *hook) { traceHook = hook; }

    /** @name Event counters @{ */
    Counter minorFaults;
    Counter hugeFaults;
    Counter majorFaults;
    Counter hugeFallbacks;  ///< eligible faults that fell back to base
    Counter hugeRetries;    ///< bounded fault-path huge-alloc retries
    Counter promotions;
    Counter demotions;
    Counter promotionCopiedPages;
    Counter swapInPages;
    Counter swapOutPages;

    /** @name Two-node counters (registered only when NUMA is active) @{ */
    Counter remotePlacedPages;  ///< base-page units placed on node 1
    Counter spilledPages;       ///< placements on the non-preferred node
    Counter promoteMovedPages;  ///< pages that changed node during collapse
    /** @} */
    /** @} */

  private:
    /** Fault in the page backing @p vaddr (not currently covered). */
    TouchInfo handleFault(Addr vaddr, const PageTable::Translation &cur,
                          bool write);

    /** True when [a,b) is fully inside one interval of @p set. */
    static bool coveredBy(const std::vector<std::pair<Addr, Addr>> &set,
                          Addr a, Addr b);
    /** True when [a,b) intersects any interval of @p set. */
    static bool intersects(const std::vector<std::pair<Addr, Addr>> &set,
                           Addr a, Addr b);
    static void addInterval(std::vector<std::pair<Addr, Addr>> &set,
                            Addr a, Addr b);

    Vma *findVmaMutable(Addr vaddr);

    /** Rebuild fileLo/fileHi from the surviving file-backed VMAs. */
    void recomputeFileHull();

    std::uint64_t vpnOf(Addr vaddr) const { return vaddr / pageBytes; }

    /** The node that owns @p frame (by global frame number). */
    mem::MemoryNode &nodeOf(mem::FrameNum frame)
    {
        return remote != nullptr && mem::nodeOfFrame(frame) == 1
                   ? *remote
                   : node;
    }

    /** This space's client id on @p n. */
    std::uint16_t clientFor(const mem::MemoryNode &n) const
    {
        return &n == &node ? clientId : remoteClientId;
    }

    /** Policy-preferred node for the region containing @p vpn. */
    mem::MemoryNode &preferredNode(std::uint64_t vpn);

    /** Allocate one base page per placement policy (spill allowed). */
    mem::AllocOutcome allocBase(std::uint64_t vpn, bool &spilled);

    /** True when no PTE (present or swapped) covers the huge region. */
    bool regionEmpty(std::uint64_t huge_vpn) const;

    mem::MemoryNode &node;
    mem::SwapDevice &swap;
    ThpConfig thp;
    obs::TraceHook *traceHook = nullptr;
    std::uint64_t pageBytes;
    unsigned hugeOrd;
    std::uint16_t clientId;

    /** @name Two-node state (inert on a single-node machine) @{ */
    mem::MemoryNode *remote = nullptr;
    mem::NumaPlacement placement = mem::NumaPlacement::FirstTouch;
    bool migrateOnPromote = false;
    std::uint16_t remoteClientId = 0;
    /** @} */

    PageTable pt;

    /** VMAs keyed by start address. */
    std::map<Addr, Vma> regions;

    /** Reverse map: base-page frame -> vpn (for migrate/evict). */
    std::unordered_map<mem::FrameNum, std::uint64_t> rmap;

    /** Bump-pointer virtual address allocator. */
    Addr nextMmapBase;

    /**
     * Address hull of all file-backed VMAs, so the present-page hot
     * path can skip the VMA lookup entirely when no file mappings
     * exist (the in-core case: one always-false compare).
     */
    Addr fileLo = ~0ull;
    Addr fileHi = 0;

    std::vector<TlbInvalidation> pendingInvalidations;
};

} // namespace gpsm::vm

#endif // GPSM_VM_ADDRESS_SPACE_HH
