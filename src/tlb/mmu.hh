/**
 * @file
 * The simulated MMU: two-level TLB lookup, page walks via the address
 * space, fault/OS-event cost accounting, and the data-cache probe.
 *
 * This is the component every traced load/store of the instrumented
 * graph kernels flows through. The instruction-side TLB is not modeled:
 * the paper's bottleneck is data-side translation (Figs. 2-3), and the
 * kernels' code footprints fit a handful of pages.
 */

#ifndef GPSM_TLB_MMU_HH
#define GPSM_TLB_MMU_HH

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "tlb/access_recorder.hh"
#include "tlb/cache_model.hh"
#include "tlb/cost_model.hh"
#include "tlb/tlb.hh"
#include "util/logging.hh"
#include "util/stats.hh"
#include "util/units.hh"
#include "vm/address_space.hh"

namespace gpsm::tlb
{

/**
 * Narrow fault-injection hook for swap timing: an active swap-latency
 * window multiplies the cycles charged for swap traffic (the device
 * transiently serving I/O slower). Implemented by fault::FaultSession;
 * absent by default.
 */
class SwapCostScaler
{
  public:
    virtual ~SwapCostScaler() = default;

    /** Scale @p cycles of swap-device work by the active window. */
    virtual std::uint64_t scaleSwapCycles(std::uint64_t cycles) = 0;
};

/**
 * MMU bound to one address space.
 *
 * Cost accounting is split into five buckets so benches can report the
 * translation share of runtime (paper Fig. 2):
 * - base: fixed per-access work,
 * - memory: data cache hierarchy latency,
 * - translation: STLB hit penalties and page walks,
 * - fault: minor/huge/major fault service,
 * - os: compaction, reclaim, swap-out, shootdowns (kernel overheads).
 */
class Mmu
{
  public:
    /**
     * Number of distinguishable access tags (per-array attribution);
     * the cache model keeps one last-line hint per tag.
     */
    static constexpr unsigned numTags = CacheModel::numTags;

    /**
     * @param space Address space faults are routed to.
     * @param l1 First-level data TLB (typically split-size).
     * @param l2 Second-level TLB (typically Tlb::makeUnified).
     * @param costs Cycle cost model.
     * @param cache Optional data cache model (may be null).
     */
    Mmu(vm::AddressSpace &space, Tlb l1, Tlb l2, const CostModel &costs,
        std::unique_ptr<CacheModel> cache);

    /**
     * Perform one traced memory access.
     *
     * The common case — an L1 DTLB hit plus the cache-model charge —
     * is inlined below so kernel loops pay no out-of-line call on the
     * hot path; only an L1 miss drops into accessMiss() in mmu.cc.
     * Counter and cycle accounting are exactly the same as when the
     * whole path was out of line (asserted by tests/test_accounting).
     *
     * @param vaddr Virtual address touched.
     * @param write Stores and loads are charged identically today; the
     *              flag is kept for interface stability.
     * @param tag Attribution tag (e.g. one per graph array).
     */
    void access(Addr vaddr, bool write, unsigned tag = 0);

    /**
     * Trace @p count strided accesses starting at @p start — the bulk
     * sequential pattern of array initialization/loading and of
     * straight-line CSR scans. Counter semantics are identical to
     * calling access() once per element (asserted by
     * tests/test_mmu_reuse): per-element access() at page boundaries
     * (and wherever reuse cannot be proven), bulk accounting for the
     * run of elements that the just-validated translation covers. Bulk
     * steps never cross a periodic/sample hook boundary and are skipped
     * entirely while invalidations are pending.
     */
    void translateRun(Addr start, std::size_t count, std::size_t stride,
                      bool write, unsigned tag = 0);

  private:
    /** translateRun's translation loop, recorder already handled. */
    void translateRunBody(Addr start, std::size_t count,
                          std::size_t stride, bool write, unsigned tag);

  public:

    /** Flush both TLB levels (and drop nothing else). */
    void flushTlbs();

    /**
     * Charge file-I/O cycles (input staging during loads). Kept in its
     * own bucket so benches can separate load-path I/O from the memory
     * system proper.
     */
    void chargeIo(std::uint64_t cycles) { ioCycles += cycles; }

    /** @name Access-tracking hooks (HawkEye/Ingens-style policies) @{ */

    /**
     * Record per-huge-region page-walk counts ("heat"). This is the
     * access-tracking information state-of-the-art huge-page managers
     * pay kernel overhead to collect; policies read it to decide what
     * to promote. Off by default (no hot-path cost).
     */
    void enableHeatTracking(bool on) { trackHeat = on; }

    /** Walks observed per huge-region VPN since the last clear. */
    const std::unordered_map<std::uint64_t, std::uint32_t> &
    regionHeat() const
    {
        return heat;
    }
    void clearHeat() { heat.clear(); }

    /**
     * Invoke @p hook every @p interval traced accesses (a background
     * daemon's wakeup tick, e.g. khugepaged during execution). Pass a
     * null hook to disable.
     */
    void
    setPeriodicHook(std::uint64_t interval,
                    std::function<void()> hook)
    {
        hookInterval = interval;
        periodicHook = std::move(hook);
        hookCountdown = interval;
    }

    /**
     * Invoke @p hook every @p interval traced accesses — the
     * telemetry sampler's epoch clock (obs::TimeSeriesSampler). Kept
     * separate from the periodic hook so sampling composes with
     * khugepaged-during-execution; like it, the hook must only
     * *observe* (a sampler that mutated simulation state would break
     * the disabled-vs-enabled bit-identity the obs layer guarantees).
     * Pass interval 0 (or a null hook) to disable.
     */
    void
    setSampleHook(std::uint64_t interval, std::function<void()> hook)
    {
        sampleInterval = hook ? interval : 0;
        sampleHook = std::move(hook);
        sampleCountdown = sampleInterval;
    }
    /** @} */

    /**
     * Install (or, with nullptr, remove) the access-stream recorder
     * (trace record-and-replay, see core/replay.hh). Costs one null
     * test per traced access while absent.
     */
    void setAccessRecorder(AccessRecorder *rec) { recorder = rec; }

    /** @name Fault-injection / cancellation hooks @{ */

    /** Install (or, with nullptr, remove) the swap-latency scaler. */
    void setSwapCostScaler(SwapCostScaler *scaler)
    {
        swapScaler = scaler;
    }

    /**
     * Install a cooperative cancellation flag (the experiment engine's
     * watchdog sets it on timeout). Checked only on the out-of-line
     * miss path — the inlined hot path stays untouched — plus at
     * runExperiment phase boundaries, so cancellation latency is at
     * most one all-hits streak. Throws util CancelledError when set.
     */
    void setCancelFlag(const std::atomic<bool> *flag)
    {
        cancelFlag = flag;
    }
    /** @} */

    /**
     * Apply pending address-space invalidations immediately (called by
     * drivers after background khugepaged work; also runs after every
     * access).
     */
    void syncTlb();

    /** @name Simulated time @{ */
    Cycles totalCycles() const
    {
        return baseCycles.value() + memoryCycles.value() +
               translationCycles.value() + faultCycles.value() +
               osCycles.value() + ioCycles.value();
    }
    double seconds() const { return costs.seconds(totalCycles()); }
    /** @} */

    /** @name Rates (paper metrics) @{ */
    double
    dtlbMissRate() const
    {
        return ratio(dtlbMisses.value(), accesses.value());
    }
    double
    stlbMissRate() const
    {
        return ratio(walks.value(), accesses.value());
    }
    /** @} */

    const CostModel &costModel() const { return costs; }
    CacheModel *cacheModel() { return cache.get(); }
    Tlb &l1() { return dtlb; }
    Tlb &l2() { return stlb; }

    void registerStats(StatSet &stats, const std::string &prefix) const;

    /** @name Event counters @{ */
    Counter accesses;
    Counter dtlbMisses;  ///< missed both L1 classes
    Counter stlbHits;    ///< L1 miss resolved by the STLB
    Counter walks;       ///< missed both TLB levels
    Counter walksBase;
    Counter walksHuge;
    Counter walksGiant;

    Counter baseCycles;
    Counter memoryCycles;
    Counter translationCycles;
    Counter faultCycles;
    Counter osCycles;
    Counter ioCycles;

    /** Traced accesses backed by a remote-node frame (two-node
     *  machines only; registered only when NUMA is active). */
    Counter remoteAccesses;
    /** @} */

    /** Per-tag attribution. */
    struct TagStats
    {
        Counter accesses;
        Counter dtlbMisses;
        Counter walks;
    };
    const TagStats &tagStats(unsigned tag) const { return tags.at(tag); }

  private:
    static double
    ratio(std::uint64_t num, std::uint64_t den)
    {
        return den == 0 ? 0.0
                        : static_cast<double>(num) /
                              static_cast<double>(den);
    }

    /** Charge fault/OS costs reported by a touch. */
    void chargeTouch(const vm::TouchInfo &info);

    /** Out-of-line continuation of access() after an L1 DTLB miss:
     *  STLB probes, page walk (possibly faulting), TLB refills.
     *  @return the frame backing @p vaddr, for remote-tier charging. */
    mem::FrameNum accessMiss(Addr vaddr, bool write, unsigned tag);

    /**
     * Per-tag last-translation cache entry. Pins the L1 entry that
     * resolved this tag's previous access; the next access re-validates
     * it by identity (valid + vpn + cls) and by address range, so any
     * invalidation, eviction, refresh or flush that touches the entry
     * is detected without a generation counter. pageEnd == 0 until the
     * first hit is recorded, which makes the range check fail before
     * `way` is ever dereferenced.
     */
    struct ReuseEntry
    {
        Tlb::Way *way = nullptr;
        std::uint64_t vpn = 0; ///< in the class's own VPN units
        Addr pageBase = 0;
        Addr pageEnd = 0;
        vm::PageSizeClass cls = vm::PageSizeClass::Base;
        unsigned probes = 1; ///< L1 class probes up to and incl. the hit
    };

    /** Record the translation that resolved @p vaddr for reuse. */
    void
    noteReuse(unsigned tag, Tlb::Way *way, vm::PageSizeClass cls,
              Addr vaddr)
    {
        if (way == nullptr)
            return;
        ReuseEntry &re = reuse[tag];
        re.way = way;
        re.vpn = way->vpn;
        re.cls = cls;
        switch (cls) {
          case vm::PageSizeClass::Base:
            re.pageBase = vaddr & ~(pageBytes - 1);
            re.pageEnd = re.pageBase + pageBytes;
            re.probes = 1;
            break;
          case vm::PageSizeClass::Huge:
            re.pageBase = vaddr & ~hugeMask;
            re.pageEnd = re.pageBase + hugeMask + 1;
            re.probes = 2;
            break;
          case vm::PageSizeClass::Giant:
            re.pageBase = vaddr & ~giantMask;
            re.pageEnd = re.pageBase + giantMask + 1;
            re.probes = 3;
            break;
        }
    }

    vm::AddressSpace &space;
    CostModel costs;
    Tlb dtlb;
    Tlb stlb;
    std::unique_ptr<CacheModel> cache;

    unsigned baseShift;
    unsigned hugeShift;
    unsigned giantShift = 0; ///< 0: giant pages disabled
    std::uint64_t pageBytes;
    std::uint64_t hugeMask;
    std::uint64_t giantMask = 0;

    /**
     * mem::remoteNodeFrameBase on a two-node machine, otherwise
     * invalidFrame (== UINT64_MAX) so `frame >= remoteFrameBase` is
     * false for every translated frame and the hot path stays a single
     * always-false compare on single-node machines.
     */
    mem::FrameNum remoteFrameBase = mem::invalidFrame;

    bool trackHeat = false;
    std::unordered_map<std::uint64_t, std::uint32_t> heat;

    SwapCostScaler *swapScaler = nullptr;
    const std::atomic<bool> *cancelFlag = nullptr;
    AccessRecorder *recorder = nullptr;

    std::function<void()> periodicHook;
    std::uint64_t hookInterval = 0;
    std::uint64_t hookCountdown = 0;

    std::function<void()> sampleHook;
    std::uint64_t sampleInterval = 0;
    std::uint64_t sampleCountdown = 0;

    std::array<TagStats, numTags> tags;
    std::array<ReuseEntry, numTags> reuse;
};

inline void
Mmu::access(Addr vaddr, bool write, unsigned tag)
{
    GPSM_ASSERT(tag < numTags);
    if (recorder != nullptr)
        recorder->recordAccess(vaddr, write, tag);
    ++accesses;
    ++tags[tag].accesses;
    baseCycles += costs.baseAccessCycles;

    // Track the frame that backs this access on every branch: the
    // remote-DRAM tier charges by the *node* of the translated frame,
    // which the virtually-indexed cache cannot know on its own.
    mem::FrameNum frame;
    ReuseEntry &re = reuse[tag];
    if (vaddr >= re.pageBase && vaddr < re.pageEnd && re.way->valid &&
        re.way->vpn == re.vpn && re.way->cls == re.cls) {
        // Same page as this tag's previous access and the pinned L1
        // entry is still resident: account the probe sequence that
        // would have hit it, without scanning.
        dtlb.touchEntry(re.way, re.probes);
        frame = re.way->frame;
    } else {
        // L1: probe every size class (parallel sub-TLBs in hardware).
        Tlb::Probe p = dtlb.lookup(vaddr >> baseShift,
                                   vm::PageSizeClass::Base);
        if (p.hit) {
            noteReuse(tag, p.way, vm::PageSizeClass::Base, vaddr);
            frame = p.frame;
        } else {
            p = dtlb.lookup(vaddr >> hugeShift, vm::PageSizeClass::Huge);
            if (p.hit) {
                noteReuse(tag, p.way, vm::PageSizeClass::Huge, vaddr);
                frame = p.frame;
            } else if (giantShift != 0 &&
                       (p = dtlb.lookup(vaddr >> giantShift,
                                        vm::PageSizeClass::Giant))
                           .hit) {
                noteReuse(tag, p.way, vm::PageSizeClass::Giant, vaddr);
                frame = p.frame;
            } else {
                frame = accessMiss(vaddr, write, tag);
            }
        }
    }

    // remoteFrameBase is UINT64_MAX on single-node machines, so this
    // compare is never taken there and no remote cost exists.
    const bool remote = frame >= remoteFrameBase;
    if (remote)
        ++remoteAccesses;
    if (cache) {
        // The data cache is indexed by *virtual* address: physical
        // indexing at this scaled operating point would inject page-
        // coloring noise (the scaled datasets are comparable in size
        // to the LLC, unlike the paper's, where placement effects wash
        // out). Virtual indexing keeps locality effects — including
        // DBG's — while making runs placement-invariant. Remote-node
        // placement therefore charges only on full misses, when the
        // line actually crosses the interconnect.
        memoryCycles += cache->access(
            vaddr, tag, remote ? costs.remoteMemoryCycles : 0);
    } else if (remote) {
        // No cache model: every access is a DRAM access.
        memoryCycles += costs.remoteMemoryCycles;
    }

    if (space.hasPendingInvalidations())
        syncTlb();

    if (hookInterval != 0 && --hookCountdown == 0) {
        hookCountdown = hookInterval;
        periodicHook();
    }

    if (sampleInterval != 0 && --sampleCountdown == 0) {
        sampleCountdown = sampleInterval;
        sampleHook();
    }
}

} // namespace gpsm::tlb

#endif // GPSM_TLB_MMU_HH
