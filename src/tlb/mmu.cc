/**
 * @file
 * Mmu implementation.
 */

#include "tlb/mmu.hh"

#include "util/bitops.hh"
#include "util/logging.hh"

namespace gpsm::tlb
{

Mmu::Mmu(vm::AddressSpace &target_space, Tlb l1, Tlb l2,
         const CostModel &cost_model,
         std::unique_ptr<CacheModel> cache_model)
    : space(target_space), costs(cost_model), dtlb(std::move(l1)),
      stlb(std::move(l2)), cache(std::move(cache_model))
{
    pageBytes = space.basePageBytes();
    baseShift = floorLog2(pageBytes);
    hugeShift = floorLog2(space.hugePageBytes());
    hugeMask = space.hugePageBytes() - 1;
    const unsigned giant_order = space.memoryNode().giantOrder();
    if (giant_order != 0) {
        giantShift = baseShift + giant_order;
        giantMask = (pageBytes << giant_order) - 1;
    }
    if (space.remoteMemoryNode() != nullptr)
        remoteFrameBase = mem::remoteNodeFrameBase;
}

void
Mmu::chargeTouch(const vm::TouchInfo &info)
{
    // Remote-node fault service crosses the interconnect (zeroing or
    // copying into far DRAM); the multipliers only ever apply on a
    // two-node machine — info.remote is constant-false otherwise, so
    // the single-node path performs no floating-point work at all.
    const auto scale = [](std::uint64_t cycles, double mult) {
        return static_cast<std::uint64_t>(
            static_cast<double>(cycles) * mult);
    };
    if (info.majorFault) {
        // Swap-in cost goes through the fault-injection latency scaler
        // when one is installed (a transient device slowdown window).
        std::uint64_t in_cycles = costs.majorFaultCycles;
        if (info.remote)
            in_cycles = scale(in_cycles, costs.remoteSwapMultiplier);
        if (swapScaler != nullptr)
            in_cycles = swapScaler->scaleSwapCycles(in_cycles);
        faultCycles += in_cycles;
    } else if (info.hugeFault) {
        std::uint64_t huge_cycles = costs.hugeFaultCycles(
            static_cast<unsigned>(hugeShift - baseShift));
        if (info.remote)
            huge_cycles = scale(huge_cycles,
                                costs.remoteFaultMultiplier);
        faultCycles += huge_cycles;
    } else if (info.pageFault) {
        std::uint64_t minor_cycles = costs.minorFaultCycles;
        if (info.remote)
            minor_cycles = scale(minor_cycles,
                                 costs.remoteFaultMultiplier);
        faultCycles += minor_cycles;
    }
    // Out-of-core file traffic: the storage fill extends the faulting
    // access (fault bucket); dirty writebacks are kernel work done on
    // the eviction path (OS bucket). Zero on every in-core run.
    faultCycles += info.fileReadPages * costs.fileMapReadCycles;
    std::uint64_t os = 0;
    os += info.writebackPages * costs.fileMapWritebackCycles;
    os += info.migratedPages * costs.migrateCyclesPerPage;
    os += info.reclaimedPages * costs.reclaimCyclesPerPage;
    std::uint64_t swap_out =
        info.swappedOutPages * costs.swapOutCyclesPerPage;
    if (swap_out != 0 && info.remote)
        swap_out = scale(swap_out, costs.remoteSwapMultiplier);
    if (swap_out != 0 && swapScaler != nullptr)
        swap_out = swapScaler->scaleSwapCycles(swap_out);
    os += swap_out;
    os += info.compactionFailures * costs.compactionFailCycles;
    os += info.hugeAllocRetries * costs.hugeRetryBackoffCycles;
    if (os != 0)
        osCycles += os;
}

mem::FrameNum
Mmu::accessMiss(Addr vaddr, bool write, unsigned tag)
{
    // Watchdog cancellation is honored here, off the inlined all-hits
    // path: a timed-out run unwinds at its next DTLB miss.
    if (cancelFlag != nullptr &&
        cancelFlag->load(std::memory_order_relaxed)) {
        throw CancelledError("experiment cancelled during access");
    }

    const std::uint64_t vpn_base = vaddr >> baseShift;
    const std::uint64_t vpn_huge = vaddr >> hugeShift;

    ++dtlbMisses;
    ++tags[tag].dtlbMisses;

    // STLB: unified second level.
    Tlb::Probe p = stlb.lookup(vpn_base, vm::PageSizeClass::Base);
    if (p.hit) {
        ++stlbHits;
        translationCycles += costs.stlbHitCycles;
        noteReuse(tag,
                  dtlb.insert(vpn_base, vm::PageSizeClass::Base,
                              p.frame),
                  vm::PageSizeClass::Base, vaddr);
        return p.frame;
    }
    p = stlb.lookup(vpn_huge, vm::PageSizeClass::Huge);
    if (p.hit) {
        ++stlbHits;
        translationCycles += costs.stlbHitCycles;
        noteReuse(tag,
                  dtlb.insert(vpn_huge, vm::PageSizeClass::Huge,
                              p.frame),
                  vm::PageSizeClass::Huge, vaddr);
        return p.frame;
    }

    // Page walk (possibly faulting).
    ++walks;
    ++tags[tag].walks;
    if (trackHeat)
        ++heat[vaddr >> hugeShift];
    vm::TouchInfo info = space.touch(vaddr, write);
    chargeTouch(info);

    if (info.size == vm::PageSizeClass::Base) {
        ++walksBase;
        translationCycles += costs.walkCyclesBase;
        stlb.insert(vpn_base, vm::PageSizeClass::Base, info.frame);
        noteReuse(tag,
                  dtlb.insert(vpn_base, vm::PageSizeClass::Base,
                              info.frame),
                  vm::PageSizeClass::Base, vaddr);
    } else if (info.size == vm::PageSizeClass::Giant) {
        // Giant translations live only in the L1 giant sub-TLB
        // (Haswell's STLB does not cache 1GB entries).
        ++walksGiant;
        translationCycles += costs.walkCyclesGiant;
        noteReuse(tag,
                  dtlb.insert(vaddr >> giantShift,
                              vm::PageSizeClass::Giant, info.frame),
                  vm::PageSizeClass::Giant, vaddr);
    } else {
        ++walksHuge;
        translationCycles += costs.walkCyclesHuge;
        stlb.insert(vpn_huge, vm::PageSizeClass::Huge, info.frame);
        noteReuse(tag,
                  dtlb.insert(vpn_huge, vm::PageSizeClass::Huge,
                              info.frame),
                  vm::PageSizeClass::Huge, vaddr);
    }
    return info.frame;
}

void
Mmu::translateRun(Addr start, std::size_t count, std::size_t stride,
                  bool write, unsigned tag)
{
    GPSM_ASSERT(tag < numTags);
    GPSM_ASSERT(stride != 0);
    if (recorder != nullptr) {
        // One run record stands for the whole call; suppress the
        // recorder around the body so the per-element boundary
        // accesses it issues internally are not recorded a second
        // time (replay re-dispatches the run as one translateRun).
        recorder->recordRun(start, count, stride, write, tag);
        AccessRecorder *const saved = recorder;
        recorder = nullptr;
        try {
            translateRunBody(start, count, stride, write, tag);
        } catch (...) {
            recorder = saved;
            throw;
        }
        recorder = saved;
        return;
    }
    translateRunBody(start, count, stride, write, tag);
}

void
Mmu::translateRunBody(Addr start, std::size_t count, std::size_t stride,
                      bool write, unsigned tag)
{
    std::size_t i = 0;
    while (i < count) {
        access(start + i * stride, write, tag);
        ++i;
        if (i >= count)
            return;
        // A periodic hook may have queued invalidations after the
        // in-access drain; bulk steps assume a quiescent TLB.
        if (space.hasPendingInvalidations())
            continue;
        const ReuseEntry &re = reuse[tag];
        const Addr next = start + i * stride;
        if (!(next >= re.pageBase && next < re.pageEnd &&
              re.way != nullptr && re.way->valid &&
              re.way->vpn == re.vpn && re.way->cls == re.cls))
            continue;
        // Elements the validated translation still covers, capped so
        // a hook/sample firing always takes the per-element path.
        std::uint64_t n = (re.pageEnd - next + stride - 1) / stride;
        n = std::min<std::uint64_t>(n, count - i);
        if (hookInterval != 0)
            n = std::min<std::uint64_t>(n, hookCountdown - 1);
        if (sampleInterval != 0)
            n = std::min<std::uint64_t>(n, sampleCountdown - 1);
        if (n == 0)
            continue;
        // Bulk accounting: exactly n per-element accesses, each an L1
        // reuse hit with no fault, no pending work and no hook firing.
        accesses += n;
        tags[tag].accesses += n;
        baseCycles += n * costs.baseAccessCycles;
        dtlb.touchEntryRun(re.way, re.probes, n);
        // The whole bulk step stays within one page, so one node backs
        // all n elements.
        const bool remote = re.way->frame >= remoteFrameBase;
        if (remote)
            remoteAccesses += n;
        if (cache)
            memoryCycles += cache->accessRun(
                next, stride, n, tag,
                remote ? costs.remoteMemoryCycles : 0);
        else if (remote)
            memoryCycles += n * costs.remoteMemoryCycles;
        if (hookInterval != 0)
            hookCountdown -= n;
        if (sampleInterval != 0)
            sampleCountdown -= n;
        i += n;
    }
}

void
Mmu::syncTlb()
{
    if (!space.hasPendingInvalidations())
        return;
    auto events = space.drainInvalidations();
    const unsigned huge_shift = hugeShift - baseShift;
    for (const vm::TlbInvalidation &ev : events) {
        if (ev.flushAll) {
            dtlb.flushAll();
            stlb.flushAll();
        } else {
            // Events carry base-page VPNs; huge-class TLB entries are
            // keyed in huge-page units.
            const std::uint64_t vpn =
                ev.size == vm::PageSizeClass::Huge
                    ? ev.vpn >> huge_shift
                    : ev.vpn;
            dtlb.invalidate(vpn, ev.size);
            stlb.invalidate(vpn, ev.size);
        }
    }
    osCycles += events.size() * costs.shootdownCycles;
}

void
Mmu::flushTlbs()
{
    dtlb.flushAll();
    stlb.flushAll();
}

void
Mmu::registerStats(StatSet &stats, const std::string &prefix) const
{
    stats.registerCounter(prefix + ".accesses", &accesses,
                          "traced memory accesses");
    stats.registerCounter(prefix + ".dtlbMisses", &dtlbMisses,
                          "accesses missing the first-level DTLB");
    stats.registerCounter(prefix + ".stlbHits", &stlbHits,
                          "DTLB misses resolved by the STLB");
    stats.registerCounter(prefix + ".walks", &walks,
                          "accesses requiring a page table walk");
    stats.registerCounter(prefix + ".walksBase", &walksBase,
                          "walks resolving to base pages");
    stats.registerCounter(prefix + ".walksHuge", &walksHuge,
                          "walks resolving to huge pages");
    stats.registerCounter(prefix + ".walksGiant", &walksGiant,
                          "walks resolving to giant pages");
    stats.registerCounter(prefix + ".cycles.base", &baseCycles,
                          "fixed per-access cycles");
    stats.registerCounter(prefix + ".cycles.memory", &memoryCycles,
                          "data cache hierarchy cycles");
    stats.registerCounter(prefix + ".cycles.translation",
                          &translationCycles,
                          "STLB hit and page walk cycles");
    stats.registerCounter(prefix + ".cycles.fault", &faultCycles,
                          "page fault service cycles");
    stats.registerCounter(prefix + ".cycles.os", &osCycles,
                          "compaction/reclaim/swap/shootdown cycles");
    stats.registerCounter(prefix + ".cycles.io", &ioCycles,
                          "input-file staging cycles (load path)");
    if (hasRemoteNode()) {
        // Only a two-node machine registers this key, so single-node
        // stat dumps keep their exact pre-NUMA key set.
        stats.registerCounter(prefix + ".remoteAccesses",
                              &remoteAccesses,
                              "traced accesses backed by the remote "
                              "node");
    }
}

} // namespace gpsm::tlb
