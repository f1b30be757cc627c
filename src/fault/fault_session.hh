/**
 * @file
 * FaultSession: interprets one FaultPlan against one SimMachine.
 */

#ifndef GPSM_FAULT_FAULT_SESSION_HH
#define GPSM_FAULT_FAULT_SESSION_HH

#include <cstdint>
#include <vector>

#include "fault/fault_plan.hh"
#include "mem/memhog.hh"
#include "mem/memory_node.hh"
#include "mem/swap_device.hh"
#include "obs/hooks.hh"
#include "tlb/mmu.hh"
#include "util/rng.hh"

namespace gpsm::fault
{

/**
 * Live interpreter for a FaultPlan.
 *
 * The session installs itself into the machine's narrow injection
 * hooks (MemoryNode allocation interceptor, SwapDevice slot
 * interceptor, Mmu swap-cost scaler) on construction and uninstalls on
 * destruction — a machine with no session behaves bit-identically to
 * one built before the fault layer existed.
 *
 * The fault clock is the machine's traced-access counter
 * (Mmu::accesses), read lazily at hook sites: no per-access cost is
 * added anywhere. Start-anchored events are resolved immediately;
 * KernelStart-anchored ones stay dormant until the experiment driver
 * calls enterKernelPhase(). Every applied point event and every veto
 * window crossing is appended to a bounded trace so tests can assert
 * determinism (same plan + same seeds => same trace).
 */
class FaultSession final : public mem::AllocationInterceptor,
                           public mem::SwapInterceptor,
                           public tlb::SwapCostScaler
{
  public:
    /**
     * @param plan The plan to interpret (copied).
     * @param config_seed The experiment seed; mixed into the plan seed
     *        so probabilistic vetoes differ across experiment seeds
     *        but are reproducible for each.
     * @param trace_hook Where every applied point event (FaultEvent) and
     *        veto (FaultVeto) is mirrored: the machine's trace fan-out,
     *        or null. Observation-only; it must outlive the session.
     */
    FaultSession(const FaultPlan &plan, std::uint64_t config_seed,
                 mem::MemoryNode &node, mem::SwapDevice &swap,
                 tlb::Mmu &mmu, obs::TraceHook *trace_hook = nullptr);
    ~FaultSession() override;

    FaultSession(const FaultSession &) = delete;
    FaultSession &operator=(const FaultSession &) = delete;

    /**
     * Resolve KernelStart anchors against the current clock. Call once,
     * immediately before the kernel runs. Point events anchored there
     * with offset 0 fire right away.
     */
    void enterKernelPhase();

    /** @name Interceptor hooks (called by the machine, not users) @{ */
    void onAllocate() override;
    bool dropHugeAllocation() override;
    bool stallSlotAllocation() override;
    std::uint64_t scaleSwapCycles(std::uint64_t cycles) override;
    /** @} */

    /** One applied point event or veto, for determinism assertions. */
    struct AppliedEvent
    {
        std::uint64_t clock = 0;
        FaultKind kind = FaultKind::HugeAllocFail;
        /** Kind-specific: bytes pinned/released, cycles scaled, ... */
        std::uint64_t detail = 0;
    };

    /** Applied-event trace (capped at traceCapacity entries). */
    const std::vector<AppliedEvent> &trace() const { return applied; }

    /** Total events applied (uncapped, unlike the trace). */
    std::uint64_t eventsApplied() const { return appliedCount; }

    /** Bytes currently pinned by the transient hog. */
    std::uint64_t transientHeldBytes() const
    {
        return transientHog.heldBytes();
    }

    static constexpr std::size_t traceCapacity = 65536;

  private:
    /** One plan event bound to resolved clock values. */
    struct Scheduled
    {
        FaultEvent ev;
        std::uint64_t startClock = 0;
        std::uint64_t endClock = ~0ull;
        bool startResolved = false;
        bool endResolved = false;
        bool fired = false; ///< point events only
        /** Remaining correlated-burst vetoes (HugeAllocFail only). */
        std::uint64_t burstLeft = 0;
    };

    std::uint64_t now() const;

    void resolveAnchor(FaultAnchor anchor, std::uint64_t base);
    void firePointEvents();
    void record(FaultKind kind, std::uint64_t detail);

    static bool isWindow(FaultKind kind)
    {
        return kind == FaultKind::HugeAllocFail ||
               kind == FaultKind::SwapLatency ||
               kind == FaultKind::SwapStall;
    }

    /** Is the window of @p s open at clock @p clock? */
    static bool
    windowActive(const Scheduled &s, std::uint64_t clock)
    {
        return s.startResolved && clock >= s.startClock &&
               !(s.endResolved && clock >= s.endClock);
    }

    mem::MemoryNode &node;
    mem::SwapDevice &swap;
    tlb::Mmu &mmu;

    std::vector<Scheduled> schedule;
    Rng rng;

    mem::Memhog transientHog;  ///< MemhogArrive/MemhogDepart target
    mem::Memhog permanentHog;  ///< FramePoolShrink target

    std::vector<AppliedEvent> applied;
    obs::TraceHook *const traceHook;
    std::uint64_t appliedCount = 0;
    bool anyPending = false; ///< unfired point events remain
};

} // namespace gpsm::fault

#endif // GPSM_FAULT_FAULT_SESSION_HH
