/**
 * @file
 * FaultSession implementation.
 */

#include "fault/fault_session.hh"

#include "util/logging.hh"

namespace gpsm::fault
{

namespace
{

/** splitmix64-style mix of the plan seed and the experiment seed. */
std::uint64_t
mixSeeds(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t z = a + 0x9e3779b97f4a7c15ull * (b + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

FaultSession::FaultSession(const FaultPlan &plan,
                           std::uint64_t config_seed,
                           mem::MemoryNode &target_node,
                           mem::SwapDevice &target_swap,
                           tlb::Mmu &target_mmu,
                           obs::TraceHook *trace_hook)
    : node(target_node), swap(target_swap), mmu(target_mmu),
      rng(mixSeeds(plan.seed, config_seed)), transientHog(target_node),
      permanentHog(target_node), traceHook(trace_hook)
{
    schedule.reserve(plan.events.size());
    for (const FaultEvent &ev : plan.events) {
        Scheduled s;
        s.ev = ev;
        s.burstLeft = ev.burst;
        schedule.push_back(s);
    }
    resolveAnchor(FaultAnchor::Start, now());

    node.setInterceptor(this);
    swap.setInterceptor(this);
    mmu.setSwapCostScaler(this);

    // Start-anchored, offset-0 point events (e.g. a hog resident from
    // the beginning) fire before the first allocation.
    firePointEvents();
}

FaultSession::~FaultSession()
{
    node.setInterceptor(nullptr);
    swap.setInterceptor(nullptr);
    mmu.setSwapCostScaler(nullptr);
    // The hogs release their frames in their own destructors.
}

std::uint64_t
FaultSession::now() const
{
    return mmu.accesses.value();
}

void
FaultSession::resolveAnchor(FaultAnchor anchor, std::uint64_t base)
{
    anyPending = false;
    for (Scheduled &s : schedule) {
        if (s.ev.anchor == anchor && !s.startResolved) {
            s.startResolved = true;
            // Saturate instead of wrapping for "end of run" offsets.
            s.startClock = base + s.ev.at < base ? ~0ull : base + s.ev.at;
        }
        if (isWindow(s.ev.kind) && s.ev.endAnchor == anchor &&
            !s.endResolved) {
            s.endResolved = true;
            s.endClock =
                base + s.ev.endAt < base ? ~0ull : base + s.ev.endAt;
        }
        if (!isWindow(s.ev.kind) && !s.fired)
            anyPending = true;
    }
}

void
FaultSession::enterKernelPhase()
{
    resolveAnchor(FaultAnchor::KernelStart, now());
    firePointEvents();
}

void
FaultSession::record(FaultKind kind, std::uint64_t detail)
{
    ++appliedCount;
    if (applied.size() < traceCapacity)
        applied.push_back({now(), kind, detail});
    if (traceHook != nullptr) {
        traceHook->traceEvent(isWindow(kind) ? obs::TraceKind::FaultVeto
                                             : obs::TraceKind::FaultEvent,
                              detail, faultKindName(kind));
    }
}

void
FaultSession::firePointEvents()
{
    if (!anyPending)
        return;
    const std::uint64_t clock = now();
    bool pending = false;
    for (Scheduled &s : schedule) {
        if (isWindow(s.ev.kind) || s.fired)
            continue;
        if (!s.startResolved || clock < s.startClock) {
            pending = true;
            continue;
        }
        s.fired = true;
        switch (s.ev.kind) {
          case FaultKind::MemhogArrive: {
            const std::uint64_t got =
                s.ev.allButBytes
                    ? transientHog.occupyAllBut(s.ev.bytes)
                    : transientHog.occupy(s.ev.bytes);
            record(s.ev.kind, got);
            break;
          }
          case FaultKind::MemhogDepart: {
            const std::uint64_t held = transientHog.heldBytes();
            transientHog.release();
            record(s.ev.kind, held);
            break;
          }
          case FaultKind::FramePoolShrink: {
            const std::uint64_t got =
                s.ev.allButBytes
                    ? permanentHog.occupyAllBut(s.ev.bytes)
                    : permanentHog.occupy(s.ev.bytes);
            record(s.ev.kind, got);
            break;
          }
          default:
            panic("window fault kind in point-event dispatch");
        }
    }
    anyPending = pending;
}

void
FaultSession::onAllocate()
{
    firePointEvents();
}

bool
FaultSession::dropHugeAllocation()
{
    const std::uint64_t clock = now();
    for (Scheduled &s : schedule) {
        if (s.ev.kind != FaultKind::HugeAllocFail ||
            !windowActive(s, clock)) {
            continue;
        }
        if (s.ev.burst > 0) {
            // Correlated burst: the first `burst` requests inside the
            // window are vetoed back to back (deterministically,
            // regardless of `probability`); after that the window is
            // spent and allocation recovers.
            if (s.burstLeft == 0)
                continue;
            --s.burstLeft;
            record(s.ev.kind, 1);
            return true;
        }
        if (s.ev.probability >= 1.0 || rng.chance(s.ev.probability)) {
            record(s.ev.kind, 1);
            return true;
        }
    }
    return false;
}

bool
FaultSession::stallSlotAllocation()
{
    const std::uint64_t clock = now();
    for (Scheduled &s : schedule) {
        if (s.ev.kind == FaultKind::SwapStall && windowActive(s, clock)) {
            record(s.ev.kind, 1);
            return true;
        }
    }
    return false;
}

std::uint64_t
FaultSession::scaleSwapCycles(std::uint64_t cycles)
{
    const std::uint64_t clock = now();
    double factor = 1.0;
    for (const Scheduled &s : schedule) {
        if (s.ev.kind == FaultKind::SwapLatency &&
            windowActive(s, clock)) {
            factor *= s.ev.factor;
        }
    }
    if (factor == 1.0)
        return cycles;
    const double scaled = static_cast<double>(cycles) * factor;
    return static_cast<std::uint64_t>(scaled);
}

} // namespace gpsm::fault
