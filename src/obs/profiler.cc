/**
 * @file
 * Phase profiler implementation.
 */

#include "obs/profiler.hh"

#include <mutex>

namespace gpsm::obs
{

namespace
{

bool gProfiling = false;

/** In-flight per-run accumulators of the calling thread. */
thread_local PhaseBreakdown tRun;

std::mutex &
totalsMutex()
{
    static std::mutex m;
    return m;
}

ProfTotals &
totals()
{
    static ProfTotals t;
    return t;
}

} // namespace

const char *
profPhaseName(ProfPhase phase)
{
    switch (phase) {
      case ProfPhase::Build: return "build";
      case ProfPhase::Load: return "load";
      case ProfPhase::Kernel: return "kernel";
      case ProfPhase::Verify: return "verify";
      case ProfPhase::ReplayDispatch: return "replay_dispatch";
    }
    return "?";
}

void
setProfiling(bool on)
{
    gProfiling = on;
}

bool
profilingEnabled()
{
    return gProfiling;
}

void
profBeginRun()
{
    if (!gProfiling)
        return;
    tRun = PhaseBreakdown{};
}

PhaseBreakdown
profEndRun()
{
    if (!gProfiling)
        return PhaseBreakdown{};
    const PhaseBreakdown run = tRun;
    tRun = PhaseBreakdown{};
    std::lock_guard<std::mutex> lock(totalsMutex());
    ProfTotals &t = totals();
    for (std::size_t i = 0; i < profPhaseCount; ++i)
        t.phases.seconds[i] += run.seconds[i];
    ++t.runs;
    return run;
}

ProfTotals
profTotals()
{
    std::lock_guard<std::mutex> lock(totalsMutex());
    return totals();
}

void
profReset()
{
    std::lock_guard<std::mutex> lock(totalsMutex());
    totals() = ProfTotals{};
    tRun = PhaseBreakdown{};
}

ProfScope::ProfScope(ProfPhase phase) : phase(phase)
{
    if (!gProfiling)
        return;
    active = true;
    start = std::chrono::steady_clock::now();
}

ProfScope::~ProfScope()
{
    if (!active)
        return;
    tRun.seconds[static_cast<unsigned>(phase)] +=
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
}

} // namespace gpsm::obs
