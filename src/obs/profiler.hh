/**
 * @file
 * Host-side phase profiler: wall-time per experiment phase.
 *
 * Unlike everything else in obs/, this layer measures the *simulator*
 * (host wall-clock per phase), not the simulated machine — the numbers
 * that tell us which scalar path to tighten next. It follows the same
 * dormancy discipline as telemetry: profiling is requested process-wide
 * via setProfiling() (--profile); with it unset
 * (the default) every ProfScope is a no-op, nothing is accumulated, no
 * file or document gains a byte, and a run is bit-identical to a build
 * without this layer.
 *
 * Accumulation is per-thread for the run phases (one experiment runs
 * wholly on one pool worker), folded into a mutex-guarded process
 * aggregate when the run finishes, so --jobs parallelism never
 * interleaves two runs' breakdowns.
 */

#ifndef GPSM_OBS_PROFILER_HH
#define GPSM_OBS_PROFILER_HH

#include <chrono>
#include <cstddef>
#include <cstdint>

namespace gpsm::obs
{

/**
 * The fixed phase vocabulary. Build/Load/Kernel/Verify partition a
 * live run; ReplayDispatch replaces Kernel on replayed runs (the
 * recorded stream fed through the MMU).
 */
enum class ProfPhase : unsigned
{
    Build = 0,      ///< dataset generation + preprocessing (reorder)
    Load,           ///< machine assembly, aging, view load, khugepaged
    Kernel,         ///< live kernel execution through the MMU
    Verify,         ///< output checksumming
    ReplayDispatch, ///< recorded-stream feed through the MMU
};

constexpr std::size_t profPhaseCount = 5;

const char *profPhaseName(ProfPhase phase);

/** Request (or drop) process-wide profiling. Set before the first
 *  experiment, like setTelemetry()/setReplay(). */
void setProfiling(bool on);
bool profilingEnabled();

/** Wall seconds per phase — one run's breakdown, or an aggregate. */
struct PhaseBreakdown
{
    double seconds[profPhaseCount] = {};

    double
    total() const
    {
        double t = 0.0;
        for (double s : seconds)
            t += s;
        return t;
    }
};

/** Process-wide aggregate across finished runs. */
struct ProfTotals
{
    PhaseBreakdown phases;
    std::uint64_t runs = 0;
};

/** Clear the calling thread's in-flight per-run accumulators (run
 *  start). No-op while profiling is off. */
void profBeginRun();

/**
 * Take the calling thread's per-run breakdown (run end): returns it,
 * clears the thread-local state and folds it into the process totals.
 * Returns a zero breakdown while profiling is off.
 */
PhaseBreakdown profEndRun();

/** Snapshot of the process aggregate (batch deltas, batches.jsonl). */
ProfTotals profTotals();

/** Drop the process aggregate (tests). */
void profReset();

/**
 * RAII phase timer: charges the wall time between construction and
 * destruction to the phase. Constructed cheaply when profiling is off
 * (one branch, no clock read).
 */
class ProfScope
{
  public:
    explicit ProfScope(ProfPhase phase);
    ~ProfScope();

    ProfScope(const ProfScope &) = delete;
    ProfScope &operator=(const ProfScope &) = delete;

  private:
    ProfPhase phase;
    bool active = false;
    std::chrono::steady_clock::time_point start;
};

} // namespace gpsm::obs

#endif // GPSM_OBS_PROFILER_HH
