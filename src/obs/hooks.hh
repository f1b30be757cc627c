/**
 * @file
 * Narrow observability hook interface, in the style of the fault
 * layer's interceptors (mem::AllocationInterceptor): memory-management
 * components call a TraceHook at the handful of discrete events the
 * telemetry layer records. A machine wires its components once to its
 * TraceFanout; observers attach to the fan-out, not to components.
 * With no observer attached an event site costs a virtual call and an
 * empty loop on paths that are already rare (promotion, compaction,
 * fault vetoes), and the simulation state they observe is never
 * modified, so an unobserved run is bit-identical to a build without
 * the obs layer.
 *
 * This header is dependency-free so vm/, mem/ and fault/ can include
 * it without linking gpsm_obs; only the implementations (obs::
 * TraceSink) live in the obs library.
 */

#ifndef GPSM_OBS_HOOKS_HH
#define GPSM_OBS_HOOKS_HH

#include <cstdint>
#include <vector>

namespace gpsm::obs
{

/** The discrete events the trace layer distinguishes. */
enum class TraceKind : std::uint8_t
{
    Promotion,      ///< khugepaged collapsed a huge region
    Demotion,       ///< a huge mapping was split back to base pages
    CompactionRun,  ///< one direct-compaction pass at the node
    FaultVeto,      ///< fault layer vetoed a huge allocation
    FaultEvent,     ///< fault layer applied a scheduled point event
    PhaseBegin,     ///< experiment phase started (init, kernel, ...)
    PhaseEnd,       ///< experiment phase ended
};

const char *traceKindName(TraceKind kind);

/**
 * Receiver for discrete trace events. Implemented by obs::TraceSink
 * (telemetry), obs::RunEventPublisher (event stream) and TraceFanout.
 */
class TraceHook
{
  public:
    virtual ~TraceHook() = default;

    /**
     * One discrete event. @p detail is kind-specific (pages copied by
     * a promotion, pages migrated by a compaction run, ...); @p name
     * optionally labels the event site (phase name, fault kind) and
     * must be a literal or otherwise outlive the call.
     */
    virtual void traceEvent(TraceKind kind, std::uint64_t detail,
                            const char *name) = 0;
};

/** One machine's trace fan-out: forwards each event to every attached
 *  receiver, in attach order, for the machine's lifetime. */
class TraceFanout final : public TraceHook
{
  public:
    void attach(TraceHook &hook) { hooks.push_back(&hook); }

    void
    traceEvent(TraceKind kind, std::uint64_t detail,
               const char *name) override
    {
        for (TraceHook *hook : hooks)
            hook->traceEvent(kind, detail, name);
    }

  private:
    std::vector<TraceHook *> hooks;
};

} // namespace gpsm::obs

#endif // GPSM_OBS_HOOKS_HH
