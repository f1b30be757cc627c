/**
 * @file
 * Run telemetry: phase-bucketed time-series sampling of a machine's
 * StatSet, discrete-event tracing, and export as Chrome trace_event
 * JSON (Perfetto-loadable), compact JSONL, and per-run metrics
 * documents.
 *
 * Everything here is opt-in and observation-only. Telemetry is
 * requested process-wide via setTelemetry(); with it unset (the
 * default) no hook is installed anywhere, no file is written, and a
 * run is bit-identical to a build without this layer — the same
 * discipline the fault layer applies to dormant plans. The sampler is
 * clocked on the simulated access counter (Mmu::accesses), not wall
 * time, so sampled series are deterministic and identical at any
 * --jobs level.
 */

#ifndef GPSM_OBS_TELEMETRY_HH
#define GPSM_OBS_TELEMETRY_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/hooks.hh"
#include "obs/json.hh"
#include "util/stats.hh"

namespace gpsm::obs
{

/** Process-wide telemetry request (set once, before experiments). */
struct TelemetryOptions
{
    /**
     * Directory receiving one metrics JSON (and, when sampling, one
     * trace JSON + one series JSONL) per executed run. Empty disables
     * telemetry entirely.
     */
    std::string metricsDir;

    /**
     * Sampler epoch length in traced accesses. 0 disables the
     * time-series sampler (metrics documents are still written).
     */
    std::uint64_t sampleInterval = 1u << 20;
};

/**
 * Install the process-wide telemetry request. Not thread-safe against
 * in-flight experiments: call before the first run (bench option
 * parsing), or between batches. Creates @p options.metricsDir (one
 * level) when needed. Passing a default-constructed TelemetryOptions
 * with an empty metricsDir turns telemetry back off.
 */
void setTelemetry(const TelemetryOptions &options);

/** The active request (meaningful only when telemetryEnabled()). */
const TelemetryOptions &telemetry();

/** True when a metrics directory has been requested. */
bool telemetryEnabled();

/** 16-hex-digit FNV-1a fingerprint hash: the per-run file identity. */
std::string runId(const std::string &fingerprint);

/** mkdir -p (single level per call); true when the dir exists after. */
bool ensureDir(const std::string &path);

/** Durable whole-file write (temp file + rename). */
bool writeFileAtomic(const std::string &path,
                     const std::string &content);

/**
 * Epoch-bucketed StatSet sampler.
 *
 * tick() — driven by the Mmu's sample hook every interval accesses —
 * snapshots the machine StatSet and stores the delta since the
 * previous epoch, plus any gauges (point-in-time values such as
 * per-array huge coverage) from the installed provider. Zero-valued
 * deltas are dropped so long quiet phases stay compact. finish()
 * captures the trailing partial epoch.
 */
class TimeSeriesSampler
{
  public:
    struct Epoch
    {
        std::uint64_t index = 0;
        std::uint64_t clock = 0; ///< Mmu::accesses at capture
        std::map<std::string, std::uint64_t> deltas;
        std::vector<std::pair<std::string, std::uint64_t>> gauges;
    };

    /** Point-in-time gauge values, re-evaluated every epoch. */
    using GaugeProvider = std::function<
        std::vector<std::pair<std::string, std::uint64_t>>()>;

    /**
     * @param stats The machine StatSet (alive for every tick() and
     *        finish(); the destructor does not read it).
     * @param clock The access counter epochs are stamped with.
     * @param interval Epoch length in accesses (documentation only;
     *        ticking is driven externally).
     */
    TimeSeriesSampler(const StatSet &stats, const Counter &clock,
                      std::uint64_t interval);

    void setGaugeProvider(GaugeProvider provider)
    {
        gauges = std::move(provider);
    }

    /**
     * Capture one epoch (called from the Mmu sample hook).
     * @return the captured epoch (owned by the sampler, stable until
     *         the next capture may reallocate), or nullptr when the
     *         tick fell past maxEpochs and was counted as dropped —
     *         live consumers forward exactly the epochs that were
     *         kept.
     */
    const Epoch *tick();

    /**
     * Capture the trailing partial epoch (if anything accumulated).
     * @return the epoch as tick(), or nullptr when nothing moved.
     */
    const Epoch *finish();

    const std::vector<Epoch> &epochs() const { return series; }
    std::uint64_t interval() const { return epochInterval; }

    /** Epoch capacity guard: ticks past this are counted, not kept. */
    static constexpr std::size_t maxEpochs = 1u << 16;
    std::uint64_t droppedEpochs() const { return dropped; }

  private:
    const StatSet &stats;
    const Counter &clock;
    std::uint64_t epochInterval;
    std::map<std::string, std::uint64_t> prev;
    std::vector<Epoch> series;
    GaugeProvider gauges;
    std::uint64_t dropped = 0;
};

/**
 * Discrete-event recorder: the TraceHook a live telemetry session
 * attaches to the machine's TraceFanout, which forwards the events of
 * the address space, memory nodes and fault session. Events are
 * stamped with the simulated access clock and capped (counted past the
 * cap, not kept).
 */
class TraceSink final : public TraceHook
{
  public:
    struct Event
    {
        std::uint64_t clock = 0;
        TraceKind kind = TraceKind::Promotion;
        std::uint64_t detail = 0;
        /** Site label, copied: the emitting object (a VMA, a fault
         *  session) may be torn down before the trace is exported. */
        std::string name;
    };

    explicit TraceSink(const Counter &clock) : clock(clock) {}

    void
    traceEvent(TraceKind kind, std::uint64_t detail,
               const char *name) override
    {
        ++total;
        if (recorded.size() >= capacity) {
            ++dropped;
            return;
        }
        recorded.push_back(Event{clock.value(), kind, detail,
                                 name != nullptr ? name : ""});
    }

    const std::vector<Event> &events() const { return recorded; }
    std::uint64_t totalEvents() const { return total; }
    std::uint64_t droppedEvents() const { return dropped; }

    static constexpr std::size_t capacity = 1u << 16;

  private:
    const Counter &clock;
    std::vector<Event> recorded;
    std::uint64_t total = 0;
    std::uint64_t dropped = 0;
};

/**
 * Build the Chrome trace_event document ("ts" is the simulated access
 * clock, in simulated-microsecond units for Perfetto's benefit):
 * phase Begin/End pairs, instant events for the discrete kinds, and
 * one counter track per sampled series group. @p run_id lands in
 * otherData so the trace joins the wire response, metrics document
 * and journal record on one id.
 */
Json buildTraceJson(const TraceSink &sink,
                    const TimeSeriesSampler *sampler,
                    const std::string &label,
                    const std::string &run_id);

/**
 * Compact JSONL series: a header line ({"run","label","interval"})
 * followed by one line per epoch.
 */
std::string buildSeriesJsonl(const TimeSeriesSampler &sampler,
                             const std::string &run_id,
                             const std::string &label);

/**
 * Write the per-run files for one executed experiment into
 * @p options.metricsDir: run_<id>.json always; trace_<id>.json and
 * series_<id>.jsonl when @p sampler or trace events exist.
 *
 * @param result  The "result" object (RunResult fields, numeric).
 * @param stats   The "stats" object (final StatSet values).
 * @param extra   Optional extra top-level members (app, dataset, ...).
 * @param events  Optional "events" section describing a live event
 *                stream that observed this run ({"published",
 *                "subscriberDrops"}); pass a null Json when no stream
 *                was live so dormant documents stay byte-identical.
 * @param profile Optional "profile" section (host wall seconds per
 *                phase, obs/profiler.hh); pass a null Json when the
 *                profiler is dormant, same discipline as @p events.
 * @return path of the metrics document ("" when the write failed).
 */
std::string writeRunTelemetry(const TelemetryOptions &options,
                              const std::string &label,
                              const std::string &fingerprint,
                              const TraceSink &sink,
                              const TimeSeriesSampler *sampler,
                              Json result, Json stats, Json extra,
                              Json events = Json(),
                              Json profile = Json());

/**
 * Live batch progress renderer for ExperimentPool runs, built on the
 * pool's Progress callback. Opt-in (bench --progress); writes lines
 * to stderr only, so bench stdout is unaffected. Thread-safe: the
 * pool invokes callbacks from worker threads.
 *
 * The ETA folds in the observed memo/journal hit rate: cached results
 * are ~free, so remaining work is estimated as
 *   remaining * (1 - hit_rate) * mean_uncached_wall.
 */
class ProgressMeter
{
  public:
    ProgressMeter(std::size_t total, std::string batch_label);

    /** One config finished successfully. */
    void onResult(double wall_seconds, bool cached);

    /** One config failed (error outcome). */
    void onError();

    /**
     * Raise the expected total by @p n. Live viewers (gpsm_top) learn
     * the batch size incrementally as admission events stream in.
     */
    void grow(std::size_t n);

    /** Emit the closing summary line. */
    void finish();

    /**
     * Suppress the stderr progress lines. Consumers that render their
     * own display (gpsm_top) keep the bookkeeping and ETA math but
     * own the terminal.
     */
    void setSilent(bool on);

    std::size_t done() const;
    std::size_t failed() const;

    /**
     * Hit-rate-weighted remaining-work estimate in seconds, or -1
     * before any completion has calibrated it. For consumers that
     * render their own display instead of the stderr line.
     */
    double etaSeconds() const;

  private:
    void render();
    double etaLocked() const;

    mutable std::mutex mtx;
    std::string label;
    std::size_t total;
    std::size_t completed = 0;
    std::size_t cachedCount = 0;
    std::size_t failedCount = 0;
    double uncachedWall = 0.0;
    bool silent = false;
    std::chrono::steady_clock::time_point start;
};

} // namespace gpsm::obs

#endif // GPSM_OBS_TELEMETRY_HH
