/**
 * @file
 * Live run-event streaming: the process-wide EventBus behind the
 * gpsm_serve "subscribe" op and tools/gpsm_top.
 *
 * Producers (a running experiment's hook plumbing, the serve layer's
 * admission path) publish structured gpsm-event-v1 records; consumers
 * hold a bounded Subscription each. Publishing never blocks: a full
 * subscriber buffer drops the incoming record for that subscriber
 * only, and the drop is counted — a slow consumer can stall neither
 * the engine nor the other subscribers.
 *
 * Same dormancy discipline as the telemetry layer: with no
 * subscription open, active() is one relaxed atomic load and
 * publish() is never reached, so runs without a live consumer stay
 * bit-identical to a build without this file. The bus observes the
 * simulation (clocked on Mmu::accesses, like the TraceSink) and never
 * modifies it.
 *
 * Record shape (one JSON object per event, "schema":"gpsm-event-v1"):
 *   common     schema, type, run (16-hex runId or "" for daemon-level
 *              events), seq (bus-global, strictly increasing)
 *   run_begin  label, fingerprint, clock
 *   phase_begin / phase_end
 *              name ("init", "kernel"), clock
 *   promotion / demotion / compaction / fault_veto / fault_event
 *              detail (kind-specific count), site, clock
 *   epoch      epoch (index), clock, deltas {stat: delta}, gauges
 *   run_end    label, clock, result {RunResult fields}
 *   request_admitted / request_deduped / request_shed /
 *   request_start / request_done
 *              op ("run"/"sleep"), queueDepth, inFlight; request_done
 *              adds status, cached, wallSeconds
 */

#ifndef GPSM_OBS_EVENTS_HH
#define GPSM_OBS_EVENTS_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "obs/hooks.hh"
#include "obs/json.hh"
#include "obs/telemetry.hh"
#include "util/stats.hh"

namespace gpsm::obs
{

/** The wire schema tag every streamed record carries. */
inline constexpr const char *eventSchema = "gpsm-event-v1";

/**
 * Process-wide fan-out bus for live run events. One instance();
 * thread-safe throughout (experiment workers publish concurrently
 * with serve-layer pump threads subscribing and popping).
 */
class EventBus
{
  public:
    /**
     * One consumer's bounded queue of serialized event lines.
     * pop() from exactly one thread; the bus pushes under its own
     * lock. A push against a full queue drops the *incoming* event
     * (never blocks, never displaces delivered history) and counts it.
     */
    class Subscription
    {
      public:
        explicit Subscription(std::size_t capacity)
            : cap(capacity == 0 ? 1 : capacity)
        {
        }

        /**
         * Next serialized event line, waiting up to
         * @p timeout_seconds. nullopt on timeout or after close().
         */
        std::optional<std::string> pop(double timeout_seconds);

        /** Wake any blocked pop() permanently (bus teardown). */
        void close();

        /** True after close(): pop() timeouts and closure are then
         *  distinguishable for pump loops. */
        bool isClosed() const
        {
            std::lock_guard<std::mutex> lk(mtx);
            return closed;
        }

        std::size_t capacity() const { return cap; }
        std::uint64_t delivered() const
        {
            return deliveredCount.load(std::memory_order_relaxed);
        }
        std::uint64_t dropped() const
        {
            return droppedCount.load(std::memory_order_relaxed);
        }

      private:
        friend class EventBus;

        /** @return false when the event was dropped (queue full). */
        bool push(const std::shared_ptr<const std::string> &line);

        const std::size_t cap;
        mutable std::mutex mtx;
        std::condition_variable cv;
        std::deque<std::shared_ptr<const std::string>> queue;
        bool closed = false;
        std::atomic<std::uint64_t> deliveredCount{0};
        std::atomic<std::uint64_t> droppedCount{0};
    };
    using SubPtr = std::shared_ptr<Subscription>;

    static EventBus &instance();

    /** Open a subscription with a buffer of @p capacity events. */
    SubPtr subscribe(std::size_t capacity);

    /** Close and detach @p sub (idempotent; null is a no-op). */
    void unsubscribe(const SubPtr &sub);

    /** True when at least one subscription is open (relaxed load:
     *  the dormant-path test producers gate publishing on). */
    bool active() const
    {
        return subscriberCount.load(std::memory_order_relaxed) > 0;
    }

    /**
     * Stamp @p event with the next "seq", serialize once, and push
     * the shared line to every open subscription. @return the number
     * of subscriber-side drops this event incurred (0 with room
     * everywhere — or with no subscribers at all).
     */
    std::uint64_t publish(Json event);

    /** @name Lifetime aggregates (metrics exporter) @{ */
    std::uint64_t published() const;
    std::uint64_t delivered() const;
    std::uint64_t dropped() const;
    std::uint64_t totalSubscribers() const;
    std::size_t subscribers() const
    {
        return subscriberCount.load(std::memory_order_relaxed);
    }
    /** @} */

  private:
    EventBus() = default;

    mutable std::mutex mtx;
    std::vector<SubPtr> subs;
    std::atomic<std::size_t> subscriberCount{0};
    std::uint64_t seq = 0;
    std::uint64_t publishedCount = 0;
    std::uint64_t deliveredTotal = 0;
    std::uint64_t droppedTotal = 0;
    std::uint64_t subscribersEver = 0;
};

/** EventBus::instance().active(): the producers' one-test guard. */
bool eventStreamActive();

/**
 * A gpsm-event-v1 record skeleton: schema, type and run set; the
 * caller adds type-specific members, then EventBus::publish() stamps
 * "seq". @p run is the 16-hex runId, or "" for daemon-level events.
 */
Json makeEvent(const char *type, const std::string &run);

/**
 * Per-run live publisher: the TraceHook attached to the machine's
 * fan-out (next to any TraceSink) while a run streams. Maps phase and
 * discrete trace events onto bus records stamped with this run's id
 * and the simulated access clock, and offers the explicit run_begin /
 * epoch / run_end emissions the hook interface has no vocabulary for.
 */
class RunEventPublisher final : public TraceHook
{
  public:
    RunEventPublisher(std::string run_id, std::string label,
                      const Counter &clock)
        : run(std::move(run_id)), label(std::move(label)), clock(clock)
    {
    }

    void publishRunBegin(const std::string &fingerprint);
    void publishEpoch(const TimeSeriesSampler::Epoch &epoch);
    void publishRunEnd(const Json &result);

    void traceEvent(TraceKind kind, std::uint64_t detail,
                    const char *name) override;

    const std::string &runId() const { return run; }
    std::uint64_t published() const { return publishedCount; }
    /** Subscriber-side drops incurred by this run's events. */
    std::uint64_t subscriberDrops() const { return dropCount; }

  private:
    void publish(Json event);

    std::string run;
    std::string label;
    const Counter &clock;
    std::uint64_t publishedCount = 0;
    std::uint64_t dropCount = 0;
};

} // namespace gpsm::obs

#endif // GPSM_OBS_EVENTS_HH
