/**
 * @file
 * gpsm_serve daemon core: a crash-tolerant experiment service over a
 * local Unix socket.
 *
 * Layers (one class, four concerns):
 * - admission control: a bounded request queue; a request that would
 *   overflow it is shed with an explicit "overloaded" error instead
 *   of queuing unboundedly, and a draining daemon rejects new work
 *   with "shutdown". A run executes through core::runGuarded (the
 *   batch engine's guarded run) on the daemon's
 *   util::DeadlineWatchdog: per-request deadlines, bounded retries
 *   with exponential backoff, and the pool's error kinds
 *   ("timeout", "exception", "interrupted"); "shutdown" is left for
 *   admission while draining and for sleeps.
 * - dedup & recovery: concurrent requests for the same
 *   ExperimentConfig::fingerprint() are single-flighted — later
 *   arrivals attach as waiters to the in-flight task and share its
 *   one execution. Results flow through core::runMemoized(), so with
 *   a journal attached every completed experiment is durable before
 *   its response is sent: a SIGKILL'd daemon restarts on the same
 *   journal and resumes, serving finished work from disk.
 * - observability: every response carries a structured status; the
 *   "stats" op reports queue depth, shed/dedupe/retry counters and a
 *   request-latency histogram (p50/p99/p999).
 * - lifecycle: drain() stops admission, finishes queued work,
 *   responds to every waiter, then tears down connections, workers
 *   and the journal. The destructor without drain() hard-cancels
 *   in-flight runs via the watchdog's interrupt switch.
 *
 * Invariant (asserted by tests/test_serve.cc and the
 * serve.offline_identity ctest):
 * a result produced through the service is byte-identical — same
 * fingerprint, same serialized RunResult — to the same config run
 * offline through gpsm_run.
 */

#ifndef GPSM_SERVE_SERVER_HH
#define GPSM_SERVE_SERVER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/runner.hh"
#include "obs/events.hh"
#include "serve/protocol.hh"
#include "util/histogram.hh"
#include "util/watchdog.hh"

namespace gpsm::serve
{

struct ServeOptions
{
    std::string socketPath = "/tmp/gpsm_serve.sock";
    /** Crash-safe result journal; empty disables (no recovery). */
    std::string journalPath;
    /** Experiment worker threads; 0 = hardware concurrency. */
    unsigned workers = 0;
    /** Admission bound: requests beyond this many queued are shed. */
    std::size_t queueCap = 256;
    /** Connections beyond this are refused at accept. */
    unsigned maxConnections = 256;
    /** Deadline for requests that do not carry one; 0 = none. */
    double defaultDeadlineSeconds = 0.0;
    /** Timeout retries for requests that do not carry a count. */
    unsigned defaultRetries = 0;
    /** Exponential retry backoff: base * 2^attempt, capped. */
    double backoffBaseSeconds = 0.05;
    double backoffCapSeconds = 2.0;
};

/** Snapshot of the service counters (the "stats" op's payload). */
struct ServeStats
{
    std::uint64_t connectionsAccepted = 0;
    std::uint64_t connectionsRefused = 0;
    std::uint64_t requests = 0;   ///< run/sleep requests admitted
    std::uint64_t completed = 0;  ///< executions that produced a result
    std::uint64_t failed = 0;     ///< executions that produced an error
    std::uint64_t shed = 0;       ///< "overloaded" rejections
    std::uint64_t rejectedDraining = 0; ///< "shutdown" rejections
    std::uint64_t invalid = 0;    ///< malformed / codec-mismatch
    std::uint64_t dedupeHits = 0; ///< waiters attached to in-flight
    std::uint64_t cacheHits = 0;  ///< served from memo/journal
    std::uint64_t retries = 0;    ///< timeout retries executed
    std::size_t queueDepth = 0;
    std::size_t inFlight = 0;
    /** Request latency (admission to response), microseconds. */
    Log2Histogram latencyUs;
    core::MemoStats memo;
    core::JournalStats journal;
    /** Simulated per-phase seconds summed over executed (uncached)
     *  runs — the exporter's "where do cycles go" counters. @{ */
    double initSecondsTotal = 0.0;
    double kernelSecondsTotal = 0.0;
    /** @} */
    /** @name Live event-stream accounting (EventBus) @{ */
    std::size_t eventSubscribers = 0;
    std::uint64_t eventSubscribersEver = 0;
    std::uint64_t eventsPublished = 0;
    std::uint64_t eventsDelivered = 0;
    std::uint64_t eventsDropped = 0;
    /** @} */
};

/** Stats as the JSON object embedded in "stats" responses. */
obs::Json statsToJson(const ServeStats &stats);

class Server
{
  public:
    explicit Server(const ServeOptions &options);

    /** Drains hard (in-flight runs cancelled) when not drained. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind the socket, attach the journal, start accept/worker
     * threads. @return false (with @p error) when the socket path is
     * unusable; a missing journal path is created, an unwritable one
     * degrades to no journal with a warning.
     */
    bool start(std::string *error = nullptr);

    /**
     * Graceful drain: reject new runs with "shutdown", execute
     * everything already admitted, respond to every waiter, then stop
     * workers, close connections, detach the journal and unlink the
     * socket. Idempotent.
     */
    void drain();

    /** True once a client issued the "drain" op (the daemon's main
     *  loop polls this and calls drain()). */
    bool drainRequested() const
    {
        return drainRequestedFlag.load(std::memory_order_relaxed);
    }

    ServeStats stats() const;

    const ServeOptions &options() const { return opts; }

  private:
    using Clock = std::chrono::steady_clock;

    struct Connection
    {
        int fd = -1;
        std::mutex writeMtx;
        std::thread reader;
        std::atomic<bool> alive{true};

        /** Event-stream state ("subscribe"): the bounded bus
         *  subscription plus the pump thread forwarding its lines to
         *  this socket. Mutated only from this connection's reader
         *  thread and the sweep/teardown paths, which never race (the
         *  sweep joins the reader first). @{ */
        obs::EventBus::SubPtr sub;
        std::thread pump;
        /** @} */

        ~Connection();
    };
    using ConnPtr = std::shared_ptr<Connection>;

    struct Waiter
    {
        ConnPtr conn;
        std::uint64_t id = 0;
        Clock::time_point arrival;
    };

    struct Task
    {
        enum class Kind : std::uint8_t
        {
            Run,
            Sleep,
        };
        Kind kind = Kind::Run;
        core::ExperimentConfig config;
        std::string fingerprint; ///< dedupe key (Run only)
        std::string run;         ///< obs::runId(fingerprint): the
                                 ///< request-scoped trace id
        double sleepSeconds = 0.0;
        double deadlineSeconds = 0.0;
        unsigned retries = 0;
        std::vector<Waiter> waiters; ///< [0] is the submitter
    };
    using TaskPtr = std::shared_ptr<Task>;

    void acceptLoop();
    void readerLoop(const ConnPtr &conn);
    void workerLoop();
    void handleMessage(const ConnPtr &conn, const obs::Json &msg);
    void handleRun(const ConnPtr &conn, std::uint64_t id,
                   const obs::Json &msg);
    void handleSubscribe(const ConnPtr &conn, std::uint64_t id,
                         const obs::Json &msg);
    void handleUnsubscribe(const ConnPtr &conn, std::uint64_t id);
    /** Close + detach a connection's event stream (idempotent). */
    void stopStream(Connection *conn);
    /**
     * Publish one queue/admission transition to the event bus (only
     * when a subscriber is attached). @p run is the 16-hex runId of
     * the affected request ("" for sleeps).
     */
    void publishRequestEvent(const char *type, const std::string &run,
                             const char *op,
                             const obs::Json *extra = nullptr);
    /**
     * Publish request_admitted for a task just queued. queueMtx must be
     * held, so no worker can pop the task and publish its
     * request_start first.
     */
    void publishAdmittedLocked(const std::string &run, const char *op);
    /** A request event with the queue gauges; queueMtx must be held. */
    obs::Json requestEventLocked(const char *type, const std::string &run,
                                 const char *op);
    void executeTask(const TaskPtr &task);
    void respond(const ConnPtr &conn, const obs::Json &doc);
    void respondError(const ConnPtr &conn, std::uint64_t id,
                      const char *op, const std::string &kind,
                      const std::string &message,
                      const std::string &fingerprint = "",
                      unsigned attempts = 0);
    void finishTask(const TaskPtr &task, const obs::Json &payload,
                    bool ok);
    void sweepConnections();
    void teardown();

    ServeOptions opts;

    int listenFd = -1;
    bool started = false;
    bool torndown = false;
    bool journalAttached = false;

    std::atomic<bool> draining{false};
    std::atomic<bool> drainRequestedFlag{false};
    std::atomic<bool> hardStop{false};
    std::atomic<bool> stopAccept{false};
    std::atomic<bool> stopWorkers{false};

    std::thread acceptThread;
    std::vector<std::thread> workers;

    mutable std::mutex connsMtx;
    std::vector<ConnPtr> conns;

    mutable std::mutex queueMtx;
    std::condition_variable queueCv; ///< workers wait for tasks
    std::condition_variable doneCv;  ///< drain waits for quiescence
    std::deque<TaskPtr> queue;
    std::unordered_map<std::string, TaskPtr> pendingByFp;
    std::size_t inFlightCount = 0;

    std::unique_ptr<util::DeadlineWatchdog> watchdog;

    /** @name Counters (queueMtx) @{ */
    std::uint64_t connectionsAccepted = 0;
    std::uint64_t connectionsRefused = 0;
    std::uint64_t requestsAdmitted = 0;
    std::uint64_t completedCount = 0;
    std::uint64_t failedCount = 0;
    std::uint64_t shedCount = 0;
    std::uint64_t rejectedDrainingCount = 0;
    std::uint64_t invalidCount = 0;
    std::uint64_t dedupeHitCount = 0;
    std::uint64_t cacheHitCount = 0;
    std::uint64_t retryCount = 0;
    Log2Histogram latencyUs;
    double initSecondsTotal = 0.0;
    double kernelSecondsTotal = 0.0;
    /** @} */

    /** Counters frozen at teardown (the journal detaches there, so a
     *  live snapshot afterwards would read zeros). */
    ServeStats finalStats;
};

} // namespace gpsm::serve

#endif // GPSM_SERVE_SERVER_HH
