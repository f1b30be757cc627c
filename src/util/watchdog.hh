/**
 * @file
 * Wall-clock deadline watchdog shared by the batch engine and the
 * experiment service.
 *
 * Workers register a cooperative cancellation flag together with a
 * deadline; a single scanner thread trips every flag whose deadline
 * has passed. Scanning at a coarse period keeps the cost negligible
 * next to multi-second experiments while bounding overshoot to ~one
 * scan period plus cancellation latency. An optional process-level
 * interrupt flag (a SIGINT/SIGTERM handler's atomic) trips *every*
 * registered flag as soon as it is observed set, which is how
 * gpsm_run cancels in-flight experiments on ctrl-C and gpsm_serve
 * drains on shutdown.
 */

#ifndef GPSM_UTIL_WATCHDOG_HH
#define GPSM_UTIL_WATCHDOG_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace gpsm::util
{

/**
 * Deadline scanner. Thread-safe; one instance watches any number of
 * flags. Destruction stops the scanner without touching still-
 * registered flags (callers unwatch on their own completion paths).
 */
class DeadlineWatchdog
{
  public:
    using Clock = std::chrono::steady_clock;
    using Flag = std::shared_ptr<std::atomic<bool>>;

    /**
     * @param interrupt Optional external kill switch: while it reads
     *        true, every watched flag (current and future) is tripped
     *        immediately, regardless of deadline. May be null.
     */
    explicit DeadlineWatchdog(const std::atomic<bool> *interrupt = nullptr);
    ~DeadlineWatchdog();

    DeadlineWatchdog(const DeadlineWatchdog &) = delete;
    DeadlineWatchdog &operator=(const DeadlineWatchdog &) = delete;

    /**
     * Register @p flag to be tripped at @p deadline (or right away
     * when the interrupt switch is already set). A deadline of
     * Clock::time_point::max() registers for interrupt-only
     * cancellation.
     */
    void watch(const Flag &flag, Clock::time_point deadline);

    /** Deregister @p flag (no-op when it already fired or is gone). */
    void unwatch(const Flag &flag);

  private:
    struct Entry
    {
        Flag flag;
        Clock::time_point deadline;
    };

    void loop();

    std::mutex mtx;
    std::condition_variable cv;
    std::vector<Entry> active;
    const std::atomic<bool> *interruptFlag;
    bool stopping = false;
    std::thread scanner;
};

/** The time point @p seconds from now; Clock::time_point::max()
 *  (interrupt-only) when @p seconds <= 0. */
inline DeadlineWatchdog::Clock::time_point
deadlineFor(double seconds)
{
    using Clock = DeadlineWatchdog::Clock;
    if (seconds <= 0.0)
        return Clock::time_point::max();
    return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
}

} // namespace gpsm::util

#endif // GPSM_UTIL_WATCHDOG_HH
