/**
 * @file
 * Minimal fixed-size worker pool for embarrassingly parallel batches.
 *
 * The experiment engine (core::ExperimentPool) is the primary client:
 * it submits independent closures and waits for the batch to drain.
 * The pool makes no fairness or ordering guarantees — callers that
 * need ordered results index into a pre-sized output vector from
 * inside the job.
 */

#ifndef GPSM_UTIL_THREAD_POOL_HH
#define GPSM_UTIL_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gpsm::util
{

/**
 * Fixed set of worker threads consuming a FIFO job queue.
 *
 * Jobs must not throw: the pool runs figure-bench workloads whose
 * errors are fatal anyway, and propagating exceptions across workers
 * would complicate the bit-for-bit determinism story for no client.
 * Exceptions escaping a job terminate the process (std::terminate),
 * matching what an uncaught exception in main would do.
 */
class ThreadPool
{
  public:
    /**
     * @param threads Worker count; clamped to at least 1. Pass
     *        hardwareThreads() for one worker per logical CPU.
     */
    explicit ThreadPool(unsigned threads);

    /** Drains the queue, then joins all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue one job; runs on some worker, eventually. */
    void submit(std::function<void()> job);

    /** Block until every submitted job has finished executing. */
    void wait();

    /** std::thread::hardware_concurrency with a sane fallback of 1. */
    static unsigned hardwareThreads();

  private:
    void workerLoop();

    std::mutex mtx;
    std::condition_variable wakeWorker;
    std::condition_variable batchDone;
    std::deque<std::function<void()>> queue;
    std::size_t inFlight = 0; ///< queued + currently executing
    bool stopping = false;
    std::vector<std::thread> workers;
};

} // namespace gpsm::util

#endif // GPSM_UTIL_THREAD_POOL_HH
