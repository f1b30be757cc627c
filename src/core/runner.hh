/**
 * @file
 * Parallel experiment engine: batch execution of independent
 * ExperimentConfigs on a worker pool (ExperimentPool::runOutcomes),
 * with a process-wide memo cache keyed by
 * ExperimentConfig::fingerprint(). Every execution, batch or served
 * (serve::Server), goes through runGuarded(): the one loop that
 * applies a deadline, timeout retries and an interrupt switch to a
 * single config.
 *
 * Every runExperiment() call is deterministic and fully independent
 * (each run builds its own SimMachine; all RNG is config-seeded), so
 * a batch of configs is embarrassingly parallel and parallel results
 * are bit-for-bit identical to a serial loop. The memo cache exploits
 * the other dominant redundancy of the figure-bench suite: the same
 * baseline configuration (e.g. 4KB pages, no pressure) is re-run
 * dozens of times across sweeps.
 */

#ifndef GPSM_CORE_RUNNER_HH
#define GPSM_CORE_RUNNER_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.hh"

namespace gpsm::util
{
class DeadlineWatchdog;
}

namespace gpsm::core
{

/** Counters of the process-wide experiment memo cache. */
struct MemoStats
{
    std::uint64_t hits = 0;     ///< results served from the cache
    std::uint64_t misses = 0;   ///< configs actually executed
    std::uint64_t entries = 0;  ///< results currently cached
    std::uint64_t bytes = 0;    ///< estimated bytes currently cached
    std::uint64_t evictions = 0; ///< entries dropped by the LRU cap
    std::uint64_t capBytes = 0; ///< active byte cap (0 = unbounded)
};

/** Snapshot of the memo cache counters. */
MemoStats experimentMemoStats();

/** Drop every cached result (and reset nothing else; counters keep
 *  accumulating so tests can difference them). */
void clearExperimentMemo();

/**
 * Bound the memo cache: least-recently-used entries are evicted once
 * the estimated resident size (keys + results) exceeds @p bytes. The
 * default is generous (256 MiB — roughly 10^5 sweep results, far more
 * than any figure suite caches) but finite, so a long-lived daemon
 * serving endless distinct configs cannot grow without limit. 0 means
 * unbounded. The GPSM_MEMO_CAP environment variable (bytes) overrides
 * the default at process start; this setter overrides both. Evicted
 * results are *not* lost when a result journal is attached — a later
 * request reloads them from disk.
 */
void setExperimentMemoCapBytes(std::uint64_t bytes);

/** Counters of the optional on-disk result journal. */
struct JournalStats
{
    bool enabled = false;
    std::uint64_t loaded = 0;    ///< records reloaded at open
    std::uint64_t corrupted = 0; ///< lines skipped at open
    std::uint64_t hits = 0;      ///< memo misses served from disk
    std::uint64_t appends = 0;   ///< records written this process
};

/**
 * Attach a crash-safe on-disk result journal (core/journal.hh) to the
 * memo cache: memo misses consult the journal before executing, and
 * every executed result is durably appended, so a killed batch's
 * re-run skips all completed experiments. Replaces any journal
 * attached earlier.
 *
 * @param error Optional out-message when the journal could not be
 *        opened for writing (it still serves reads in that case).
 * @return false when @p path is unwritable.
 */
bool enableResultJournal(const std::string &path,
                         std::string *error = nullptr);

/** Detach (and close) the journal; the memo cache is unaffected. */
void disableResultJournal();

/** Snapshot of the journal counters. */
JournalStats resultJournalStats();

/**
 * Memoized runExperiment(): returns the cached RunResult when an
 * identical config (by fingerprint(), which covers every field) ran
 * before in this process, and executes + caches otherwise. When a
 * result journal is attached, memo misses check it before executing
 * and executed results are appended to it.
 *
 * Results are immutable once cached and never invalidated: a
 * fingerprint captures the complete input of a deterministic
 * function, so a cached result can never go stale within a process.
 *
 * @param was_cached Optional out-flag: true when served from cache
 *        (memory or journal).
 * @param cancel Optional cancellation flag forwarded to
 *        runExperiment().
 */
RunResult runMemoized(const ExperimentConfig &config,
                      bool *was_cached = nullptr,
                      const std::atomic<bool> *cancel = nullptr);

/**
 * Why one experiment in a batch failed to produce a RunResult.
 * Carries the config's fingerprint (the stable identity a user needs
 * to reproduce or exclude it) alongside the human-readable label.
 */
struct ExperimentError
{
    enum class Kind : std::uint8_t
    {
        Exception,   ///< runExperiment threw (bad config, OOM, bug)
        Timeout,     ///< cancelled by the pool's wall-clock watchdog
        Interrupted, ///< cancelled by the batch's interrupt flag
    };

    Kind kind = Kind::Exception;
    std::string message;
    std::string fingerprint;
    std::string label;
};

const char *experimentErrorKindName(ExperimentError::Kind kind);

/** Exactly one of result / error is set. */
struct RunOutcome
{
    std::optional<RunResult> result;
    std::optional<ExperimentError> error;
    bool cached = false;       ///< memo, journal or batch duplicate
    double wallSeconds = 0.0;  ///< host seconds of the last attempt
    unsigned attempts = 0;     ///< executions including retries

    bool ok() const { return result.has_value(); }
};

/** What runGuarded() guards one run with. */
struct RunGuard
{
    /** Wall-clock budget of each attempt, seconds; 0 = none. */
    double deadlineSeconds = 0.0;
    /**
     * Extra executions granted after a timeout before giving up
     * (transient interference — a loaded machine — can make a healthy
     * config overrun once). Exceptions never retry: a deterministic
     * throw would just throw again.
     */
    unsigned timeoutRetries = 0;
    /** Sleep before retry k: min(base * 2^(k-1), cap); 0 = none. */
    double backoffBaseSeconds = 0.0;
    double backoffCapSeconds = 0.0;
    /**
     * Interrupt switch (the watchdog's own). Once set, the run in
     * flight is cancelled and reported Interrupted, a backoff stops
     * early, and a config that is not memoized or journaled is
     * reported without executing.
     */
    const std::atomic<bool> *interrupt = nullptr;
    /** Enforces the deadline and the interrupt; null = unguarded. */
    util::DeadlineWatchdog *watchdog = nullptr;
};

/**
 * Run @p config through runMemoized() under @p guard and report the
 * outcome; never throws. A cancelled attempt becomes an
 * Interrupted error when the interrupt is set, a retry while retries
 * remain, and a Timeout error after that; any other exception is an
 * Exception error.
 */
RunOutcome runGuarded(const ExperimentConfig &config,
                      const RunGuard &guard);

/** What the batch's dataset-prefetch stage did (wall time only ever
 *  reported out-of-band: simulated results are unaffected). */
struct PrefetchStats
{
    std::size_t datasets = 0; ///< distinct datasets pre-generated
    double seconds = 0.0;     ///< wall-clock spent prefetching
};

/** Hardening knobs for ExperimentPool::runOutcomes(). */
struct PoolOptions
{
    /**
     * Per-experiment wall-clock budget, seconds. A run past its
     * deadline is cooperatively cancelled (the flag is polled on the
     * MMU miss path and at phase boundaries) and reported as a
     * Timeout error. 0 disables the watchdog.
     */
    double timeoutSeconds = 0.0;

    /** RunGuard::timeoutRetries; the pool retries without backoff. */
    unsigned timeoutRetries = 0;

    /**
     * Pre-generate the batch's distinct datasets in parallel before
     * dispatching experiments (core::prefetchDatasets). Only configs
     * that will actually execute are considered — memoized and
     * journaled fingerprints are skipped. No effect at --jobs 1
     * (generation would serialize either way).
     */
    bool prefetch = true;

    /** Out-param: prefetch activity of this batch (when non-null). */
    PrefetchStats *prefetchStats = nullptr;

    /**
     * Optional batch-wide interrupt switch (typically set from a
     * SIGINT/SIGTERM handler), RunGuard::interrupt for every config:
     * an interrupted batch still returns a complete outcome vector
     * and every finished result has already been journaled.
     */
    const std::atomic<bool> *interrupt = nullptr;

    /**
     * Invoked once per input config whose outcome is an error, as it
     * happens, possibly from a worker thread (callees serialize their
     * own output). Complements Progress, which only fires for
     * successful results.
     */
    std::function<void(std::size_t index,
                       const ExperimentConfig &config,
                       const ExperimentError &error)>
        errorProgress;
};

/**
 * Runs batches of experiments on min(jobs, hardware threads) worker
 * threads, deduplicating identical configs through the memo cache.
 *
 * Determinism: outcomes are returned in submission order and each
 * worker owns its SimMachine, so runOutcomes(configs) is bit-for-bit
 * identical to a serial loop over runExperiment() (asserted by
 * tests/test_runner.cc).
 */
class ExperimentPool
{
  public:
    /** Progress callback: invoked once per input config as its result
     *  becomes available, possibly from a worker thread (callees must
     *  serialize their own output). @p wall_seconds is 0 for results
     *  served from the memo cache. */
    using Progress = std::function<void(
        std::size_t index, const ExperimentConfig &config,
        const RunResult &result, double wall_seconds, bool cached)>;

    /** @param jobs Worker threads; 0 means hardware concurrency. The
     *  effective count is clamped to the hardware thread count. */
    explicit ExperimentPool(unsigned jobs = 0);

    /**
     * Run every config, in parallel, memoized, each through
     * runGuarded(); outcomes come back in submission order. Every
     * config gets an outcome, never an exception: a config that
     * throws or times out yields an ExperimentError carrying its
     * fingerprint; every other config still yields its RunResult.
     * Duplicate configs share one execution (and one error).
     */
    std::vector<RunOutcome>
    runOutcomes(const std::vector<ExperimentConfig> &configs,
                const PoolOptions &options = PoolOptions(),
                const Progress &progress = nullptr);

    unsigned jobs() const { return jobCount; }

  private:
    unsigned jobCount;
};

/**
 * Deterministic shard filter for splitting one batch across processes
 * (bench --shard i/n): input config @c i is owned by shard
 * `(first-occurrence index of its fingerprint) % shards`, counted over
 * the batch's unique fingerprints in submission order. Duplicate
 * configs therefore always land on the same shard (one execution per
 * shard set), and the union of all shards is exactly the batch.
 *
 * @param shard 1-based shard number, 1 <= shard <= shards.
 * @return one flag per input config; true = owned by @p shard.
 */
std::vector<bool>
shardSelection(const std::vector<ExperimentConfig> &configs,
               unsigned shard, unsigned shards);

} // namespace gpsm::core

#endif // GPSM_CORE_RUNNER_HH
