/**
 * @file
 * Parallel experiment engine implementation.
 */

#include "core/runner.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <list>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>

#include "core/journal.hh"
#include "util/logging.hh"
#include "util/parse.hh"
#include "util/thread_pool.hh"
#include "util/watchdog.hh"

namespace gpsm::core
{

namespace
{

/**
 * Process-wide result cache. RunResults are a few hundred bytes, so
 * even a full figure-suite process caches a few thousand entries —
 * but a long-lived daemon serving endless distinct configs would not
 * stop there, so the cache is LRU-bounded by an estimated byte cap
 * (generous by default; GPSM_MEMO_CAP / setExperimentMemoCapBytes()
 * override it, 0 = unbounded).
 *
 * An optional on-disk journal backs the cache: misses consult it
 * before executing and executed results are appended to it, which is
 * what makes a killed bench batch resumable — and what makes LRU
 * eviction lossless when a journal is attached.
 */
struct MemoCache
{
    /** Estimated resident cost of one entry: key bytes + result +
     *  hash-map/list bookkeeping. An estimate is fine — the cap
     *  bounds growth, it does not account memory precisely. */
    static std::uint64_t
    entryBytes(const std::string &key)
    {
        return key.size() + sizeof(RunResult) + 96;
    }

    struct Entry
    {
        RunResult result;
        std::list<std::string>::iterator lru;
    };

    std::mutex mtx;
    std::unordered_map<std::string, Entry> results;
    std::list<std::string> lruOrder; ///< front = most recently used
    std::uint64_t bytes = 0;
    std::uint64_t capBytes = 256ull << 20;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;

    std::unique_ptr<ResultJournal> journal;
    std::uint64_t journalHits = 0;
    std::uint64_t journalAppends = 0;

    MemoCache()
    {
        if (const char *cap = std::getenv("GPSM_MEMO_CAP"))
            capBytes = parseU64(cap, "GPSM_MEMO_CAP");
    }

    /** Lookup + LRU touch. Caller holds mtx. */
    const RunResult *
    find(const std::string &key)
    {
        const auto it = results.find(key);
        if (it == results.end())
            return nullptr;
        lruOrder.splice(lruOrder.begin(), lruOrder, it->second.lru);
        return &it->second.result;
    }

    /** Insert (or refresh) + evict past the cap. Caller holds mtx. */
    void
    insert(const std::string &key, const RunResult &result)
    {
        auto it = results.find(key);
        if (it != results.end()) {
            it->second.result = result;
            lruOrder.splice(lruOrder.begin(), lruOrder, it->second.lru);
            return;
        }
        lruOrder.push_front(key);
        results.emplace(key, Entry{result, lruOrder.begin()});
        bytes += entryBytes(key);
        evictPastCap();
    }

    /**
     * Drop least-recently-used entries until the cap holds. Never
     * evicts the last entry: the cap bounds steady-state growth, it
     * must not make a single result uncacheable. Caller holds mtx.
     */
    void
    evictPastCap()
    {
        while (capBytes != 0 && bytes > capBytes &&
               results.size() > 1) {
            const std::string &victim = lruOrder.back();
            bytes -= entryBytes(victim);
            results.erase(victim);
            lruOrder.pop_back();
            ++evictions;
        }
    }
};

MemoCache &
memo()
{
    static MemoCache cache;
    return cache;
}

/**
 * Will @p key be served without executing? Peeks memory and journal
 * without touching the hit counters (used to scope the prefetch stage
 * to configs that will actually run).
 */
bool
memoHas(const std::string &key)
{
    MemoCache &m = memo();
    std::lock_guard<std::mutex> lock(m.mtx);
    if (m.results.find(key) != m.results.end())
        return true;
    return m.journal != nullptr && m.journal->lookup(key).has_value();
}

/**
 * Batch warm-up: pre-generate the datasets of the configs that will
 * execute (memo/journal misses). Worth nothing at one job —
 * generation serializes either way — so it is skipped there.
 */
PrefetchStats
prefetchPending(const std::vector<ExperimentConfig> &pending,
                unsigned jobs)
{
    PrefetchStats stats;
    if (jobs <= 1 || pending.empty())
        return stats;

    const auto start = std::chrono::steady_clock::now();
    stats.datasets = prefetchDatasets(pending, jobs);
    stats.seconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    return stats;
}

bool
interrupted(const RunGuard &guard)
{
    return guard.interrupt != nullptr &&
           guard.interrupt->load(std::memory_order_relaxed);
}

/**
 * Sleep out the backoff before retry @p attempt (1-based, so the
 * first retry waits the base), in small slices so an interrupt does
 * not wait it out.
 */
void
backoff(const RunGuard &guard, unsigned attempt)
{
    double delay = guard.backoffBaseSeconds;
    for (unsigned i = 1; i < attempt && delay < guard.backoffCapSeconds;
         ++i)
        delay *= 2.0;
    delay = std::min(delay, guard.backoffCapSeconds);
    if (delay <= 0.0)
        return;
    const auto until = util::deadlineFor(delay);
    while (std::chrono::steady_clock::now() < until && !interrupted(guard))
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
}

} // namespace

MemoStats
experimentMemoStats()
{
    MemoCache &m = memo();
    std::lock_guard<std::mutex> lock(m.mtx);
    return MemoStats{m.hits,  m.misses,    m.results.size(),
                     m.bytes, m.evictions, m.capBytes};
}

void
clearExperimentMemo()
{
    MemoCache &m = memo();
    std::lock_guard<std::mutex> lock(m.mtx);
    m.results.clear();
    m.lruOrder.clear();
    m.bytes = 0;
}

void
setExperimentMemoCapBytes(std::uint64_t bytes)
{
    MemoCache &m = memo();
    std::lock_guard<std::mutex> lock(m.mtx);
    m.capBytes = bytes;
    // Apply the new cap immediately (shrinking caps evict now, not at
    // the next insert).
    m.evictPastCap();
}

bool
enableResultJournal(const std::string &path, std::string *error)
{
    auto journal = std::make_unique<ResultJournal>(path);
    // Surface writability up front: an open that loaded records fine
    // but cannot append should be reported now, not at the first
    // completed experiment. A read-only journal is still attached —
    // resuming from it works even when appending new results won't.
    const bool writable = journal->writable();
    if (!writable && error != nullptr)
        *error = "cannot open '" + path + "' for appending";
    MemoCache &m = memo();
    std::lock_guard<std::mutex> lock(m.mtx);
    m.journal = std::move(journal);
    m.journalHits = 0;
    m.journalAppends = 0;
    return writable;
}

void
disableResultJournal()
{
    MemoCache &m = memo();
    std::lock_guard<std::mutex> lock(m.mtx);
    m.journal.reset();
}

JournalStats
resultJournalStats()
{
    MemoCache &m = memo();
    std::lock_guard<std::mutex> lock(m.mtx);
    JournalStats s;
    if (m.journal != nullptr) {
        s.enabled = true;
        s.loaded = m.journal->entries() - m.journalAppends;
        s.corrupted = m.journal->corruptedLines();
        s.hits = m.journalHits;
        s.appends = m.journalAppends;
    }
    return s;
}

RunResult
runMemoized(const ExperimentConfig &config, bool *was_cached,
            const std::atomic<bool> *cancel)
{
    MemoCache &m = memo();
    const std::string key = config.fingerprint();
    {
        std::lock_guard<std::mutex> lock(m.mtx);
        if (const RunResult *found = m.find(key)) {
            ++m.hits;
            if (was_cached != nullptr)
                *was_cached = true;
            return *found;
        }
        // Memory miss: a journaled result from an earlier (possibly
        // killed) process is just as authoritative — fingerprints pin
        // every input of the deterministic run.
        if (m.journal != nullptr) {
            const auto logged = m.journal->lookup(key);
            if (logged) {
                ++m.hits;
                ++m.journalHits;
                m.insert(key, *logged);
                if (was_cached != nullptr)
                    *was_cached = true;
                return *logged;
            }
        }
    }
    // Execute outside the lock: concurrent identical misses may race
    // to run the same config, but the results are bit-identical by
    // determinism, so last-insert-wins is harmless. ExperimentPool
    // dedupes within a batch, so this only happens across batches.
    const RunResult result = runExperiment(config, cancel);
    {
        std::lock_guard<std::mutex> lock(m.mtx);
        ++m.misses;
        m.insert(key, result);
        if (m.journal != nullptr) {
            if (m.journal->record(key, result))
                ++m.journalAppends;
        }
    }
    if (was_cached != nullptr)
        *was_cached = false;
    return result;
}

const char *
experimentErrorKindName(ExperimentError::Kind kind)
{
    switch (kind) {
      case ExperimentError::Kind::Exception:
        return "exception";
      case ExperimentError::Kind::Timeout:
        return "timeout";
      case ExperimentError::Kind::Interrupted:
        return "interrupted";
    }
    return "?";
}

RunOutcome
runGuarded(const ExperimentConfig &config, const RunGuard &guard)
{
    RunOutcome outcome;
    auto fail = [&](ExperimentError::Kind kind, std::string message) {
        outcome.error = ExperimentError{kind, std::move(message),
                                        config.fingerprint(),
                                        config.label()};
        return outcome;
    };
    util::DeadlineWatchdog::Flag flag;
    if (guard.watchdog != nullptr)
        flag = std::make_shared<std::atomic<bool>>(false);

    for (;;) {
        // Interrupted work stops launching: a config that is not
        // already served from memory or disk is reported, not run.
        if (interrupted(guard) && !memoHas(config.fingerprint()))
            return fail(ExperimentError::Kind::Interrupted,
                        "interrupted before execution");
        ++outcome.attempts;
        const auto start = std::chrono::steady_clock::now();
        if (flag != nullptr) {
            flag->store(false, std::memory_order_relaxed);
            guard.watchdog->watch(
                flag, util::deadlineFor(guard.deadlineSeconds));
        }
        bool cancelled = false;
        std::string thrown;
        try {
            outcome.result =
                runMemoized(config, &outcome.cached, flag.get());
        } catch (const CancelledError &) {
            cancelled = true;
        } catch (const std::exception &e) {
            thrown = e.what();
        }
        if (flag != nullptr)
            guard.watchdog->unwatch(flag);
        if (outcome.ok()) {
            outcome.wallSeconds =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
            return outcome;
        }
        if (!cancelled)
            return fail(ExperimentError::Kind::Exception, thrown);
        if (interrupted(guard))
            return fail(ExperimentError::Kind::Interrupted,
                        "interrupted mid-run (result discarded; "
                        "journal already holds every completed "
                        "experiment)");
        if (outcome.attempts > guard.timeoutRetries) {
            std::ostringstream msg;
            msg << "exceeded " << guard.deadlineSeconds
                << "s wall-clock budget";
            if (outcome.attempts > 1)
                msg << " (" << outcome.attempts << " attempts)";
            return fail(ExperimentError::Kind::Timeout, msg.str());
        }
        backoff(guard, outcome.attempts);
    }
}

ExperimentPool::ExperimentPool(unsigned jobs)
{
    const unsigned hw = util::ThreadPool::hardwareThreads();
    jobCount = jobs == 0 ? hw : std::min(jobs, hw);
}

std::vector<RunOutcome>
ExperimentPool::runOutcomes(const std::vector<ExperimentConfig> &configs,
                            const PoolOptions &options,
                            const Progress &progress)
{
    std::vector<RunOutcome> outcomes(configs.size());

    // Group the batch by fingerprint: one execution per unique
    // config, every duplicate index filled from the representative.
    std::unordered_map<std::string, std::vector<std::size_t>> groups;
    std::vector<std::string> order; // deterministic submission order
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const std::string key = configs[i].fingerprint();
        auto [it, inserted] = groups.try_emplace(key);
        if (inserted)
            order.push_back(key);
        it->second.push_back(i);
    }

    if (options.prefetchStats != nullptr)
        *options.prefetchStats = PrefetchStats{};
    if (options.prefetch && jobCount > 1) {
        std::vector<ExperimentConfig> pending;
        for (const std::string &key : order) {
            if (!memoHas(key))
                pending.push_back(configs[groups.at(key).front()]);
        }
        const PrefetchStats stats =
            prefetchPending(pending, jobCount);
        if (options.prefetchStats != nullptr)
            *options.prefetchStats = stats;
    }

    RunGuard guard;
    guard.deadlineSeconds = options.timeoutSeconds;
    guard.timeoutRetries = options.timeoutRetries;
    guard.interrupt = options.interrupt;
    // One scanner serves the timeout and the interrupt switch; an
    // unguarded batch creates none.
    std::unique_ptr<util::DeadlineWatchdog> watchdog;
    if (options.timeoutSeconds > 0.0 || options.interrupt != nullptr) {
        watchdog =
            std::make_unique<util::DeadlineWatchdog>(options.interrupt);
        guard.watchdog = watchdog.get();
    }

    auto run_one = [&](const std::string &key) {
        const std::vector<std::size_t> &group = groups.at(key);
        const std::size_t rep = group.front();
        const RunOutcome outcome = runGuarded(configs[rep], guard);
        for (std::size_t idx : group) {
            RunOutcome &out = outcomes[idx];
            out = outcome;
            out.cached = outcome.cached || (out.ok() && idx != rep);
            if (out.ok() && progress)
                progress(idx, configs[idx], *out.result,
                         out.cached ? 0.0 : out.wallSeconds, out.cached);
            if (!out.ok() && options.errorProgress)
                options.errorProgress(idx, configs[idx], *out.error);
        }
    };

    if (jobCount <= 1 || order.size() <= 1) {
        for (const std::string &key : order)
            run_one(key);
        return outcomes;
    }

    util::ThreadPool pool(
        std::min<unsigned>(jobCount,
                           static_cast<unsigned>(order.size())));
    for (const std::string &key : order)
        pool.submit([&run_one, &key] { run_one(key); });
    pool.wait();
    return outcomes;
}

std::vector<bool>
shardSelection(const std::vector<ExperimentConfig> &configs,
               unsigned shard, unsigned shards)
{
    if (shards == 0 || shard == 0 || shard > shards)
        fatal("invalid shard %u/%u", shard, shards);

    std::vector<bool> owned(configs.size(), false);
    std::unordered_map<std::string, std::size_t> unique;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const std::string key = configs[i].fingerprint();
        const auto it = unique.try_emplace(key, unique.size()).first;
        owned[i] = (it->second % shards) == (shard - 1);
    }
    return owned;
}

} // namespace gpsm::core
