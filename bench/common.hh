/**
 * @file
 * Shared bench-harness plumbing: argument parsing, paper-to-scaled
 * unit conversion, standard config construction, and progress notes.
 *
 * Every figure bench prints (a) the Table 1 system header, (b) an
 * aligned table with the same rows/series the paper reports, and
 * (c) a CSV block for downstream plotting.
 */

#ifndef GPSM_BENCH_COMMON_HH
#define GPSM_BENCH_COMMON_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "util/table.hh"
#include "util/units.hh"

namespace gpsm::bench
{

/** Command-line options shared by all figure benches. */
struct Options
{
    /** Table 2 sizes divided by this (--divisor N, default 256). */
    std::uint64_t divisor = 256;
    /** --quick: tiny datasets, fewest configs (CI smoke mode). */
    bool quick = false;
    /** --datasets kron,twit,web,wiki */
    std::vector<std::string> datasets{"kron", "twit", "web", "wiki"};
    /** --apps bfs,sssp,pr */
    std::vector<core::App> apps{core::App::Bfs, core::App::Sssp,
                                core::App::Pr};
    /** --paper: Haswell geometry (4KB/2MB) instead of scaled. */
    bool paperGeometry = false;
    /** --jobs N / GPSM_BENCH_JOBS: worker threads for runAll()
     *  batches. 0 (the default) means hardware concurrency; the
     *  effective count is clamped to the hardware thread count.
     *  Results and stdout tables are byte-identical at any value. */
    unsigned jobs = 0;
    /** --journal PATH / GPSM_RESULT_JOURNAL: crash-safe result
     *  journal; finished experiments are skipped on re-runs. Empty
     *  (the default) disables journaling. */
    std::string journal;
    /** --timeout-seconds X / GPSM_BENCH_TIMEOUT_SECONDS: per-
     *  experiment wall-clock budget for runAll() batches; overruns
     *  are cancelled and reported per fingerprint. 0 disables. */
    double timeoutSeconds = 0.0;
    /** --metrics-dir PATH / GPSM_METRICS_DIR: per-run telemetry
     *  documents (metrics JSON, Chrome trace, series JSONL) are
     *  written here, one set per executed fingerprint. Empty (the
     *  default) disables telemetry entirely; bench stdout is
     *  byte-identical either way. */
    std::string metricsDir;
    /** --sample-interval N / GPSM_SAMPLE_INTERVAL: sampler epoch
     *  length in traced accesses (simulated clock, so series are
     *  identical at any --jobs). 0 disables the time-series sampler;
     *  metrics documents are still written. Only meaningful with
     *  --metrics-dir. */
    std::uint64_t sampleInterval = 1u << 20;
    /** --progress / GPSM_BENCH_PROGRESS: live batch progress lines
     *  (done/cached/failed counts, elapsed, ETA) on stderr. */
    bool progress = false;
    /** --replay / GPSM_REPLAY: record each distinct kernel access
     *  stream once and replay it for every stream-invariant config in
     *  the sweep, skipping kernel re-execution. Results, stdout and
     *  telemetry are byte-identical with or without it (CI-gated). */
    bool replay = false;
    /** --profile / GPSM_PROF: record host wall-time per phase
     *  (build/load/kernel/verify + replay decode/dispatch) into the
     *  batches.jsonl summary and a per-run "profile" section of each
     *  metrics document. Off (the default) writes neither: documents
     *  and stdout are byte-identical to a profiler-free build. */
    bool profile = false;
    /** --shard i/n / GPSM_BENCH_SHARD: run only the i-th of n
     *  deterministic partitions of each runAll() batch (1-based).
     *  Unowned rows render as zeros; union the result journals of all
     *  shards (or diff their metrics dirs) to assemble the full
     *  figure. 1/1 (the default) disables sharding. */
    unsigned shard = 1;
    unsigned shards = 1;
    /** --oo-ratio X / GPSM_OO_RATIO: footprint / modeled-DRAM ratio
     *  for out-of-core runs (0 = in-core, the default; ratios > 1
     *  force demand faulting, eviction and writeback of the
     *  file-backed CSR arrays). */
    double oocRatio = 0.0;
    /** --eviction clock|lru / GPSM_EVICTION: file-cache replacement
     *  policy (only meaningful with --oo-ratio). */
    mem::EvictionKind eviction = mem::EvictionKind::Clock;
};

/** Parse an eviction-policy name; fatal on anything else. */
mem::EvictionKind evictionByName(const std::string &name);

/**
 * Parse common options; unknown arguments are fatal. Also honors the
 * GPSM_BENCH_DIVISOR / GPSM_BENCH_QUICK / GPSM_BENCH_JOBS environment
 * variables so the whole suite can be throttled without editing
 * commands. --quick applies its defaults (tiny divisor, kron+wiki,
 * BFS only) only to options the user did not set explicitly, so
 * `--quick --apps pr` runs PageRank on quick-sized inputs.
 */
Options parseOptions(int argc, char **argv);

/**
 * For binaries that run no experiments (micro_substrate, bench_serve)
 * but sit in the same suite: if argv[@p i] is one of the harness flags
 * parseOptions() accepts, step @p i past it (and past its value, when
 * it takes one) and return true. The caller ignores the flag, so one
 * flag set drives every binary in scripts/run_benches.sh. A value flag
 * in last position is fatal, as in parseOptions().
 */
bool skipHarnessFlag(int argc, char **argv, int &i);

/** System configuration selected by the options. */
core::SystemConfig systemConfig(const Options &opts);

/**
 * Convert a paper-scale quantity ("0.5GB of slack on the 64GB node")
 * into the equivalent bytes on the configured node.
 */
std::int64_t paperGiB(double gib, const core::SystemConfig &sys);

/** Baseline experiment config for one app/dataset under @p opts. */
core::ExperimentConfig baseConfig(const Options &opts, core::App app,
                                  const std::string &dataset);

/** Progress note to stderr (stdout carries only tables). Serialized
 *  under a mutex so notes from ExperimentPool workers stay whole. */
void note(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print the standard bench header (system + option summary). */
void printHeader(const std::string &bench_name, const Options &opts);

/**
 * Cached experiment execution with a progress note.
 *
 * Results are memoized process-wide, keyed by
 * ExperimentConfig::fingerprint() (every field, so configs that
 * differ only in fields label() omits still run separately). A cached
 * result is returned without re-execution and never invalidated —
 * runExperiment() is deterministic, so an entry cannot go stale
 * within a process.
 */
core::RunResult run(const core::ExperimentConfig &cfg);

/**
 * Batch experiment execution on the worker pool selected by --jobs,
 * deduplicated through the same memo cache as run(). Results come
 * back in submission order and are bit-identical to calling run() in
 * a serial loop; a progress note is emitted as each config finishes.
 *
 * Hardened: each experiment runs under the --timeout-seconds
 * watchdog, and a config that throws or times out does not abort the
 * batch — every other config still completes (and is journaled when
 * --journal is set) before the failures are reported per fingerprint
 * and the bench exits nonzero.
 */
std::vector<core::RunResult>
runAll(const std::vector<core::ExperimentConfig> &configs);

} // namespace gpsm::bench

#endif // GPSM_BENCH_COMMON_HH
