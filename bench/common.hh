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

#include "core/cli.hh"
#include "core/experiment.hh"
#include "util/table.hh"
#include "util/units.hh"

namespace gpsm::bench
{

/** Command-line options shared by all figure benches. */
struct Options
{
    /** The config flags a bench accepts: --divisor N (Table 2 sizes
     *  divided by N, default 256), --paper (Haswell 4KB/2MB geometry
     *  instead of scaled), --oo-ratio X (footprint / modeled-DRAM
     *  ratio; 0 = in-core) and --eviction clock|lru (file-cache
     *  policy with --oo-ratio). Every figure sets the other fields
     *  per config. */
    core::ExperimentConfig base = core::cli::defaultConfig();
    /** --quick: tiny datasets, fewest configs (CI smoke mode). */
    bool quick = false;
    /** --datasets kron,twit,web,wiki */
    std::vector<std::string> datasets{"kron", "twit", "web", "wiki"};
    /** --apps bfs,sssp,pr */
    std::vector<core::App> apps{core::App::Bfs, core::App::Sssp,
                                core::App::Pr};
    /** --jobs, --journal, --timeout-seconds, --metrics-dir,
     *  --sample-interval, --replay, --profile (core/cli.hh). Results,
     *  stdout tables and per-run metrics are byte-identical at any
     *  --jobs, with or without --replay and --profile. */
    core::cli::HarnessOptions harness;
    /** --progress: live batch progress lines (done/cached/failed
     *  counts, elapsed, ETA) on stderr. */
    bool progress = false;
    /** --shard i/n: run only the i-th of n deterministic partitions of
     *  each runAll() batch (1-based). Unowned rows render as zeros;
     *  union the result journals of all shards (or diff their metrics
     *  dirs) to assemble the full figure. 1/1 (the default) disables
     *  sharding. */
    unsigned shard = 1;
    unsigned shards = 1;
};

/**
 * Parse the bench flags and install the harness (core/cli.hh); a bad
 * or unknown argument exits 1 with the message on stderr. --quick
 * applies its defaults (tiny divisor, kron+wiki, BFS only) only to
 * options the user did not set explicitly, so `--quick --apps pr` runs
 * PageRank on quick-sized inputs.
 */
Options parseOptions(int argc, char **argv);

/**
 * For binaries that run no experiments (micro_substrate, bench_serve)
 * but sit in the same suite: if argv[@p i] is one of the flags
 * parseOptions() accepts, step @p i past it (and past its value, when
 * it takes one) and return true. The caller ignores the flag, so one
 * flag set drives every binary in scripts/run_benches.sh. A bad value
 * exits 1, as in parseOptions().
 */
bool skipHarnessFlag(int argc, char **argv, int &i);

/**
 * Convert a paper-scale quantity ("0.5GB of slack on the 64GB node")
 * into the equivalent bytes on the configured node.
 */
std::int64_t paperGiB(double gib, const core::SystemConfig &sys);

/** opts.base for one app/dataset. */
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
 * and the bench exits 1.
 */
std::vector<core::RunResult>
runAll(const std::vector<core::ExperimentConfig> &configs);

} // namespace gpsm::bench

#endif // GPSM_BENCH_COMMON_HH
