/**
 * @file
 * The run vocabulary on the command line, parsed in one place.
 *
 * gpsm_run and `gpsm_serve --submit` name experiments with the same
 * config flags (parseRunFlag), gpsm_run and the bench harness share the
 * harness flags (parseHarnessFlag, installed by installHarness), and
 * the CLI and the serve wire codec spell every config enum from the
 * same enumerator tables (parseNamed over the all* arrays), so a name
 * one front end accepts is a name every front end accepts.
 *
 * The flag parsers share one convention: argv[i] is the flag under the
 * cursor. A parser that owns it consumes its value (advancing @p i)
 * and returns true; for any other flag it returns false and changes
 * nothing. A malformed or unknown value is fatal() with the flag's
 * name in the message.
 */

#ifndef GPSM_CORE_CLI_HH
#define GPSM_CORE_CLI_HH

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hh"
#include "obs/telemetry.hh"
#include "util/logging.hh"

namespace gpsm::core::cli
{

/** @name Every enumerator of each config enum @{ */
inline constexpr App allApps[] = {App::Bfs, App::Sssp, App::Pr, App::Cc};
inline constexpr graph::ReorderMethod allReorders[] = {
    graph::ReorderMethod::None, graph::ReorderMethod::Dbg,
    graph::ReorderMethod::SortByDegree, graph::ReorderMethod::HubSort,
    graph::ReorderMethod::Random};
inline constexpr vm::ThpMode allThpModes[] = {
    vm::ThpMode::Never, vm::ThpMode::Madvise, vm::ThpMode::Always};
inline constexpr AllocOrder allOrders[] = {AllocOrder::Natural,
                                           AllocOrder::PropertyFirst};
inline constexpr PressureNode allPressureNodes[] = {
    PressureNode::Local, PressureNode::Remote, PressureNode::Both};
inline constexpr FileSource allFileSources[] = {
    FileSource::TmpfsRemote, FileSource::PageCacheLocal,
    FileSource::DirectIo};
inline constexpr NumaPlacement allPlacements[] = {
    NumaPlacement::FirstTouch, NumaPlacement::Interleave,
    NumaPlacement::PreferredLocal, NumaPlacement::RemoteOnly};
inline constexpr mem::EvictionKind allEvictions[] = {
    mem::EvictionKind::Clock, mem::EvictionKind::Lru};
/** @} */

/**
 * The enumerator of @p all that @p name spells @p text, or the one an
 * entry of @p aliases maps it to. Anything else is fatal(), naming
 * @p what and listing the accepted names. Because the names come from
 * the enum's own *Name() function, parsing is the exact inverse of
 * printing.
 */
template <typename Enum, std::size_t N>
Enum
parseNamed(const std::string &text, const char *what, const Enum (&all)[N],
           const char *(*name)(Enum),
           std::initializer_list<std::pair<const char *, Enum>> aliases = {})
{
    for (const auto &[alias, e] : aliases)
        if (text == alias)
            return e;
    std::string names;
    for (const Enum e : all) {
        if (text == name(e))
            return e;
        names += names.empty() ? "" : "|";
        names += name(e);
    }
    fatal("%s: unknown value '%s' (%s)", what, text.c_str(),
          names.c_str());
}

/** The value after the flag at argv[@p i]; advances @p i. A flag in
 *  last position is fatal(). */
std::string flagValue(int argc, char **argv, int &i);

/** Comma-separated items of @p text (empty items skipped); an empty
 *  list is fatal(), naming @p flag. */
std::vector<std::string> parseList(const std::string &text,
                                   const char *flag);

/** Comma-separated application names. */
std::vector<App> parseApps(const std::string &text, const char *flag);

/** A 1-based "I/N" shard spec for --shard; fatal() unless
 *  1 <= I <= N. */
void parseShard(const std::string &spec, unsigned &shard,
                unsigned &shards);

/** A default ExperimentConfig at the front ends' Table 2 divisor (256;
 *  the struct's own default is the tests'). */
ExperimentConfig defaultConfig();

/**
 * One config flag into @p cfg: --divisor --seed --paper --thp
 * --prop-fraction --madvise-vertex --madvise-edge --madvise-values
 * --order --reorder --slack-mib --frag --fault-plan --oo-ratio
 * --eviction --file-source --numa-node1-mib --numa-placement
 * --numa-migrate-on-promote --pressure-node.
 */
bool parseConfigFlag(int argc, char **argv, int &i, ExperimentConfig &cfg);

/** A batch as the command line names it: the app x dataset cross
 *  product over one base config. */
struct RunSpec
{
    ExperimentConfig base = defaultConfig();
    std::vector<App> apps{App::Bfs};
    std::vector<std::string> datasets{"kron"};

    /** One config per app x dataset, apps outermost, in the order
     *  the lists name them. */
    std::vector<ExperimentConfig> expand() const;
};

/** parseConfigFlag into spec.base, plus --app and --dataset (comma
 *  lists). */
bool parseRunFlag(int argc, char **argv, int &i, RunSpec &spec);

/** The harness flags gpsm_run and the bench binaries share. */
struct HarnessOptions
{
    /** --jobs N: experiment worker threads (0 = hardware threads). */
    unsigned jobs = 0;
    /** --journal PATH: crash-safe result journal ("" = none). */
    std::string journal;
    /** --timeout-seconds X: per-experiment wall budget (0 = none). */
    double timeoutSeconds = 0.0;
    /** --metrics-dir PATH and --sample-interval N. */
    obs::TelemetryOptions telemetry;
    /** --replay: record each distinct access stream once, replay it. */
    bool replay = false;
    /** --profile: host wall time per phase into the metrics. */
    bool profile = false;
};

/** One harness flag: --jobs --journal --timeout-seconds --metrics-dir
 *  --sample-interval --replay --profile. */
bool parseHarnessFlag(int argc, char **argv, int &i,
                      HarnessOptions &opts);

/**
 * Install @p opts process-wide before the first experiment: replay,
 * profiler, telemetry (an empty metrics dir is the off switch) and,
 * when a path is set, the result journal. An unwritable journal only
 * warns: the run proceeds, it just cannot be resumed.
 */
void installHarness(const HarnessOptions &opts);

} // namespace gpsm::core::cli

#endif // GPSM_CORE_CLI_HH
