/**
 * @file
 * Run-report engine behind tools/gpsm_report.
 *
 * Loads executed runs from either source of truth — a metrics
 * directory of gpsm-metrics-v1 documents (obs::writeRunTelemetry) or
 * a .gpsmj result journal — into a uniform store of per-run metric
 * maps, then summarizes one store or diffs two metric-by-metric with
 * configurable regression thresholds. The diff is the repo's
 * regression gate: CI runs a sweep twice and fails the build when a
 * watched metric moved past its tolerance or a checksum changed.
 */

#ifndef GPSM_CORE_REPORT_HH
#define GPSM_CORE_REPORT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/json.hh"

namespace gpsm::core
{

/** One loaded run, whatever the source. */
struct ReportEntry
{
    /** 16-hex run id: obs::runId(fingerprint) — the join key. */
    std::string run;
    /** Human label (metrics docs carry it; journals do not). */
    std::string label;
    /** app/dataset when the metrics document recorded them. */
    std::string app;
    std::string dataset;
    /** Flattened "result" metrics (core::resultMetrics names). */
    std::map<std::string, double> metrics;
    /** Host phase wall seconds (the optional "profile" section written
     *  when the run executed with the profiler armed; empty when the
     *  profiler was dormant). */
    std::map<std::string, double> profile;
    /** @name Observability drop accounting (metrics documents only;
     *  journals carry none). Nonzero means something was silently
     *  truncated, so renderSummary() calls it out per run. @{ */
    std::uint64_t traceDropped = 0;  ///< TraceSink capped-recorder
    std::uint64_t seriesDropped = 0; ///< sampler epochs past the cap
    std::uint64_t eventDrops = 0;    ///< live-stream subscriber drops
    /** @} */
};

/** Every run loaded from one path, keyed and sorted by run id. */
struct ReportStore
{
    std::string source;
    std::vector<ReportEntry> entries;
    /** Files/lines skipped as malformed (reported, never fatal). */
    std::vector<std::string> errors;

    const ReportEntry *find(const std::string &run) const;
};

/**
 * Validate one gpsm-metrics-v1 document: schema tag, run id shape,
 * fingerprint/label presence, numeric "result" object, "stats"
 * object, and internally consistent series/trace summaries. The
 * optional "events" section (present only when a live event stream
 * was attached during the run) must carry numeric "published" and
 * "subscriberDrops" when it appears; the optional "profile" section
 * (present only when the run executed with the host phase profiler
 * armed) must be an object of numeric phase seconds.
 * @return true when valid; otherwise false with @p error set.
 */
bool validateMetricsDoc(const obs::Json &doc, std::string &error);

/** Load every run_*.json under @p dir (non-recursive). */
ReportStore loadMetricsDir(const std::string &dir);

/** Load a result journal; run ids are hashed from fingerprints. */
ReportStore loadJournal(const std::string &path);

/**
 * Auto-detect @p path: a directory loads as a metrics dir, a file as
 * a journal.
 */
ReportStore loadStore(const std::string &path);

/**
 * Regression policy for diffStores(). A metric regresses when it is
 * *worse* (per watchedMetrics() direction) by more than the relative
 * tolerance; improvements and unwatched metrics are reported as
 * changes but never fail the diff. Checksums are exact-compare.
 */
struct DiffOptions
{
    /** Default relative tolerance (fraction, e.g. 0.05 = 5%). */
    double relTolerance = 0.05;
    /** Per-metric overrides of relTolerance. */
    std::map<std::string, double> tolerances;
    /** Fail when a run exists on only one side. */
    bool failOnMissing = false;
};

/** Metrics watched for regressions; true = higher is worse. */
const std::map<std::string, bool> &watchedMetrics();

/** One metric that differs between the two stores. */
struct MetricDelta
{
    std::string run;
    std::string label;
    std::string metric;
    double before = 0.0;
    double after = 0.0;
    /** (after - before) / |before|; +/-inf-like values are clamped
     *  to +/-1e9 when before == 0. */
    double relChange = 0.0;
    bool regression = false;
};

/** The outcome of diffing two stores. */
struct DiffReport
{
    std::vector<MetricDelta> deltas; ///< changed metrics, run order
    std::vector<std::string> onlyBefore; ///< run ids missing after
    std::vector<std::string> onlyAfter;  ///< run ids new after
    std::size_t comparedRuns = 0;
    std::size_t checksumMismatches = 0;

    std::size_t regressions() const;
    /** False when the diff should fail CI under @p opts. */
    bool clean(const DiffOptions &opts) const;
};

DiffReport diffStores(const ReportStore &before,
                      const ReportStore &after,
                      const DiffOptions &opts);

/** @name Rendering @{ */

/** Per-run summary table (key metrics only) plus store health. */
std::string renderSummary(const ReportStore &store);

/** Human diff report: regressions first, then other changes. */
std::string renderDiff(const DiffReport &report,
                       const DiffOptions &opts);

/** @} */

} // namespace gpsm::core

#endif // GPSM_CORE_REPORT_HH
