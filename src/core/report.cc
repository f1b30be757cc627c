/**
 * @file
 * Report engine implementation.
 */

#include "core/report.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/journal.hh"
#include "core/metrics.hh"
#include "obs/telemetry.hh"
#include "util/table.hh"

namespace gpsm::core
{

namespace
{

namespace fs = std::filesystem;
using Json = obs::Json;

std::optional<std::string>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

bool
isRunId(const std::string &s)
{
    if (s.size() != 16)
        return false;
    return std::all_of(s.begin(), s.end(), [](unsigned char c) {
        return std::isxdigit(c) != 0;
    });
}

const Json *
findObject(const obs::Json &doc, const char *key)
{
    const obs::Json *v = doc.find(key);
    return v != nullptr && v->isObject() ? v : nullptr;
}

/** Relative change, clamped when the baseline is zero. */
double
relativeChange(double before, double after)
{
    if (before == 0.0)
        return after == 0.0 ? 0.0 : (after > 0.0 ? 1e9 : -1e9);
    return (after - before) / std::fabs(before);
}

std::string
fieldOr(const obs::Json &doc, const char *key, const char *fallback)
{
    const obs::Json *v = doc.find(key);
    return v != nullptr && v->isString() ? v->asString() : fallback;
}

std::uint64_t
numberOrZero(const Json *section, const char *key)
{
    if (section == nullptr)
        return 0;
    const Json *v = section->find(key);
    return v != nullptr && v->isNumber()
               ? static_cast<std::uint64_t>(v->asNumber())
               : 0;
}

void
sortEntries(ReportStore &store)
{
    std::sort(store.entries.begin(), store.entries.end(),
              [](const ReportEntry &a, const ReportEntry &b) {
        return a.run < b.run;
    });
}

} // namespace

const ReportEntry *
ReportStore::find(const std::string &run) const
{
    for (const ReportEntry &e : entries) {
        if (e.run == run)
            return &e;
    }
    return nullptr;
}

bool
validateMetricsDoc(const obs::Json &doc, std::string &error)
{
    if (!doc.isObject()) {
        error = "document is not a JSON object";
        return false;
    }
    const Json *schema = doc.find("schema");
    if (schema == nullptr || !schema->isString() ||
        schema->asString() != "gpsm-metrics-v1") {
        error = "missing or unknown schema tag";
        return false;
    }
    const Json *run = doc.find("run");
    if (run == nullptr || !run->isString() || !isRunId(run->asString())) {
        error = "\"run\" is not a 16-hex-digit id";
        return false;
    }
    const Json *fp = doc.find("fingerprint");
    if (fp == nullptr || !fp->isString() || fp->asString().empty()) {
        error = "missing \"fingerprint\"";
        return false;
    }
    const Json *label = doc.find("label");
    if (label == nullptr || !label->isString()) {
        error = "missing \"label\"";
        return false;
    }
    const Json *result = findObject(doc, "result");
    if (result == nullptr || result->size() == 0) {
        error = "missing or empty \"result\" object";
        return false;
    }
    for (const auto &[key, value] : result->entries()) {
        if (!value.isNumber()) {
            error = "non-numeric result metric \"" + key + "\"";
            return false;
        }
    }
    if (findObject(doc, "stats") == nullptr) {
        error = "missing \"stats\" object";
        return false;
    }
    const Json *trace = findObject(doc, "trace");
    if (trace == nullptr) {
        error = "missing \"trace\" object";
        return false;
    }
    for (const char *key : {"events", "dropped"}) {
        const Json *v = trace->find(key);
        if (v == nullptr || !v->isNumber()) {
            error = std::string("trace summary lacks numeric \"") +
                    key + "\"";
            return false;
        }
    }
    if (const Json *series = doc.find("series"); series != nullptr) {
        if (!series->isObject()) {
            error = "\"series\" is not an object";
            return false;
        }
        for (const char *key : {"interval", "epochs", "dropped"}) {
            const Json *v = series->find(key);
            if (v == nullptr || !v->isNumber()) {
                error = std::string("series summary lacks numeric \"") +
                        key + "\"";
                return false;
            }
        }
        const Json *file = series->find("file");
        if (file == nullptr || !file->isString()) {
            error = "series summary lacks \"file\"";
            return false;
        }
    }
    if (const Json *events = doc.find("events"); events != nullptr) {
        if (!events->isObject()) {
            error = "\"events\" is not an object";
            return false;
        }
        for (const char *key : {"published", "subscriberDrops"}) {
            const Json *v = events->find(key);
            if (v == nullptr || !v->isNumber()) {
                error = std::string("events summary lacks numeric \"") +
                        key + "\"";
                return false;
            }
        }
    }
    if (const Json *profile = doc.find("profile"); profile != nullptr) {
        if (!profile->isObject()) {
            error = "\"profile\" is not an object";
            return false;
        }
        for (const auto &[key, value] : profile->entries()) {
            if (!value.isNumber()) {
                error = "non-numeric profile phase \"" + key + "\"";
                return false;
            }
        }
    }
    return true;
}

ReportStore
loadMetricsDir(const std::string &dir)
{
    ReportStore store;
    store.source = dir;

    std::error_code ec;
    std::vector<std::string> names;
    for (const auto &ent : fs::directory_iterator(dir, ec)) {
        const std::string name = ent.path().filename().string();
        if (name.rfind("run_", 0) == 0 &&
            name.size() > 9 &&
            name.compare(name.size() - 5, 5, ".json") == 0) {
            names.push_back(ent.path().string());
        }
    }
    if (ec) {
        store.errors.push_back(dir + ": " + ec.message());
        return store;
    }
    std::sort(names.begin(), names.end());

    for (const std::string &path : names) {
        const auto text = readFile(path);
        if (!text) {
            store.errors.push_back(path + ": unreadable");
            continue;
        }
        std::size_t off = 0;
        const auto doc = obs::parseJson(*text, &off);
        if (!doc) {
            store.errors.push_back(path + ": JSON error at byte " +
                                   std::to_string(off));
            continue;
        }
        std::string why;
        if (!validateMetricsDoc(*doc, why)) {
            store.errors.push_back(path + ": " + why);
            continue;
        }
        ReportEntry e;
        e.run = doc->find("run")->asString();
        e.label = fieldOr(*doc, "label", "");
        e.app = fieldOr(*doc, "app", "");
        e.dataset = fieldOr(*doc, "dataset", "");
        e.metrics = metricMapFromJson(*doc->find("result"));
        e.traceDropped = numberOrZero(findObject(*doc, "trace"),
                                      "dropped");
        e.seriesDropped = numberOrZero(findObject(*doc, "series"),
                                       "dropped");
        e.eventDrops = numberOrZero(findObject(*doc, "events"),
                                    "subscriberDrops");
        if (const Json *profile = findObject(*doc, "profile")) {
            for (const auto &[key, value] : profile->entries()) {
                if (value.isNumber())
                    e.profile.emplace(key, value.asNumber());
            }
        }
        // Two-node runs carry their NUMA counters only in the machine
        // stats snapshot (RunResult is frozen for journal
        // compatibility); fold them into the metric map so diffs watch
        // them. Dormant runs have none of these keys, so pre-NUMA
        // metric maps — and committed reference diffs — are unchanged.
        if (const Json *stats = findObject(*doc, "stats")) {
            for (const auto &[key, value] : stats->entries()) {
                if (!value.isNumber())
                    continue;
                if (key.rfind("node1.", 0) == 0 ||
                    key == "mmu.remoteAccesses" ||
                    key == "space.remotePlacedPages" ||
                    key == "space.spilledPages" ||
                    key == "space.promoteMovedPages") {
                    e.metrics.emplace(key, value.asNumber());
                }
            }
        }
        store.entries.push_back(std::move(e));
    }
    sortEntries(store);
    return store;
}

ReportStore
loadJournal(const std::string &path)
{
    ReportStore store;
    store.source = path;

    ResultJournal journal(path);
    if (journal.corruptedLines() > 0) {
        store.errors.push_back(
            path + ": " + std::to_string(journal.corruptedLines()) +
            " corrupt line(s) skipped");
    }
    for (auto &[fp, result] : journal.snapshotAll()) {
        ReportEntry e;
        e.run = obs::runId(fp);
        e.metrics = resultMetricMap(result);
        store.entries.push_back(std::move(e));
    }
    sortEntries(store);
    return store;
}

ReportStore
loadStore(const std::string &path)
{
    std::error_code ec;
    if (fs::is_directory(path, ec))
        return loadMetricsDir(path);
    return loadJournal(path);
}

const std::map<std::string, bool> &
watchedMetrics()
{
    // true = higher is worse. Deterministic-count metrics that define
    // behaviour (accesses, faults, promotions, checksum) are compared
    // exactly elsewhere or reported as plain changes; these are the
    // quality metrics a perf/policy regression shows up in.
    static const std::map<std::string, bool> watched = {
        {"initSeconds", true},
        {"kernelSeconds", true},
        {"preprocessSeconds", true},
        {"dtlbMissRate", true},
        {"stlbMissRate", true},
        {"translationCycleShare", true},
        {"majorFaults", true},
        {"swapOuts", true},
        {"hugeFallbacks", true},
        {"hugeFractionOfFootprint", false},
        // Two-node counters (absent on single-node runs; a watched
        // name with no key on either side simply never produces a
        // delta).
        {"mmu.remoteAccesses", true},
        {"space.remotePlacedPages", true},
        {"space.spilledPages", true},
        {"space.promoteMovedPages", true},
    };
    return watched;
}

std::size_t
DiffReport::regressions() const
{
    std::size_t n = 0;
    for (const MetricDelta &d : deltas)
        n += d.regression ? 1 : 0;
    return n;
}

bool
DiffReport::clean(const DiffOptions &opts) const
{
    if (regressions() > 0 || checksumMismatches > 0)
        return false;
    if (opts.failOnMissing &&
        (!onlyBefore.empty() || !onlyAfter.empty())) {
        return false;
    }
    return true;
}

DiffReport
diffStores(const ReportStore &before, const ReportStore &after,
           const DiffOptions &opts)
{
    DiffReport report;

    for (const ReportEntry &b : before.entries) {
        if (after.find(b.run) == nullptr)
            report.onlyBefore.push_back(b.run);
    }
    for (const ReportEntry &a : after.entries) {
        const ReportEntry *b = before.find(a.run);
        if (b == nullptr) {
            report.onlyAfter.push_back(a.run);
            continue;
        }
        ++report.comparedRuns;

        // Union of metric names, sorted (both maps are ordered).
        std::vector<std::string> names;
        for (const auto &[name, _] : b->metrics)
            names.push_back(name);
        for (const auto &[name, _] : a.metrics) {
            if (b->metrics.find(name) == b->metrics.end())
                names.push_back(name);
        }
        std::sort(names.begin(), names.end());

        for (const std::string &name : names) {
            const auto bit = b->metrics.find(name);
            const auto ait = a.metrics.find(name);
            const double bv =
                bit != b->metrics.end() ? bit->second : 0.0;
            const double av =
                ait != a.metrics.end() ? ait->second : 0.0;
            if (bv == av)
                continue;

            MetricDelta d;
            d.run = a.run;
            d.label = !a.label.empty() ? a.label : b->label;
            d.metric = name;
            d.before = bv;
            d.after = av;
            d.relChange = relativeChange(bv, av);

            if (name == "checksum") {
                // Correctness, not a tolerance question.
                d.regression = true;
                ++report.checksumMismatches;
            } else if (const auto w = watchedMetrics().find(name);
                       w != watchedMetrics().end()) {
                const bool worse =
                    w->second ? av > bv : av < bv;
                const auto t = opts.tolerances.find(name);
                const double tol = t != opts.tolerances.end()
                                       ? t->second
                                       : opts.relTolerance;
                d.regression =
                    worse && std::fabs(d.relChange) > tol;
            }
            report.deltas.push_back(std::move(d));
        }
    }
    return report;
}

std::string
renderSummary(const ReportStore &store)
{
    std::ostringstream os;

    TableWriter table("Run summary: " + store.source);
    table.setHeader({"run", "app", "dataset", "kernel_s", "dtlb_mr",
                     "stlb_mr", "huge_frac", "checksum", "drops"});
    for (const ReportEntry &e : store.entries) {
        auto metric = [&](const char *name) {
            const auto it = e.metrics.find(name);
            return it != e.metrics.end() ? it->second : 0.0;
        };
        table.addRow({
            e.run,
            e.app.empty() ? "-" : e.app,
            e.dataset.empty() ? "-" : e.dataset,
            TableWriter::num(metric("kernelSeconds"), 4),
            TableWriter::pct(metric("dtlbMissRate"), 2),
            TableWriter::pct(metric("stlbMissRate"), 2),
            TableWriter::pct(metric("hugeFractionOfFootprint"), 1),
            std::to_string(
                static_cast<std::uint64_t>(metric("checksum"))),
            std::to_string(e.traceDropped + e.seriesDropped +
                           e.eventDrops),
        });
    }
    table.print(os, /*with_csv=*/false);

    // Host phase breakdown: printed only when at least one run was
    // executed with the profiler armed, so dormant stores render
    // exactly as before.
    const bool any_profile =
        std::any_of(store.entries.begin(), store.entries.end(),
                    [](const ReportEntry &e) {
            return !e.profile.empty();
        });
    if (any_profile) {
        TableWriter prof("Host phase breakdown (wall seconds)");
        prof.setHeader({"run", "build", "load", "kernel", "verify",
                        "dispatch", "total"});
        for (const ReportEntry &e : store.entries) {
            if (e.profile.empty())
                continue;
            auto phase = [&](const char *name) {
                const auto it = e.profile.find(name);
                return it != e.profile.end() ? it->second : 0.0;
            };
            double total = 0.0;
            for (const auto &[_, seconds] : e.profile)
                total += seconds;
            prof.addRow({
                e.run,
                TableWriter::num(phase("build"), 4),
                TableWriter::num(phase("load"), 4),
                TableWriter::num(phase("kernel"), 4),
                TableWriter::num(phase("verify"), 4),
                TableWriter::num(phase("replay_dispatch"), 4),
                TableWriter::num(total, 4),
            });
        }
        prof.print(os, /*with_csv=*/false);
    }

    // Call out silent truncation by source so a nonzero "drops"
    // column is immediately attributable.
    for (const ReportEntry &e : store.entries) {
        if (e.traceDropped + e.seriesDropped + e.eventDrops == 0)
            continue;
        os << "  ! " << e.run << " dropped records:";
        if (e.traceDropped > 0)
            os << " trace=" << e.traceDropped;
        if (e.seriesDropped > 0)
            os << " series=" << e.seriesDropped;
        if (e.eventDrops > 0)
            os << " events=" << e.eventDrops;
        os << "\n";
    }

    os << store.entries.size() << " run(s)";
    if (!store.errors.empty()) {
        os << ", " << store.errors.size() << " skipped:";
        for (const std::string &e : store.errors)
            os << "\n  ! " << e;
    }
    os << "\n";
    return os.str();
}

std::string
renderDiff(const DiffReport &report, const DiffOptions &opts)
{
    std::ostringstream os;

    std::vector<const MetricDelta *> regressions;
    std::vector<const MetricDelta *> changes;
    for (const MetricDelta &d : report.deltas)
        (d.regression ? regressions : changes).push_back(&d);

    auto emit = [&](const char *title,
                    const std::vector<const MetricDelta *> &list) {
        if (list.empty())
            return;
        TableWriter table(title);
        table.setHeader(
            {"run", "metric", "before", "after", "change"});
        for (const MetricDelta *d : list) {
            std::string change;
            if (std::fabs(d->relChange) >= 1e9) {
                change = "new";
            } else {
                change = (d->relChange >= 0 ? "+" : "") +
                         TableWriter::pct(d->relChange, 2);
            }
            table.addRow({d->run, d->metric,
                          TableWriter::num(d->before, 6),
                          TableWriter::num(d->after, 6), change});
        }
        table.print(os, /*with_csv=*/false);
    };

    emit("REGRESSIONS", regressions);
    emit("Other changes", changes);

    os << "compared " << report.comparedRuns << " run(s): "
       << regressions.size() << " regression(s), " << changes.size()
       << " other change(s), " << report.checksumMismatches
       << " checksum mismatch(es)\n";
    for (const std::string &run : report.onlyBefore)
        os << "  only in before: " << run << "\n";
    for (const std::string &run : report.onlyAfter)
        os << "  only in after:  " << run << "\n";
    os << (report.clean(opts) ? "DIFF CLEAN" : "DIFF FAILED") << "\n";
    return os.str();
}

} // namespace gpsm::core
