/**
 * @file
 * gpsm_report: inspect and diff executed-run stores.
 *
 * A store is either a metrics directory written with --metrics-dir
 * (gpsm-metrics-v1 documents) or a .gpsmj result journal; the two are
 * interchangeable here because both resolve to per-run metric maps
 * keyed by the fingerprint-derived run id.
 *
 *   gpsm_report summary STORE
 *       per-run table of the key metrics plus store health.
 *
 *   gpsm_report diff BEFORE AFTER [diff options]
 *       metric-by-metric comparison; exits nonzero when a watched
 *       metric regressed past tolerance or a checksum changed, so it
 *       doubles as the CI regression gate.
 *
 * Diff options:
 *   --tolerance F              default relative tolerance (0.05)
 *   --tolerance-metric M=F     per-metric override (repeatable)
 *   --fail-on-missing          runs present on one side only fail
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/report.hh"
#include "util/logging.hh"
#include "util/parse.hh"

namespace
{

using namespace gpsm;

int usage(FILE *out)
{
    std::fprintf(
        out,
        "usage: gpsm_report summary STORE\n"
        "       gpsm_report diff BEFORE AFTER [options]\n"
        "\n"
        "STORE is a --metrics-dir directory or a .gpsmj journal.\n"
        "\n"
        "diff options:\n"
        "  --tolerance F            relative tolerance "
        "(default 0.05)\n"
        "  --tolerance-metric M=F   per-metric tolerance override\n"
        "  --fail-on-missing        one-sided runs fail the diff\n");
    return out == stdout ? 0 : 2;
}

void reportStoreErrors(const core::ReportStore &store)
{
    for (const std::string &err : store.errors)
        warn("%s: %s", store.source.c_str(), err.c_str());
}

int runSummary(const std::string &path)
{
    core::ReportStore store = core::loadStore(path);
    reportStoreErrors(store);
    if (store.entries.empty() && !store.errors.empty()) {
        warn("no loadable runs in %s", path.c_str());
        return 1;
    }
    std::fputs(core::renderSummary(store).c_str(), stdout);
    return 0;
}

/** A relative tolerance: a finite, non-negative number. */
double parseTolerance(const std::string &text, const char *flag)
{
    const double tolerance = parseDouble(text, flag);
    if (tolerance < 0.0)
        fatal("%s must be non-negative, got '%s'", flag, text.c_str());
    return tolerance;
}

int runDiff(const std::vector<std::string> &args)
{
    if (args.size() < 2)
        return usage(stderr);

    core::DiffOptions opts;

    std::size_t i = 2;
    auto next = [&](const char *flag) -> std::string {
        if (i + 1 >= args.size())
            fatal("%s needs a value", flag);
        return args[++i];
    };
    for (; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg == "--tolerance") {
            opts.relTolerance =
                parseTolerance(next("--tolerance"), "--tolerance");
        } else if (arg == "--tolerance-metric") {
            const std::string spec = next("--tolerance-metric");
            const std::size_t eq = spec.find('=');
            if (eq == std::string::npos || eq == 0)
                fatal("--tolerance-metric wants NAME=F, got "
                            "'%s'", spec.c_str());
            opts.tolerances[spec.substr(0, eq)] = parseTolerance(
                spec.substr(eq + 1), "--tolerance-metric");
        } else if (arg == "--fail-on-missing") {
            opts.failOnMissing = true;
        } else {
            fatal("unknown diff option '%s'", arg.c_str());
        }
    }

    core::ReportStore before = core::loadStore(args[0]);
    core::ReportStore after = core::loadStore(args[1]);
    reportStoreErrors(before);
    reportStoreErrors(after);

    const core::DiffReport report =
        core::diffStores(before, after, opts);
    std::fputs(core::renderDiff(report, opts).c_str(), stdout);

    return report.clean(opts) ? 0 : 1;
}

} // namespace

int main(int argc, char **argv) try
{
    if (argc >= 2 && (std::strcmp(argv[1], "--help") == 0 ||
                      std::strcmp(argv[1], "-h") == 0))
        return usage(stdout);
    if (argc < 3)
        return usage(stderr);

    const std::string mode = argv[1];
    std::vector<std::string> rest(argv + 2, argv + argc);
    if (mode == "summary" && rest.size() == 1)
        return runSummary(rest[0]);
    if (mode == "diff")
        return runDiff(rest);
    return usage(stderr);
} catch (const gpsm::FatalError &e) {
    gpsm::reportFatal(e);
    return 2;
}
