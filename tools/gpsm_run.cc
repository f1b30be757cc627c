/**
 * @file
 * gpsm_run: command-line front end for the experiment harness — the
 * equivalent of the paper artifact's thp.sh / constrained.sh /
 * run_frag.sh scripts, in one binary.
 *
 * Examples:
 *   gpsm_run --app bfs --dataset kron --thp always
 *   gpsm_run --app pr --dataset twit --thp madvise --prop-fraction 0.2 \
 *            --reorder dbg --slack-mib 8 --frag 0.5 --order prop-first
 *   gpsm_run --app sssp --dataset web --thp never --stats
 */

#include <atomic>
#include <csignal>
#include <cstring>
#include <iostream>
#include <vector>

#include "core/advisor.hh"
#include "core/cli.hh"
#include "core/experiment.hh"
#include "core/runner.hh"
#include "graph/datasets.hh"
#include "util/logging.hh"
#include "util/parse.hh"
#include "util/table.hh"

using namespace gpsm;
using namespace gpsm::core;

namespace
{

/**
 * SIGINT/SIGTERM flip this batch-wide interrupt switch: in-flight
 * experiments are cooperatively cancelled and unstarted ones are
 * reported as interrupted — but every result finished before the
 * signal has already been flushed to the journal (when one is
 * attached), so the re-run resumes instead of redoing work.
 */
std::atomic<bool> g_interrupted{false};

void
onInterrupt(int)
{
    g_interrupted.store(true);
}

void
usage()
{
    std::cout <<
        "gpsm_run — run page-size-management experiments\n"
        "\n"
        "  --app bfs|sssp|pr|cc           application (default bfs);\n"
        "                                 comma list runs each\n"
        "  --dataset kron|twit|web|wiki   input network (default kron);\n"
        "                                 comma list runs each\n"
        "  --jobs N                       worker threads for the app x\n"
        "                                 dataset set (default: cores)\n"
        "  --divisor N                    Table 2 size divisor (256)\n"
        "  --thp never|always|madvise     THP mode (never)\n"
        "  --prop-fraction F              madvise F of property array\n"
        "  --madvise-vertex/edge/values   madvise whole CSR arrays\n"
        "  --order natural|prop-first     allocation order (natural)\n"
        "  --reorder none|dbg|sort|hubsort|random\n"
        "  --advisor [coverage]           let the advisor pick reorder\n"
        "                                 and fraction (default 0.8)\n"
        "  --slack-mib N                  memhog leaves WSS+N MiB free\n"
        "  --fault-plan FILE              JSON fault-injection plan\n"
        "                                 (see fault/fault_plan_io.hh)\n"
        "  --frag F                       fragment F (0-1) of free mem\n"
        "  --oo-ratio X                   out-of-core: footprint/DRAM\n"
        "                                 ratio (0 = in-core; > 1\n"
        "                                 evicts under pressure)\n"
        "  --eviction clock|lru           file-cache policy (clock)\n"
        "  --file-source tmpfs|cache|directio\n"
        "  --paper                        Haswell 4KB/2MB geometry\n"
        "  --seed N                       generator seed (1)\n"
        "  --numa-node1-mib N             add a second (remote) node\n"
        "                                 with N MiB of DRAM\n"
        "  --numa-placement first-touch|interleave|preferred-local|\n"
        "                   remote-only   page placement policy\n"
        "  --numa-migrate-on-promote      khugepaged pulls remote base\n"
        "                                 pages local when collapsing\n"
        "  --pressure-node local|remote|both\n"
        "                                 where memhog/frag run\n"
        "  --journal PATH                 crash-safe result journal;\n"
        "                                 re-runs skip finished runs\n"
        "  --timeout-seconds X            per-experiment wall budget\n"
        "  --timeout-retries N            extra tries after a timeout\n"
        "  --metrics-dir PATH             write per-run telemetry\n"
        "                                 (metrics JSON, Chrome trace,\n"
        "                                 series JSONL) under PATH\n"
        "  --sample-interval N            sampler epoch length in\n"
        "                                 traced accesses (default 1M;\n"
        "                                 0 disables the sampler)\n"
        "  --replay                       record each distinct kernel\n"
        "                                 access stream once; replay it\n"
        "                                 for stream-invariant configs\n"
        "  --profile                      record host wall-time per\n"
        "                                 phase into each run's metrics\n"
        "                                 document (needs --metrics-dir)\n"
        "  --quiet                        suppress progress notes\n";
}

void
printResult(const ExperimentConfig &cfg, const RunResult &r)
{
    std::cout << "config: " << cfg.label() << "\n\n";

    TableWriter table("result");
    table.setHeader({"metric", "value"});
    table.addRow({"preprocess time",
                  formatSeconds(r.preprocessSeconds)});
    table.addRow({"init time", formatSeconds(r.initSeconds)});
    table.addRow({"kernel time", formatSeconds(r.kernelSeconds)});
    table.addRow({"kernel accesses", std::to_string(r.accesses)});
    table.addRow({"dtlb miss rate",
                  TableWriter::pct(r.dtlbMissRate)});
    table.addRow({"stlb hit (of accesses)",
                  TableWriter::pct(
                      r.accesses ? static_cast<double>(r.stlbHits) /
                                       r.accesses
                                 : 0)});
    table.addRow({"walk rate", TableWriter::pct(r.stlbMissRate)});
    table.addRow({"translation share of kernel",
                  TableWriter::pct(r.translationCycleShare)});
    table.addRow({"minor faults", std::to_string(r.minorFaults)});
    table.addRow({"huge faults", std::to_string(r.hugeFaults)});
    table.addRow({"major faults", std::to_string(r.majorFaults)});
    table.addRow({"swap-outs", std::to_string(r.swapOuts)});
    table.addRow({"compaction runs",
                  std::to_string(r.compactionRuns)});
    table.addRow({"khugepaged promotions",
                  std::to_string(r.promotions)});
    table.addRow({"footprint", formatBytes(r.footprintBytes)});
    table.addRow({"huge-backed", formatBytes(r.hugeBackedBytes)});
    table.addRow({"giant-backed", formatBytes(r.giantBackedBytes)});
    table.addRow({"huge fraction",
                  TableWriter::pct(r.hugeFractionOfFootprint, 2)});
    if (cfg.oocRatio != 0.0) {
        // Out-of-core rows only when the mode is on: default output
        // stays byte-identical to the in-core build.
        table.addRow({"file reads", std::to_string(r.fileReads)});
        table.addRow({"file writebacks",
                      std::to_string(r.fileWritebacks)});
        table.addRow({"file evictions",
                      std::to_string(r.fileEvictions)});
    }
    table.addRow({"kernel output", std::to_string(r.kernelOutput)});
    table.addRow({"checksum", std::to_string(r.checksum)});
    table.print(std::cout, /*with_csv=*/false);
}

} // namespace

int
main(int argc, char **argv)
try {
    cli::RunSpec spec;
    cli::HarnessOptions harness;
    bool use_advisor = false;
    double advisor_coverage = 0.8;
    PoolOptions pool_opts;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (cli::parseRunFlag(argc, argv, i, spec) ||
            cli::parseHarnessFlag(argc, argv, i, harness))
            continue;
        if (arg == "--advisor") {
            use_advisor = true;
            if (i + 1 < argc && argv[i + 1][0] != '-')
                advisor_coverage = parseDouble(argv[++i], "--advisor");
        } else if (arg == "--timeout-retries") {
            pool_opts.timeoutRetries = parseUnsigned(
                cli::flagValue(argc, argv, i), "--timeout-retries");
        } else if (arg == "--quiet") {
            setQuiet(true);
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            fatal("unknown argument '%s' (try --help)", arg.c_str());
        }
    }

    // The app x dataset cross product, in declared order, executed as
    // one set through the pool.
    std::vector<ExperimentConfig> configs = spec.expand();
    if (use_advisor) {
        for (ExperimentConfig &c : configs) {
            const graph::CsrGraph g = graph::makeDataset(
                graph::datasetByName(c.dataset), c.scaleDivisor,
                c.app == App::Sssp, c.seed);
            const PageSizeAdvice advice =
                advisePageSizes(g, c.sys, advisor_coverage);
            std::cout << "advisor [" << c.dataset
                      << "]: " << advice.describe() << '\n';
            c.thpMode = vm::ThpMode::Madvise;
            c.order = AllocOrder::PropertyFirst;
            c.reorder = advice.useDbg ? graph::ReorderMethod::Dbg
                                      : graph::ReorderMethod::None;
            c.madvise =
                MadviseSelection::propertyOnly(advice.propertyFraction);
        }
    }

    cli::installHarness(harness);
    pool_opts.timeoutSeconds = harness.timeoutSeconds;

    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = onInterrupt;
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
    pool_opts.interrupt = &g_interrupted;

    std::cout << spec.base.sys.describe();
    ExperimentPool pool(harness.jobs);
    const std::vector<RunOutcome> outcomes =
        pool.runOutcomes(configs, pool_opts);

    // Print every successful result first, then the structured
    // failures, so one bad combination never hides the others.
    int failures = 0;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        if (outcomes[i].ok())
            printResult(configs[i], *outcomes[i].result);
    }
    for (std::size_t i = 0; i < configs.size(); ++i) {
        if (outcomes[i].ok())
            continue;
        const ExperimentError &err = *outcomes[i].error;
        ++failures;
        std::fprintf(stderr,
                     "FAILED [%s] %s: %s (attempts: %u)\n"
                     "  fingerprint: %s\n",
                     experimentErrorKindName(err.kind),
                     err.label.c_str(), err.message.c_str(),
                     outcomes[i].attempts, err.fingerprint.c_str());
    }
    if (g_interrupted.load()) {
        const JournalStats js = resultJournalStats();
        if (js.enabled)
            std::fprintf(stderr,
                         "interrupted: journal flushed (%llu results "
                         "on disk); the re-run resumes from it\n",
                         static_cast<unsigned long long>(js.loaded +
                                                         js.appends));
        else
            std::fprintf(stderr,
                         "interrupted (no journal attached; finished "
                         "results are lost — use --journal)\n");
    }
    return failures == 0 ? 0 : 1;
} catch (const FatalError &) {
    return 1;
}

