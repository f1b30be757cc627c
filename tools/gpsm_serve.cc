/**
 * @file
 * gpsm_serve: crash-tolerant experiment service.
 *
 * Modes:
 * - daemon (default): serve experiment-batch requests over a local
 *   Unix socket until SIGINT/SIGTERM or a client's "drain" op, then
 *   drain gracefully and print the service counters. With --journal,
 *   every completed experiment is durable before its response: a
 *   SIGKILL'd daemon restarted on the same journal resumes, serving
 *   finished work from disk.
 * - --submit: act as a client. Accepts gpsm_run's config vocabulary,
 *   expands the app x dataset cross product, submits the batch over
 *   N connections and prints a summary (optionally recording results
 *   to a client-side journal for gpsm_report diffs).
 * - --stats: fetch and print the daemon's counters.
 * - --metrics: fetch the daemon's metrics snapshot (JSON, or the
 *   Prometheus text exposition with --prometheus) for scrapers.
 * - --compact-journal: offline last-record-wins rewrite of a result
 *   journal (dedupes superseded appends, drops corrupt lines). Run it
 *   only while no daemon holds the journal open.
 * - --drain: ask the daemon to drain and exit.
 *
 * Examples:
 *   gpsm_serve --socket /tmp/gpsm.sock --journal /tmp/gpsm.gpsmj &
 *   gpsm_serve --submit --socket /tmp/gpsm.sock \
 *              --app bfs,pr --dataset kron,web --divisor 1024 \
 *              --connections 8 --out-journal client.gpsmj
 *   gpsm_serve --stats --socket /tmp/gpsm.sock
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <thread>
#include <vector>

#include "core/cli.hh"
#include "core/journal.hh"
#include "core/runner.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "util/logging.hh"
#include "util/parse.hh"
#include "util/table.hh"

using namespace gpsm;
using namespace gpsm::core;

namespace
{

std::atomic<bool> g_stop{false};

void
onSignal(int)
{
    g_stop.store(true);
}

void
usage()
{
    std::cout <<
        "gpsm_serve — crash-tolerant experiment service\n"
        "\n"
        "daemon mode (default):\n"
        "  --socket PATH            Unix socket (/tmp/gpsm_serve.sock)\n"
        "  --journal PATH           crash-safe result journal; restart\n"
        "                           on the same path resumes\n"
        "  --workers N              experiment workers (default cores)\n"
        "  --queue-cap N            admission bound; beyond it requests\n"
        "                           are shed as 'overloaded' (256)\n"
        "  --max-connections N      concurrent client cap (256)\n"
        "  --default-deadline X     per-request deadline, seconds,\n"
        "                           for requests that carry none (0)\n"
        "  --default-retries N      timeout retries default (0)\n"
        "  --backoff-ms N           retry backoff base (50)\n"
        "\n"
        "client modes:\n"
        "  --submit                 submit a batch (config flags as in\n"
        "                           gpsm_run: --app --dataset --divisor\n"
        "                           --thp --prop-fraction --madvise-*\n"
        "                           --order --reorder --slack-mib\n"
        "                           --frag --oo-ratio --eviction\n"
        "                           --file-source --paper --seed\n"
        "                           --fault-plan --numa-*\n"
        "                           --pressure-node)\n"
        "    --connections N        parallel connections (4)\n"
        "    --deadline X           per-request deadline, seconds\n"
        "    --retries N            daemon-side timeout retries\n"
        "    --repeat N             submit the batch N times (dedupe/\n"
        "                           memo exercise; default 1)\n"
        "    --shard I/N            submit only shard I of N (same\n"
        "                           split as the bench --shard)\n"
        "    --out-journal PATH     record received results (journal\n"
        "                           format, diffable via gpsm_report)\n"
        "    --recv-timeout X       per-response patience (300)\n"
        "  --stats                  print daemon counters as JSON\n"
        "  --metrics                print the metrics snapshot (JSON)\n"
        "    --prometheus           Prometheus text format instead\n"
        "  --drain                  ask the daemon to drain and exit\n"
        "\n"
        "maintenance:\n"
        "  --compact-journal PATH   rewrite PATH keeping only the last\n"
        "                           record per fingerprint (offline:\n"
        "                           stop any daemon on PATH first)\n"
        "\n"
        "  --quiet                  suppress progress notes\n";
}

void
printServeStats(const serve::ServeStats &s)
{
    TableWriter table("serve stats");
    table.setHeader({"counter", "value"});
    table.addRow({"requests admitted", std::to_string(s.requests)});
    table.addRow({"completed", std::to_string(s.completed)});
    table.addRow({"failed", std::to_string(s.failed)});
    table.addRow({"shed (overloaded)", std::to_string(s.shed)});
    table.addRow({"rejected draining",
                  std::to_string(s.rejectedDraining)});
    table.addRow({"invalid", std::to_string(s.invalid)});
    table.addRow({"dedupe hits", std::to_string(s.dedupeHits)});
    table.addRow({"cache hits", std::to_string(s.cacheHits)});
    table.addRow({"timeout retries", std::to_string(s.retries)});
    table.addRow({"connections accepted",
                  std::to_string(s.connectionsAccepted)});
    table.addRow({"connections refused",
                  std::to_string(s.connectionsRefused)});
    table.addRow({"latency p50 (us)",
                  std::to_string(
                      s.latencyUs.percentileUpperBound(0.50))});
    table.addRow({"latency p99 (us)",
                  std::to_string(
                      s.latencyUs.percentileUpperBound(0.99))});
    table.addRow({"latency p999 (us)",
                  std::to_string(
                      s.latencyUs.percentileUpperBound(0.999))});
    table.addRow({"journal loaded", std::to_string(s.journal.loaded)});
    table.addRow({"journal appends",
                  std::to_string(s.journal.appends)});
    table.print(std::cout, /*with_csv=*/false);
}

int
daemonMain(const serve::ServeOptions &opts)
{
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = onSignal;
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
    std::signal(SIGPIPE, SIG_IGN);

    serve::Server server(opts);
    std::string err;
    if (!server.start(&err))
        fatal("cannot serve on '%s': %s", opts.socketPath.c_str(),
              err.c_str());
    inform("gpsm_serve: listening on %s (journal: %s)",
           opts.socketPath.c_str(),
           opts.journalPath.empty() ? "none"
                                    : opts.journalPath.c_str());

    while (!g_stop.load() && !server.drainRequested())
        std::this_thread::sleep_for(std::chrono::milliseconds(100));

    inform("gpsm_serve: draining...");
    server.drain();
    printServeStats(server.stats());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
try {
    serve::ServeOptions serve_opts;
    serve::SubmitOptions submit_opts;
    submit_opts.connections = 4;

    enum class Mode
    {
        Daemon,
        Submit,
        Stats,
        Metrics,
        Drain,
        CompactJournal,
    } mode = Mode::Daemon;
    bool prometheus = false;
    std::string compact_path;

    cli::RunSpec spec;
    unsigned repeat = 1;
    unsigned shard = 1;
    unsigned shards = 1;
    std::string out_journal;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&] { return cli::flagValue(argc, argv, i); };
        if (cli::parseRunFlag(argc, argv, i, spec))
            continue;
        if (arg == "--submit") {
            mode = Mode::Submit;
        } else if (arg == "--stats") {
            mode = Mode::Stats;
        } else if (arg == "--metrics") {
            mode = Mode::Metrics;
        } else if (arg == "--prometheus") {
            prometheus = true;
        } else if (arg == "--compact-journal") {
            mode = Mode::CompactJournal;
            compact_path = next();
        } else if (arg == "--drain") {
            mode = Mode::Drain;
        } else if (arg == "--socket") {
            serve_opts.socketPath = next();
        } else if (arg == "--journal") {
            serve_opts.journalPath = next();
        } else if (arg == "--workers") {
            serve_opts.workers = parseUnsigned(next(), "--workers");
        } else if (arg == "--queue-cap") {
            serve_opts.queueCap = parseU64(next(), "--queue-cap");
        } else if (arg == "--max-connections") {
            serve_opts.maxConnections =
                parseUnsigned(next(), "--max-connections");
        } else if (arg == "--default-deadline") {
            serve_opts.defaultDeadlineSeconds =
                parseDouble(next(), "--default-deadline");
        } else if (arg == "--default-retries") {
            serve_opts.defaultRetries =
                parseUnsigned(next(), "--default-retries");
        } else if (arg == "--backoff-ms") {
            serve_opts.backoffBaseSeconds =
                parseDouble(next(), "--backoff-ms") / 1000.0;
        } else if (arg == "--connections") {
            submit_opts.connections =
                parseUnsigned(next(), "--connections");
        } else if (arg == "--deadline") {
            submit_opts.deadlineSeconds =
                parseDouble(next(), "--deadline");
        } else if (arg == "--retries") {
            submit_opts.retries =
                static_cast<int>(parseUnsigned(next(), "--retries"));
        } else if (arg == "--recv-timeout") {
            submit_opts.recvTimeoutSeconds =
                parseDouble(next(), "--recv-timeout");
        } else if (arg == "--repeat") {
            repeat = parseUnsigned(next(), "--repeat");
        } else if (arg == "--shard") {
            cli::parseShard(next(), shard, shards);
        } else if (arg == "--out-journal") {
            out_journal = next();
        } else if (arg == "--quiet") {
            setQuiet(true);
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            fatal("unknown argument '%s' (try --help)", arg.c_str());
        }
    }

    if (mode == Mode::Daemon)
        return daemonMain(serve_opts);

    if (mode == Mode::Stats) {
        const std::optional<obs::Json> stats =
            serve::requestStats(serve_opts.socketPath);
        if (!stats)
            fatal("no daemon reachable at '%s'",
                  serve_opts.socketPath.c_str());
        std::cout << stats->dump(2) << '\n';
        return 0;
    }

    if (mode == Mode::Metrics) {
        if (prometheus) {
            const std::optional<std::string> text =
                serve::requestPrometheus(serve_opts.socketPath);
            if (!text)
                fatal("no daemon reachable at '%s'",
                      serve_opts.socketPath.c_str());
            std::cout << *text;
        } else {
            const std::optional<obs::Json> stats =
                serve::requestMetrics(serve_opts.socketPath);
            if (!stats)
                fatal("no daemon reachable at '%s'",
                      serve_opts.socketPath.c_str());
            std::cout << stats->dump(2) << '\n';
        }
        return 0;
    }

    if (mode == Mode::CompactJournal) {
        const CompactionStats cs = compactJournal(compact_path);
        if (!cs.ok)
            fatal("compacting '%s' failed: %s", compact_path.c_str(),
                  cs.error.c_str());
        inform("compacted '%s': %zu record(s) (%zu corrupt) -> %zu, "
               "%llu -> %llu bytes",
               compact_path.c_str(), cs.recordsIn, cs.corrupted,
               cs.recordsOut,
               static_cast<unsigned long long>(cs.bytesIn),
               static_cast<unsigned long long>(cs.bytesOut));
        return 0;
    }

    if (mode == Mode::Drain) {
        if (!serve::requestDrain(serve_opts.socketPath))
            fatal("no daemon reachable at '%s'",
                  serve_opts.socketPath.c_str());
        inform("drain acknowledged");
        return 0;
    }

    // --submit: expand the cross product, shard, submit.
    std::vector<ExperimentConfig> configs;
    for (unsigned r = 0; r < repeat; ++r) {
        const std::vector<ExperimentConfig> batch = spec.expand();
        configs.insert(configs.end(), batch.begin(), batch.end());
    }
    if (shards > 1) {
        const std::vector<bool> mine =
            shardSelection(configs, shard, shards);
        std::vector<ExperimentConfig> owned;
        for (std::size_t i = 0; i < configs.size(); ++i)
            if (mine[i])
                owned.push_back(configs[i]);
        configs.swap(owned);
        inform("shard %u/%u owns %zu of the batch", shard, shards,
               configs.size());
    }

    const std::vector<serve::SubmitOutcome> outcomes =
        serve::submitBatch(serve_opts.socketPath, configs,
                           submit_opts);

    std::size_t ok = 0;
    std::size_t cached = 0;
    int failures = 0;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const serve::SubmitOutcome &o = outcomes[i];
        if (o.ok) {
            ++ok;
            if (o.cached)
                ++cached;
            continue;
        }
        ++failures;
        std::fprintf(stderr, "FAILED [%s] %s: %s\n  fingerprint: %s\n",
                     o.kind.c_str(), configs[i].label().c_str(),
                     o.message.c_str(), o.fingerprint.c_str());
    }
    if (!out_journal.empty()) {
        ResultJournal journal(out_journal);
        if (!journal.writable())
            fatal("cannot write '%s'", out_journal.c_str());
        for (const serve::SubmitOutcome &o : outcomes)
            if (o.ok && !journal.record(o.fingerprint, o.result))
                fatal("journal append failed on '%s'",
                      out_journal.c_str());
    }
    inform("submitted %zu, ok %zu (%zu served from cache), failed %d",
           outcomes.size(), ok, cached, failures);
    return failures == 0 ? 0 : 1;
} catch (const FatalError &e) {
    reportFatal(e);
    return 1;
}
