/**
 * @file
 * Load generator for the gpsm_serve daemon: drives thousands of
 * concurrent run requests through the service and reports throughput
 * (requests/sec) and client-observed latency percentiles
 * (p50/p99/p999), then verifies the service invariant — every result
 * that came back over the socket is byte-identical (fingerprint +
 * serialized RunResult) to the same config executed offline through
 * runExperiment().
 *
 * Three modes:
 * - default: an in-process serve::Server on a private socket. Measures
 *   the service stack itself (admission, dedupe, memoization, wire
 *   codec) without process-management noise.
 * - --events: event-stream overhead report. One warmup pass memoizes
 *   the pool, then the same batch is measured with 0, 1 and 8 live
 *   event-stream subscribers so the rps/p50/p99/p999 deltas isolate
 *   what streaming costs the service. --slow-subscriber adds a pass
 *   with one tiny-buffer subscriber that never reads: the run must
 *   stay fast (bounded p99) while the daemon reports nonzero drops —
 *   backpressure lands on the viewer, never the engine.
 * - --chaos: fork+exec the real gpsm_serve binary on a shared journal,
 *   SIGKILL it mid-batch every --kill-interval-ms (up to --kills
 *   times) and restart it, while the clients also force-close their
 *   own connections every few responses (dropEvery). The batch must
 *   still finish with zero lost requests and byte-identical results:
 *   completed work is replayed from the journal, interrupted work is
 *   re-executed deterministically.
 *
 * Part of the config pool carries a correlated-burst fault plan
 * (FaultPlan::correlatedBursts), so recovery is exercised on runs
 * whose allocation path is itself failure-injected.
 *
 * Output goes through the standard TableWriter; --emit-bench writes
 * the measurements as JSON for the perf-trajectory artifacts. Common
 * bench-harness flags (--jobs, --journal, ...) are accepted and
 * ignored so scripts/run_benches.sh can pass one flag set to every
 * binary.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "common.hh"
#include "core/journal.hh"
#include "core/runner.hh"
#include "fault/fault_plan.hh"
#include "obs/json.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "util/parse.hh"
#include "util/table.hh"

using namespace gpsm;

namespace
{

/** The distinct experiments cycled through the request batch: small
 *  enough to execute in seconds, diverse enough to cover the codec
 *  (madvise selection, reorder, sys override, fault plan). */
std::vector<core::ExperimentConfig>
configPool()
{
    std::vector<core::ExperimentConfig> pool;

    core::ExperimentConfig base;
    base.scaleDivisor = 4096;

    core::ExperimentConfig c = base;
    pool.push_back(c); // bfs/kron, THP never

    c = base;
    c.app = core::App::Pr;
    c.thpMode = vm::ThpMode::Always;
    pool.push_back(c);

    c = base;
    c.app = core::App::Cc;
    c.dataset = "wiki";
    pool.push_back(c);

    c = base;
    c.app = core::App::Sssp;
    c.thpMode = vm::ThpMode::Always;
    c.reorder = graph::ReorderMethod::Dbg;
    pool.push_back(c);

    c = base;
    c.dataset = "wiki";
    c.thpMode = vm::ThpMode::Madvise;
    c.madvise = core::MadviseSelection::propertyOnly(0.5);
    c.sys.node.bytes = 96_MiB;
    c.sys.node.hugeWatermarkBytes = c.sys.node.bytes / 40;
    pool.push_back(c);

    // Failure-injected run: the first two huge allocations of each of
    // two kernel-anchored windows are vetoed back-to-back.
    c = base;
    c.app = core::App::Pr;
    c.thpMode = vm::ThpMode::Always;
    c.faultPlan = fault::FaultPlan::correlatedBursts(
        /*windows=*/2, /*burst_len=*/2, /*spacing=*/1u << 20);
    pool.push_back(c);

    return pool;
}

double
percentileUs(const std::vector<double> &sorted_seconds, double q)
{
    if (sorted_seconds.empty())
        return 0.0;
    const auto n = sorted_seconds.size();
    std::size_t idx = static_cast<std::size_t>(
        q * static_cast<double>(n));
    if (idx >= n)
        idx = n - 1;
    return sorted_seconds[idx] * 1e6;
}

/** The gpsm_serve daemon as a child process (chaos mode). */
struct Daemon
{
    std::string bin;
    std::vector<std::string> args;
    pid_t pid = -1;

    void
    spawn()
    {
        std::vector<char *> argv;
        argv.push_back(const_cast<char *>(bin.c_str()));
        for (const std::string &a : args)
            argv.push_back(const_cast<char *>(a.c_str()));
        argv.push_back(nullptr);
        const pid_t child = fork();
        if (child == 0) {
            execv(bin.c_str(), argv.data());
            std::perror("execv gpsm_serve");
            _exit(127);
        }
        if (child < 0) {
            std::perror("fork");
            std::exit(1);
        }
        pid = child;
    }

    void
    kill9()
    {
        if (pid <= 0)
            return;
        ::kill(pid, SIGKILL);
        int status = 0;
        waitpid(pid, &status, 0);
        pid = -1;
    }

    void
    reap()
    {
        if (pid <= 0)
            return;
        int status = 0;
        waitpid(pid, &status, 0);
        pid = -1;
    }
};

/** One measured batch under a fixed subscriber load (--events). */
struct PassResult
{
    std::string name;
    unsigned subscribers = 0;
    std::uint64_t ok = 0;
    std::uint64_t lost = 0;
    double wall = 0.0;
    double rps = 0.0;
    double p50Us = 0.0;
    double p99Us = 0.0;
    double p999Us = 0.0;
    std::uint64_t eventsReceived = 0; ///< read by drain threads
    std::uint64_t delivered = 0;      ///< daemon-side, per close()
    std::uint64_t dropped = 0;        ///< daemon-side, per close()
};

/**
 * Submit @p batch once with @p subscribers live event streams
 * attached (each drained by its own thread), or — when @p slow — one
 * 4-event-buffer subscriber that never reads until the batch is done.
 */
PassResult
measuredPass(const std::string &socket_path,
             const std::vector<core::ExperimentConfig> &batch,
             const serve::SubmitOptions &sub, unsigned subscribers,
             bool slow)
{
    PassResult pr;
    pr.subscribers = slow ? 1 : subscribers;
    pr.name = slow ? "slow-sub" : std::to_string(subscribers) + " sub";

    std::vector<std::unique_ptr<serve::EventStream>> streams;
    std::vector<std::thread> drains;
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> received{0};

    for (unsigned s = 0; s < pr.subscribers; ++s) {
        auto es = std::make_unique<serve::EventStream>();
        if (!es->open(socket_path, slow ? 4 : (1u << 16))) {
            std::fprintf(stderr, "event subscribe failed\n");
            std::exit(1);
        }
        streams.push_back(std::move(es));
    }
    if (!slow) {
        for (auto &es : streams) {
            drains.emplace_back([&stop, &received,
                                 stream = es.get()]() {
                while (!stop.load()) {
                    if (stream->next(0.05))
                        received.fetch_add(1,
                                           std::memory_order_relaxed);
                }
            });
        }
    }

    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<serve::SubmitOutcome> outcomes =
        serve::submitBatch(socket_path, batch, sub);
    const auto t1 = std::chrono::steady_clock::now();
    pr.wall = std::chrono::duration<double>(t1 - t0).count();

    stop.store(true);
    for (std::thread &t : drains)
        t.join();
    for (auto &es : streams) {
        es->close();
        pr.delivered += es->delivered();
        pr.dropped += es->dropped();
    }
    pr.eventsReceived = received.load();

    std::vector<double> latencies;
    latencies.reserve(outcomes.size());
    for (const serve::SubmitOutcome &o : outcomes) {
        if (o.ok) {
            ++pr.ok;
            latencies.push_back(o.latencySeconds);
        }
    }
    pr.lost = outcomes.size() - pr.ok;
    std::sort(latencies.begin(), latencies.end());
    pr.rps = pr.wall > 0.0
                 ? static_cast<double>(pr.ok) / pr.wall
                 : 0.0;
    pr.p50Us = percentileUs(latencies, 0.50);
    pr.p99Us = percentileUs(latencies, 0.99);
    pr.p999Us = percentileUs(latencies, 0.999);
    return pr;
}

/** --events mode: the event-stream overhead report. */
int
eventsBenchMain(const std::string &socket_path,
                const std::vector<core::ExperimentConfig> &batch,
                const std::vector<core::ExperimentConfig> &pool,
                const serve::SubmitOptions &sub, unsigned workers,
                bool slow_subscriber, const std::string &emit_bench)
{
    serve::ServeOptions sopts;
    sopts.socketPath = socket_path;
    sopts.workers = workers;
    serve::Server server(sopts);
    std::string err;
    if (!server.start(&err)) {
        std::fprintf(stderr, "server start failed: %s\n", err.c_str());
        return 1;
    }

    // Warmup: memoize the pool so every measured pass serves from the
    // memo and the subscriber-count deltas isolate streaming cost.
    std::uint64_t warm_lost = 0;
    for (const serve::SubmitOutcome &o :
         serve::submitBatch(socket_path, batch, sub))
        warm_lost += o.ok ? 0 : 1;
    if (warm_lost != 0) {
        std::fprintf(stderr, "FAILED: warmup lost %llu request(s)\n",
                     static_cast<unsigned long long>(warm_lost));
        return 1;
    }

    std::vector<PassResult> passes;
    for (unsigned subs : {0u, 1u, 8u})
        passes.push_back(
            measuredPass(socket_path, batch, sub, subs, false));
    if (slow_subscriber)
        passes.push_back(
            measuredPass(socket_path, batch, sub, 1, true));

    // The service invariant, checked dormant: every subscriber is
    // closed by now, so these offline reference runs — and the memo
    // hits answering the probe — must be byte-identical to streamed
    // serving.
    std::uint64_t mismatched = 0;
    const std::vector<serve::SubmitOutcome> probe =
        serve::submitBatch(socket_path, pool, sub);
    for (std::size_t i = 0; i < pool.size(); ++i) {
        if (!probe[i].ok ||
            core::serializeRunResult(probe[i].result) !=
                core::serializeRunResult(core::runExperiment(pool[i])))
            ++mismatched;
    }

    server.drain();
    const serve::ServeStats stats = server.stats();

    TableWriter table("bench_serve (event-stream overhead)");
    table.setHeader({"pass", "ok", "rps", "p50_us", "p99_us",
                     "p999_us", "events_rx", "delivered", "dropped"});
    for (const PassResult &pr : passes) {
        table.addRow({pr.name, std::to_string(pr.ok),
                      TableWriter::num(pr.rps, 1),
                      TableWriter::num(pr.p50Us, 0),
                      TableWriter::num(pr.p99Us, 0),
                      TableWriter::num(pr.p999Us, 0),
                      std::to_string(pr.eventsReceived),
                      std::to_string(pr.delivered),
                      std::to_string(pr.dropped)});
    }
    table.print(std::cout);
    std::printf("byte mismatches vs offline: %llu\n",
                static_cast<unsigned long long>(mismatched));

    if (!emit_bench.empty()) {
        obs::Json doc = obs::Json::object();
        doc.set("schema", "gpsm-serve-bench-v1");
        doc.set("bench", "bench_serve_events");
        doc.set("requests",
                static_cast<std::uint64_t>(batch.size()));
        doc.set("mismatched", mismatched);
        obs::Json arr = obs::Json::array();
        for (const PassResult &pr : passes) {
            obs::Json p = obs::Json::object();
            p.set("pass", pr.name);
            p.set("subscribers",
                  static_cast<std::uint64_t>(pr.subscribers));
            p.set("ok", pr.ok);
            p.set("lost", pr.lost);
            p.set("wall_seconds", pr.wall);
            p.set("requests_per_sec", pr.rps);
            p.set("p50_us", pr.p50Us);
            p.set("p99_us", pr.p99Us);
            p.set("p999_us", pr.p999Us);
            p.set("events_received", pr.eventsReceived);
            p.set("delivered", pr.delivered);
            p.set("dropped", pr.dropped);
            arr.push(std::move(p));
        }
        doc.set("passes", std::move(arr));
        std::ofstream out(emit_bench);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n",
                         emit_bench.c_str());
            return 1;
        }
        out << doc.dump(2) << "\n";
    }

    bool failed = mismatched != 0;
    for (const PassResult &pr : passes) {
        if (pr.lost != 0) {
            std::fprintf(stderr, "FAILED: pass '%s' lost %llu\n",
                         pr.name.c_str(),
                         static_cast<unsigned long long>(pr.lost));
            failed = true;
        }
    }
    if (slow_subscriber) {
        const PassResult &slow = passes.back();
        if (slow.dropped == 0) {
            std::fprintf(stderr,
                         "FAILED: slow subscriber saw 0 drops — the "
                         "bounded buffer never engaged\n");
            failed = true;
        }
    }
    (void)stats;
    return failed ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    bool chaos = false;
    bool events_mode = false;
    bool slow_subscriber = false;
    std::string emit_bench;
    std::string serve_bin;
    std::uint64_t requests = 0; // 0 = mode default
    unsigned connections = 16;
    unsigned workers = 4;
    unsigned kills = 3;
    unsigned kill_interval_ms = 1500;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value after %s\n",
                             arg.c_str());
                std::exit(1);
            }
            return argv[++i];
        };
        if (arg == "--quick") {
            quick = true;
        } else if (arg == "--chaos") {
            chaos = true;
        } else if (arg == "--events") {
            events_mode = true;
        } else if (arg == "--slow-subscriber") {
            events_mode = true;
            slow_subscriber = true;
        } else if (arg == "--emit-bench") {
            emit_bench = next();
        } else if (arg == "--serve-bin") {
            serve_bin = next();
        } else if (arg == "--requests") {
            requests = parseU64(next(), "--requests");
        } else if (arg == "--connections") {
            connections = parseUnsigned(next(), "--connections");
        } else if (arg == "--workers") {
            workers = parseUnsigned(next(), "--workers");
        } else if (arg == "--kills") {
            kills = parseUnsigned(next(), "--kills");
        } else if (arg == "--kill-interval-ms") {
            kill_interval_ms = parseUnsigned(next(), "--kill-interval-ms");
        } else if (arg == "--help" || arg == "-h") {
            std::fprintf(
                stderr,
                "usage: %s [--quick] [--chaos] [--requests N]\n"
                "          [--events] [--slow-subscriber]\n"
                "          [--connections N] [--workers N]\n"
                "          [--kills N] [--kill-interval-ms N]\n"
                "          [--serve-bin PATH] [--emit-bench PATH]\n"
                "(common bench-harness flags are accepted and "
                "ignored)\n",
                argv[0]);
            return 0;
        } else if (!bench::skipHarnessFlag(argc, argv, i)) {
            std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
            return 1;
        }
    }
    std::signal(SIGPIPE, SIG_IGN);

    if (requests == 0)
        requests = quick ? 300 : 2000;
    if (quick) {
        connections = std::min(connections, 8u);
        kills = std::min(kills, 2u);
    }

    const std::string tag = std::to_string(getpid());
    const std::string socket_path = "/tmp/bench_serve." + tag + ".sock";
    const std::string journal_path = "/tmp/bench_serve." + tag + ".gpsmj";
    std::remove(journal_path.c_str());

    // The request batch: the pool cycled to length, so the daemon sees
    // heavy duplication (its dedupe/memo path IS the serving hot path,
    // exactly like a sweep resubmitted shard by shard).
    const std::vector<core::ExperimentConfig> pool = configPool();
    std::vector<core::ExperimentConfig> batch;
    batch.reserve(requests);
    for (std::uint64_t i = 0; i < requests; ++i)
        batch.push_back(pool[i % pool.size()]);

    serve::SubmitOptions sub;
    sub.connections = connections;
    sub.window = 32;
    sub.recvTimeoutSeconds = 300.0;

    if (events_mode) {
        const int rc = eventsBenchMain(socket_path, batch, pool, sub,
                                       workers, slow_subscriber,
                                       emit_bench);
        std::remove(journal_path.c_str());
        return rc;
    }

    std::unique_ptr<serve::Server> inproc;
    Daemon daemon;
    std::thread killer;
    std::atomic<bool> stop_killer{false};
    std::uint64_t kills_done = 0;

    if (!chaos) {
        serve::ServeOptions sopts;
        sopts.socketPath = socket_path;
        sopts.journalPath = journal_path;
        sopts.workers = workers;
        inproc = std::make_unique<serve::Server>(sopts);
        std::string err;
        if (!inproc->start(&err)) {
            std::fprintf(stderr, "server start failed: %s\n",
                         err.c_str());
            return 1;
        }
    } else {
        if (serve_bin.empty()) {
            // Default: the gpsm_serve binary next to this bench in the
            // build tree (build/bench/bench_serve -> build/tools/).
            namespace fs = std::filesystem;
            serve_bin = (fs::path(argv[0]).parent_path().parent_path() /
                         "tools" / "gpsm_serve")
                            .string();
        }
        daemon.bin = serve_bin;
        daemon.args = {"--socket",  socket_path, "--journal",
                       journal_path, "--workers",
                       std::to_string(workers)};
        daemon.spawn();
        // Chaos clients: survive daemon restarts, and rip their own
        // connections down every 7 responses.
        sub.reconnect = true;
        sub.reconnectLimit = 1000;
        sub.connectTimeoutSeconds = 30.0;
        sub.dropEvery = 7;
        killer = std::thread([&]() {
            for (unsigned k = 0; k < kills; ++k) {
                for (unsigned waited = 0;
                     waited < kill_interval_ms && !stop_killer.load();
                     waited += 50)
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(50));
                if (stop_killer.load())
                    return;
                daemon.kill9();
                ++kills_done;
                daemon.spawn();
            }
        });
    }

    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<serve::SubmitOutcome> outcomes =
        serve::submitBatch(socket_path, batch, sub);
    const auto t1 = std::chrono::steady_clock::now();
    const double wall =
        std::chrono::duration<double>(t1 - t0).count();

    if (chaos) {
        stop_killer.store(true);
        killer.join();
    }

    // --- throughput + latency ---
    std::uint64_t ok_count = 0;
    std::uint64_t cached_count = 0;
    std::vector<double> latencies;
    latencies.reserve(outcomes.size());
    std::vector<std::string> failures;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const serve::SubmitOutcome &o = outcomes[i];
        if (o.ok) {
            ++ok_count;
            cached_count += o.cached ? 1 : 0;
            latencies.push_back(o.latencySeconds);
        } else if (failures.size() < 5) {
            failures.push_back("request " + std::to_string(i) + ": " +
                               o.kind + " (" + o.message + ")");
        }
    }
    std::sort(latencies.begin(), latencies.end());
    const double rps =
        wall > 0.0 ? static_cast<double>(ok_count) / wall : 0.0;

    // --- the invariant: byte-identical to offline execution ---
    // runExperiment() directly (not runMemoized) so the reference does
    // not share the memo/journal the service used.
    std::unordered_map<std::string, std::string> offline;
    for (const core::ExperimentConfig &cfg : pool)
        offline[cfg.fingerprint()] =
            core::serializeRunResult(core::runExperiment(cfg));
    std::uint64_t mismatched = 0;
    for (const serve::SubmitOutcome &o : outcomes) {
        if (!o.ok)
            continue;
        const auto it = offline.find(o.fingerprint);
        if (it == offline.end() ||
            core::serializeRunResult(o.result) != it->second)
            ++mismatched;
    }
    const std::uint64_t lost = outcomes.size() - ok_count;

    serve::ServeStats stats;
    if (!chaos) {
        inproc->drain();
        stats = inproc->stats();
    } else {
        // Final daemon generation: drain it cleanly and reap.
        serve::requestDrain(socket_path);
        daemon.reap();
    }
    std::remove(journal_path.c_str());

    TableWriter table(chaos ? "bench_serve (chaos mode)"
                            : "bench_serve");
    table.setHeader({"metric", "value"});
    table.addRow({"requests", std::to_string(outcomes.size())});
    table.addRow({"connections", std::to_string(connections)});
    table.addRow({"distinct configs", std::to_string(pool.size())});
    table.addRow({"ok", std::to_string(ok_count)});
    table.addRow({"lost", std::to_string(lost)});
    table.addRow({"served from cache", std::to_string(cached_count)});
    table.addRow({"byte mismatches", std::to_string(mismatched)});
    table.addRow({"wall seconds", TableWriter::num(wall, 2)});
    table.addRow({"requests/sec", TableWriter::num(rps, 1)});
    table.addRow(
        {"p50 (us)", TableWriter::num(percentileUs(latencies, 0.50), 0)});
    table.addRow(
        {"p99 (us)", TableWriter::num(percentileUs(latencies, 0.99), 0)});
    table.addRow({"p999 (us)",
                  TableWriter::num(percentileUs(latencies, 0.999), 0)});
    if (chaos) {
        table.addRow({"daemon kills", std::to_string(kills_done)});
    } else {
        table.addRow({"dedupe hits", std::to_string(stats.dedupeHits)});
        table.addRow({"cache hits", std::to_string(stats.cacheHits)});
        table.addRow({"shed", std::to_string(stats.shed)});
    }
    table.print(std::cout);

    for (const std::string &f : failures)
        std::fprintf(stderr, "FAILED %s\n", f.c_str());

    if (!emit_bench.empty()) {
        obs::Json doc = obs::Json::object();
        doc.set("schema", "gpsm-serve-bench-v1");
        doc.set("bench", chaos ? "bench_serve_chaos" : "bench_serve");
        doc.set("requests", static_cast<std::uint64_t>(outcomes.size()));
        doc.set("connections", static_cast<std::uint64_t>(connections));
        doc.set("ok", ok_count);
        doc.set("lost", lost);
        doc.set("mismatched", mismatched);
        doc.set("wall_seconds", wall);
        doc.set("requests_per_sec", rps);
        doc.set("p50_us", percentileUs(latencies, 0.50));
        doc.set("p99_us", percentileUs(latencies, 0.99));
        doc.set("p999_us", percentileUs(latencies, 0.999));
        if (chaos)
            doc.set("kills", kills_done);
        std::ofstream out(emit_bench);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n",
                         emit_bench.c_str());
            return 1;
        }
        out << doc.dump(2) << "\n";
    }

    if (lost != 0 || mismatched != 0) {
        std::fprintf(stderr,
                     "FAILED: %llu lost, %llu mismatched vs offline\n",
                     static_cast<unsigned long long>(lost),
                     static_cast<unsigned long long>(mismatched));
        return 1;
    }
    return 0;
}
