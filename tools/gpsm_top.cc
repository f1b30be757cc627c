/**
 * @file
 * gpsm_top: terminal live view of a gpsm_serve daemon.
 *
 * Subscribes to the daemon's gpsm-event-v1 stream and renders what
 * the service is doing right now: per-request phase progress (init /
 * kernel, simulated-clock position, sampled epochs, fault activity),
 * batch completion with the ProgressMeter's hit-rate-weighted ETA,
 * and daemon health (queue depth, in-flight, event-stream delivery
 * and drop accounting) polled from the stats op.
 *
 * The subscription buffer is bounded daemon-side: falling behind
 * costs this viewer events (counted and displayed), never the engine
 * throughput.
 *
 * --raw turns the tool into a capture pipe: every event record is
 * echoed as one JSON line on stdout, no screen handling — that is
 * what CI uses to validate the stream against the schema. --events N
 * and --duration X bound a run for scripted use.
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>

#include <unistd.h>

#include "obs/events.hh"
#include "obs/json.hh"
#include "obs/telemetry.hh"
#include "serve/client.hh"
#include "util/logging.hh"
#include "util/parse.hh"

using namespace gpsm;

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
        "gpsm_top — live view of a gpsm_serve daemon\n"
        "\n"
        "  --socket PATH     daemon socket (/tmp/gpsm_serve.sock)\n"
        "  --capacity N      subscription buffer, events (4096)\n"
        "  --refresh X       redraw interval, seconds (0.5)\n"
        "  --raw             no screen: echo each event as one JSON\n"
        "                    line on stdout (CI capture mode)\n"
        "  --events N        exit after N events (0 = unbounded)\n"
        "  --duration X      exit after X seconds (0 = unbounded)\n"
        "  --no-clear        append frames instead of redrawing\n";
}

std::string
strField(const obs::Json &doc, const char *key)
{
    const obs::Json *v = doc.find(key);
    return v != nullptr && v->isString() ? v->asString() : "";
}

std::uint64_t
numField(const obs::Json &doc, const char *key)
{
    const obs::Json *v = doc.find(key);
    return v != nullptr && v->isNumber()
               ? static_cast<std::uint64_t>(v->asNumber())
               : 0;
}

/** What we know about one streamed run, built from its events. */
struct RunView
{
    std::string label;
    std::string phase = "begun";
    std::uint64_t clock = 0;
    std::uint64_t epochs = 0;
    std::uint64_t faults = 0;
    std::uint64_t promotions = 0;
};

struct TopState
{
    std::map<std::string, RunView> active; ///< keyed by run id
    std::uint64_t runsFinished = 0;
    std::uint64_t admitted = 0;
    std::uint64_t deduped = 0;
    std::uint64_t shed = 0;
    std::uint64_t queueDepth = 0;
    std::uint64_t inFlight = 0;
    std::uint64_t eventsSeen = 0;
};

/** Fold one gpsm-event-v1 record into the view. */
void
applyEvent(const obs::Json &ev, TopState &state,
           obs::ProgressMeter &meter)
{
    ++state.eventsSeen;
    const std::string type = strField(ev, "type");
    const std::string run = strField(ev, "run");

    if (type == "run_begin") {
        RunView view;
        view.label = strField(ev, "label");
        view.clock = numField(ev, "clock");
        state.active[run] = std::move(view);
    } else if (type == "phase_begin" || type == "phase_end") {
        RunView &view = state.active[run];
        view.clock = numField(ev, "clock");
        view.phase = type == "phase_begin"
                         ? strField(ev, "name")
                         : strField(ev, "name") + " done";
    } else if (type == "epoch") {
        RunView &view = state.active[run];
        ++view.epochs;
        view.clock = numField(ev, "clock");
    } else if (type == "fault_event" || type == "fault_veto") {
        ++state.active[run].faults;
    } else if (type == "promotion") {
        ++state.active[run].promotions;
    } else if (type == "run_end") {
        state.active.erase(run);
        ++state.runsFinished;
    } else if (type.rfind("request_", 0) == 0) {
        state.queueDepth = numField(ev, "queueDepth");
        state.inFlight = numField(ev, "inFlight");
        const bool isRun = strField(ev, "op") == "run";
        if (type == "request_admitted") {
            ++state.admitted;
            if (isRun)
                meter.grow(1);
        } else if (type == "request_deduped") {
            ++state.deduped;
        } else if (type == "request_shed") {
            ++state.shed;
        } else if (type == "request_done" && isRun) {
            if (strField(ev, "status") == "ok") {
                const obs::Json *wall = ev.find("wallSeconds");
                const obs::Json *cached = ev.find("cached");
                meter.onResult(
                    wall != nullptr && wall->isNumber()
                        ? wall->asNumber()
                        : 0.0,
                    cached != nullptr && cached->asBool());
            } else {
                meter.onError();
            }
        }
    }
}

std::string
renderFrame(const std::string &socket_path, const TopState &state,
            const obs::ProgressMeter &meter,
            const std::optional<obs::Json> &stats, double uptime)
{
    std::ostringstream os;
    char buf[256];

    std::snprintf(buf, sizeof(buf),
                  "gpsm_top — %s  up %.0fs  queue=%llu inflight=%llu\n",
                  socket_path.c_str(), uptime,
                  static_cast<unsigned long long>(state.queueDepth),
                  static_cast<unsigned long long>(state.inFlight));
    os << buf;

    const double eta = meter.etaSeconds();
    std::snprintf(buf, sizeof(buf),
                  "batch: %zu done (%zu failed) admitted=%llu "
                  "deduped=%llu shed=%llu eta=",
                  meter.done(), meter.failed(),
                  static_cast<unsigned long long>(state.admitted),
                  static_cast<unsigned long long>(state.deduped),
                  static_cast<unsigned long long>(state.shed));
    os << buf;
    if (eta >= 0.0) {
        std::snprintf(buf, sizeof(buf), "%.1fs\n", eta);
        os << buf;
    } else {
        os << "?\n";
    }

    if (stats) {
        const obs::Json *events = stats->find("events");
        if (events != nullptr && events->isObject()) {
            std::snprintf(
                buf, sizeof(buf),
                "daemon: completed=%llu failed=%llu cacheHits=%llu | "
                "stream: subs=%llu published=%llu dropped=%llu\n",
                static_cast<unsigned long long>(
                    numField(*stats, "completed")),
                static_cast<unsigned long long>(
                    numField(*stats, "failed")),
                static_cast<unsigned long long>(
                    numField(*stats, "cacheHits")),
                static_cast<unsigned long long>(
                    numField(*events, "subscribers")),
                static_cast<unsigned long long>(
                    numField(*events, "published")),
                static_cast<unsigned long long>(
                    numField(*events, "dropped")));
            os << buf;
        }
    } else {
        os << "daemon: stats unavailable\n";
    }

    os << "active runs (" << state.active.size() << "):\n";
    std::size_t shown = 0;
    for (const auto &[run, view] : state.active) {
        if (++shown > 10) {
            os << "  ... " << (state.active.size() - 10) << " more\n";
            break;
        }
        std::snprintf(
            buf, sizeof(buf),
            "  %s  %-28s %-12s clock=%-12llu epochs=%-6llu "
            "faults=%llu promos=%llu\n",
            run.c_str(), view.label.c_str(), view.phase.c_str(),
            static_cast<unsigned long long>(view.clock),
            static_cast<unsigned long long>(view.epochs),
            static_cast<unsigned long long>(view.faults),
            static_cast<unsigned long long>(view.promotions));
        os << buf;
    }
    std::snprintf(buf, sizeof(buf),
                  "%llu event(s) seen, %llu run(s) finished\n",
                  static_cast<unsigned long long>(state.eventsSeen),
                  static_cast<unsigned long long>(state.runsFinished));
    os << buf;
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
try {
    std::string socket_path = "/tmp/gpsm_serve.sock";
    std::size_t capacity = 4096;
    double refresh = 0.5;
    bool raw = false;
    bool clear_screen = true;
    std::uint64_t max_events = 0;
    double duration = 0.0;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("missing value after %s", arg.c_str());
            return argv[++i];
        };
        if (arg == "--socket") {
            socket_path = next();
        } else if (arg == "--capacity") {
            capacity = parseU64(next(), "--capacity");
        } else if (arg == "--refresh") {
            refresh = parseDouble(next(), "--refresh");
        } else if (arg == "--raw") {
            raw = true;
        } else if (arg == "--events") {
            max_events = parseU64(next(), "--events");
        } else if (arg == "--duration") {
            duration = parseDouble(next(), "--duration");
        } else if (arg == "--no-clear") {
            clear_screen = false;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            fatal("unknown argument '%s' (try --help)", arg.c_str());
        }
    }
    if (refresh <= 0.0)
        fatal("--refresh must be positive");

    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = onSignal;
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
    std::signal(SIGPIPE, SIG_IGN);

    serve::EventStream stream;
    if (!stream.open(socket_path, capacity))
        fatal("no daemon reachable at '%s'", socket_path.c_str());

    obs::ProgressMeter meter(0, "");
    meter.setSilent(true);
    TopState state;

    using Clock = std::chrono::steady_clock;
    const Clock::time_point t0 = Clock::now();
    Clock::time_point last_frame = t0 - std::chrono::hours(1);
    Clock::time_point last_poll = t0 - std::chrono::hours(1);
    std::optional<obs::Json> daemon_stats;
    const bool tty = ::isatty(STDOUT_FILENO) != 0;

    while (!g_stop.load()) {
        const double elapsed =
            std::chrono::duration<double>(Clock::now() - t0).count();
        if (duration > 0.0 && elapsed >= duration)
            break;
        if (max_events > 0 && state.eventsSeen >= max_events)
            break;

        const std::optional<obs::Json> ev = stream.next(0.2);
        if (ev) {
            if (raw) {
                std::cout << ev->dump() << '\n';
                std::cout.flush();
            }
            applyEvent(*ev, state, meter);
        } else if (!stream.connected()) {
            break;
        }

        if (raw)
            continue;

        const Clock::time_point now = Clock::now();
        // Poll daemon health at most every 2s: each poll is a fresh
        // connection and should stay invisible in the stats.
        if (std::chrono::duration<double>(now - last_poll).count() >=
            2.0) {
            daemon_stats = serve::requestStats(socket_path, 2.0);
            last_poll = now;
        }
        if (std::chrono::duration<double>(now - last_frame).count() >=
            refresh) {
            if (tty && clear_screen)
                std::cout << "\x1b[H\x1b[2J";
            std::cout << renderFrame(socket_path, state, meter,
                                     daemon_stats, elapsed);
            std::cout.flush();
            last_frame = now;
        }
    }

    stream.close();
    std::fprintf(stderr,
                 "gpsm_top: %llu event(s) seen; subscription "
                 "delivered=%llu dropped=%llu\n",
                 static_cast<unsigned long long>(state.eventsSeen),
                 static_cast<unsigned long long>(stream.delivered()),
                 static_cast<unsigned long long>(stream.dropped()));
    return 0;
} catch (const FatalError &e) {
    reportFatal(e);
    return 1;
}
