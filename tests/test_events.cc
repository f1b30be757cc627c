/**
 * @file
 * Live-event-stream tests: the EventBus must bound every subscriber
 * buffer (dropping the incoming record, counted, instead of blocking
 * the publisher); a streamed run must emit well-ordered, properly
 * nested gpsm-event-v1 records whose final counters exactly match the
 * run's RunResult; one 16-hex trace id must join the wire response,
 * the metrics document, the journal record and the Chrome trace; and
 * a run with no subscriber must stay byte-identical to a build that
 * never streams (dormancy discipline).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/journal.hh"
#include "core/metrics.hh"
#include "core/report.hh"
#include "core/runner.hh"
#include "obs/events.hh"
#include "obs/telemetry.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "util/units.hh"

using namespace gpsm;
using namespace gpsm::core;

namespace
{

namespace fs = std::filesystem;

/** Small machine + dataset so each run takes ~100ms. */
ExperimentConfig
smallConfig(App app = App::Bfs, const std::string &dataset = "kron")
{
    ExperimentConfig cfg;
    cfg.app = app;
    cfg.dataset = dataset;
    cfg.scaleDivisor = 512;
    cfg.sys = SystemConfig::scaled();
    cfg.sys.node.bytes = 96_MiB;
    cfg.sys.node.hugeWatermarkBytes = 96_MiB / 26;
    return cfg;
}

/** Unique socket/journal/dir path per test. */
std::string
eventsPath(const std::string &name, const std::string &suffix)
{
    const std::string path = testing::TempDir() + "gpsm_events_" +
                             name + "." + std::to_string(getpid()) +
                             suffix;
    std::error_code ec;
    fs::remove_all(path, ec);
    return path;
}

serve::ServeOptions
serveOptions(const std::string &name)
{
    serve::ServeOptions opts;
    opts.socketPath = eventsPath(name, ".sock");
    opts.workers = 2;
    return opts;
}

/** A started server, torn down on scope exit. */
struct TestServer
{
    explicit TestServer(const serve::ServeOptions &opts) : server(opts)
    {
        std::string err;
        started = server.start(&err);
        EXPECT_TRUE(started) << err;
    }

    serve::Server server;
    bool started = false;
};

std::optional<obs::Json>
readJsonFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream ss;
    ss << in.rdbuf();
    return obs::parseJson(ss.str());
}

std::string
strField(const obs::Json &doc, const char *key)
{
    const obs::Json *v = doc.find(key);
    return v != nullptr && v->isString() ? v->asString() : "";
}

std::uint64_t
seqOf(const obs::Json &ev)
{
    const obs::Json *v = ev.find("seq");
    EXPECT_NE(v, nullptr);
    return v != nullptr
               ? static_cast<std::uint64_t>(v->asNumber())
               : 0;
}

/** Drain everything currently queued on @p sub, parsed. */
std::vector<obs::Json>
drainSubscription(const obs::EventBus::SubPtr &sub)
{
    std::vector<obs::Json> events;
    while (true) {
        const std::optional<std::string> line = sub->pop(0.0);
        if (!line)
            break;
        const std::optional<obs::Json> doc = obs::parseJson(*line);
        EXPECT_TRUE(doc.has_value()) << *line;
        if (doc)
            events.push_back(*doc);
    }
    return events;
}

/** Index of the first event matching type (and run, if non-empty). */
std::size_t
indexOf(const std::vector<obs::Json> &events, const std::string &type,
        const std::string &run = "",
        const std::string &name = "")
{
    for (std::size_t i = 0; i < events.size(); ++i) {
        if (strField(events[i], "type") != type)
            continue;
        if (!run.empty() && strField(events[i], "run") != run)
            continue;
        if (!name.empty() && strField(events[i], "name") != name)
            continue;
        return i;
    }
    return events.size();
}

} // namespace

TEST(EventBus, BoundedBufferDropsIncomingAndCounts)
{
    obs::EventBus &bus = obs::EventBus::instance();
    ASSERT_FALSE(bus.active()) << "stale subscription from a prior test";

    const obs::EventBus::SubPtr sub = bus.subscribe(2);
    EXPECT_TRUE(bus.active());
    EXPECT_TRUE(obs::eventStreamActive());
    EXPECT_EQ(sub->capacity(), 2u);

    std::uint64_t drops = 0;
    for (int i = 0; i < 5; ++i)
        drops += bus.publish(obs::makeEvent("test_event", ""));
    EXPECT_EQ(drops, 3u);
    EXPECT_EQ(sub->dropped(), 3u);

    // The two delivered records are the FIRST two published (drop-
    // incoming, never displace history), in order.
    const std::optional<std::string> a = sub->pop(1.0);
    const std::optional<std::string> b = sub->pop(1.0);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    const std::optional<obs::Json> da = obs::parseJson(*a);
    const std::optional<obs::Json> db = obs::parseJson(*b);
    ASSERT_TRUE(da && db);
    EXPECT_EQ(strField(*da, "schema"), obs::eventSchema);
    EXPECT_EQ(strField(*da, "type"), "test_event");
    EXPECT_LT(seqOf(*da), seqOf(*db));
    EXPECT_FALSE(sub->pop(0.01).has_value());
    EXPECT_EQ(sub->delivered(), 2u);

    bus.unsubscribe(sub);
    EXPECT_FALSE(bus.active());
    EXPECT_TRUE(sub->isClosed());
    EXPECT_FALSE(sub->pop(0.01).has_value());
}

TEST(EventBus, PublishWithoutSubscribersIsInert)
{
    obs::EventBus &bus = obs::EventBus::instance();
    ASSERT_FALSE(bus.active());
    const std::uint64_t before = bus.published();
    EXPECT_EQ(bus.publish(obs::makeEvent("test_event", "")), 0u);
    EXPECT_EQ(bus.published(), before);
}

TEST(Events, RunEmitsOrderedProperlyNestedPhases)
{
    const ExperimentConfig cfg = smallConfig();
    const std::string id = obs::runId(cfg.fingerprint());

    obs::EventBus &bus = obs::EventBus::instance();
    const obs::EventBus::SubPtr sub = bus.subscribe(1u << 16);
    const RunResult res = runExperiment(cfg);
    bus.unsubscribe(sub);

    const std::vector<obs::Json> events = drainSubscription(sub);
    ASSERT_FALSE(events.empty());

    // Every record carries the schema tag, this run's id, and a
    // strictly increasing bus sequence number.
    std::uint64_t prev_seq = 0;
    bool first = true;
    for (const obs::Json &ev : events) {
        EXPECT_EQ(strField(ev, "schema"), obs::eventSchema);
        EXPECT_EQ(strField(ev, "run"), id);
        const std::uint64_t seq = seqOf(ev);
        if (!first) {
            EXPECT_GT(seq, prev_seq);
        }
        prev_seq = seq;
        first = false;
    }

    // run_begin first, run_end last, phases properly nested between.
    EXPECT_EQ(strField(events.front(), "type"), "run_begin");
    EXPECT_EQ(strField(events.back(), "type"), "run_end");
    EXPECT_EQ(strField(events.front(), "fingerprint"),
              cfg.fingerprint());
    const std::size_t init_begin =
        indexOf(events, "phase_begin", id, "init");
    const std::size_t init_end =
        indexOf(events, "phase_end", id, "init");
    const std::size_t kernel_begin =
        indexOf(events, "phase_begin", id, "kernel");
    const std::size_t kernel_end =
        indexOf(events, "phase_end", id, "kernel");
    ASSERT_LT(kernel_end, events.size());
    EXPECT_LT(0u, init_begin);
    EXPECT_LT(init_begin, init_end);
    EXPECT_LT(init_end, kernel_begin);
    EXPECT_LT(kernel_begin, kernel_end);
    EXPECT_LT(kernel_end, events.size() - 1);

    // The streamed final counters are exactly the run's RunResult.
    const obs::Json *result = events.back().find("result");
    ASSERT_NE(result, nullptr);
    EXPECT_EQ(metricMapFromJson(*result), resultMetricMap(res));
}

TEST(Events, StreamingDoesNotPerturbTheSimulation)
{
    const ExperimentConfig cfg = smallConfig(App::Sssp);

    const RunResult dormant = runExperiment(cfg);

    obs::EventBus &bus = obs::EventBus::instance();
    const obs::EventBus::SubPtr sub = bus.subscribe(1u << 16);
    const RunResult streamed = runExperiment(cfg);
    bus.unsubscribe(sub);

    EXPECT_EQ(serializeRunResult(dormant),
              serializeRunResult(streamed));
    // The streamed run really did publish.
    EXPECT_FALSE(drainSubscription(sub).empty());
}

TEST(Events, MetricsDocGainsEventsSectionOnlyWhenStreamed)
{
    const ExperimentConfig cfg = smallConfig(App::Pr);
    const std::string id = obs::runId(cfg.fingerprint());

    const std::string dirA = eventsPath("doc_dormant", ".d");
    obs::TelemetryOptions topts;
    topts.metricsDir = dirA;
    obs::setTelemetry(topts);
    runExperiment(cfg);
    obs::setTelemetry(obs::TelemetryOptions{});

    const std::string dirB = eventsPath("doc_streamed", ".d");
    topts.metricsDir = dirB;
    obs::setTelemetry(topts);
    obs::EventBus &bus = obs::EventBus::instance();
    const obs::EventBus::SubPtr sub = bus.subscribe(1u << 16);
    runExperiment(cfg);
    bus.unsubscribe(sub);
    obs::setTelemetry(obs::TelemetryOptions{});

    const std::optional<obs::Json> dormant =
        readJsonFile(dirA + "/run_" + id + ".json");
    const std::optional<obs::Json> streamed =
        readJsonFile(dirB + "/run_" + id + ".json");
    ASSERT_TRUE(dormant.has_value());
    ASSERT_TRUE(streamed.has_value());

    std::string why;
    EXPECT_TRUE(validateMetricsDoc(*dormant, why)) << why;
    EXPECT_TRUE(validateMetricsDoc(*streamed, why)) << why;

    // Dormancy: no subscriber, no "events" section — the document is
    // what a build without streaming would have written.
    EXPECT_EQ(dormant->find("events"), nullptr);

    const obs::Json *events = streamed->find("events");
    ASSERT_NE(events, nullptr);
    const obs::Json *published = events->find("published");
    const obs::Json *drops = events->find("subscriberDrops");
    ASSERT_NE(published, nullptr);
    ASSERT_NE(drops, nullptr);
    EXPECT_GT(published->asNumber(), 0.0);
    EXPECT_EQ(drops->asNumber(), 0.0);

    // Identical simulation either way.
    EXPECT_EQ(dormant->find("result")->dump(),
              streamed->find("result")->dump());
}

TEST(Events, TraceIdJoinsWireMetricsJournalAndChromeTrace)
{
    clearExperimentMemo();
    const ExperimentConfig cfg = smallConfig(App::Cc);
    const std::string id = obs::runId(cfg.fingerprint());

    const std::string dir = eventsPath("join", ".d");
    obs::TelemetryOptions topts;
    topts.metricsDir = dir;
    obs::setTelemetry(topts);

    serve::ServeOptions opts = serveOptions("join");
    opts.journalPath = eventsPath("join", ".gpsmj");
    std::vector<serve::SubmitOutcome> outcomes;
    {
        TestServer ts(opts);
        outcomes = serve::submitBatch(opts.socketPath, {cfg});
        ts.server.drain();
    }
    obs::setTelemetry(obs::TelemetryOptions{});

    ASSERT_EQ(outcomes.size(), 1u);
    ASSERT_TRUE(outcomes[0].ok) << outcomes[0].message;

    // Wire response.
    EXPECT_EQ(outcomes[0].run, id);

    // Metrics document.
    const std::optional<obs::Json> doc =
        readJsonFile(dir + "/run_" + id + ".json");
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(strField(*doc, "run"), id);

    // Chrome trace.
    const std::optional<obs::Json> trace =
        readJsonFile(dir + "/trace_" + id + ".json");
    ASSERT_TRUE(trace.has_value());
    const obs::Json *other = trace->find("otherData");
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(strField(*other, "run"), id);

    // Journal record.
    ResultJournal journal(opts.journalPath);
    bool found = false;
    for (const auto &[fp, result] : journal.snapshotAll()) {
        if (obs::runId(fp) != id)
            continue;
        found = true;
        EXPECT_EQ(serializeRunResult(result),
                  serializeRunResult(outcomes[0].result));
    }
    EXPECT_TRUE(found);
}

TEST(Events, WireStreamDeliversRunAndRequestLifecycles)
{
    clearExperimentMemo();
    const ExperimentConfig cfg = smallConfig(App::Bfs, "wiki");
    const std::string id = obs::runId(cfg.fingerprint());

    serve::ServeOptions opts = serveOptions("wire");
    TestServer ts(opts);

    serve::EventStream stream;
    ASSERT_TRUE(stream.open(opts.socketPath, 1u << 16));

    const std::vector<serve::SubmitOutcome> outcomes =
        serve::submitBatch(opts.socketPath, {cfg});
    ASSERT_EQ(outcomes.size(), 1u);
    ASSERT_TRUE(outcomes[0].ok) << outcomes[0].message;
    EXPECT_EQ(outcomes[0].run, id);

    // Read up to and including this run's run_end, then the trailing
    // request_done (published after the run returns).
    std::vector<obs::Json> events;
    while (true) {
        const std::optional<obs::Json> ev = stream.next(20.0);
        ASSERT_TRUE(ev.has_value()) << "event stream stalled";
        events.push_back(*ev);
        if (strField(*ev, "type") == "request_done" &&
            strField(*ev, "run") == id)
            break;
    }
    stream.close();

    std::uint64_t prev_seq = 0;
    bool first = true;
    for (const obs::Json &ev : events) {
        EXPECT_EQ(strField(ev, "schema"), obs::eventSchema);
        const std::uint64_t seq = seqOf(ev);
        if (!first) {
            EXPECT_GT(seq, prev_seq);
        }
        prev_seq = seq;
        first = false;
    }

    // Request lifecycle wraps the run lifecycle.
    const std::size_t admitted = indexOf(events, "request_admitted");
    const std::size_t started = indexOf(events, "request_start", id);
    const std::size_t run_begin = indexOf(events, "run_begin", id);
    const std::size_t run_end = indexOf(events, "run_end", id);
    const std::size_t done = indexOf(events, "request_done", id);
    ASSERT_LT(done, events.size());
    EXPECT_LT(admitted, started);
    EXPECT_LT(started, run_begin);
    EXPECT_LT(run_begin, run_end);
    EXPECT_LT(run_end, done);
    EXPECT_EQ(strField(events[done], "status"), "ok");
    EXPECT_EQ(strField(events[admitted], "op"), "run");
    EXPECT_NE(events[admitted].find("queueDepth"), nullptr);
    EXPECT_NE(events[admitted].find("inFlight"), nullptr);

    // The streamed final counters exactly match the wire response's
    // RunResult.
    const obs::Json *result = events[run_end].find("result");
    ASSERT_NE(result, nullptr);
    EXPECT_EQ(metricMapFromJson(*result),
              resultMetricMap(outcomes[0].result));

    // With an attached subscriber the daemon accounts for it.
    const serve::ServeStats stats = ts.server.stats();
    EXPECT_GE(stats.eventSubscribersEver, 1u);
    EXPECT_GT(stats.eventsPublished, 0u);
}
