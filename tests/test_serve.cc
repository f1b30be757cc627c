/**
 * @file
 * gpsm_serve tests: the wire codec must round-trip every config
 * fingerprint-exactly and reject unknown vocabulary; the service must
 * produce results byte-identical to offline execution; admission
 * control must shed deterministically when the queue is full and
 * enforce per-request deadlines with bounded retries; duplicate
 * in-flight requests must single-flight; a drained daemon must finish
 * admitted work; and a journal-backed daemon must resume completed
 * work across a restart without re-executing it.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/journal.hh"
#include "core/runner.hh"
#include "fault/fault_plan.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "util/logging.hh"
#include "util/units.hh"

using namespace gpsm;
using namespace gpsm::core;
using namespace gpsm::serve;

namespace
{

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

/** Unique socket/journal path per test (sockets are not reusable). */
std::string
servePath(const std::string &name, const std::string &suffix)
{
    const std::string path = testing::TempDir() + "gpsm_serve_" + name +
                             "." + std::to_string(getpid()) + suffix;
    std::remove(path.c_str());
    return path;
}

ServeOptions
serveOptions(const std::string &name)
{
    ServeOptions opts;
    opts.socketPath = servePath(name, ".sock");
    opts.workers = 2;
    return opts;
}

/** A started server, torn down on scope exit. */
struct TestServer
{
    explicit TestServer(const ServeOptions &opts) : server(opts)
    {
        std::string err;
        started = server.start(&err);
        EXPECT_TRUE(started) << err;
    }

    Server server;
    bool started = false;
};

obs::Json
makeRequest(const char *op, std::uint64_t id)
{
    obs::Json doc = obs::Json::object();
    doc.set("op", obs::Json(op));
    doc.set("id", obs::Json(id));
    return doc;
}

obs::Json
makeRunRequest(std::uint64_t id, const ExperimentConfig &cfg)
{
    obs::Json doc = makeRequest("run", id);
    doc.set("config", configToJson(cfg));
    doc.set("fingerprint", obs::Json(cfg.fingerprint()));
    return doc;
}

/** Poll the server until @p pred(stats) or ~2s elapse. */
bool
waitForStats(Server &server,
             const std::function<bool(const ServeStats &)> &pred)
{
    for (int spin = 0; spin < 400; ++spin) {
        if (pred(server.stats()))
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
}

} // namespace

TEST(ServeProtocol, ConfigJsonRoundTripsFingerprintExactly)
{
    // One config per "hard" corner of the vocabulary: nested madvise,
    // NUMA second node, negative slack, fault plans with bursts,
    // non-default kernel parameters. Encode -> decode must reproduce
    // the exact fingerprint (the codec asserts this internally too,
    // but here it is the test's contract).
    std::vector<ExperimentConfig> pool;

    pool.push_back(ExperimentConfig{}); // all defaults

    ExperimentConfig c = smallConfig(App::Pr, "wiki");
    c.thpMode = vm::ThpMode::Madvise;
    c.madvise = MadviseSelection{true, false, true, 0.375};
    c.order = AllocOrder::PropertyFirst;
    c.reorder = graph::ReorderMethod::Dbg;
    c.khugepagedMinPresent = 58;
    c.khugepagedHotFirst = true;
    c.khugepagedDuringKernel = true;
    c.prMaxIters = 9;
    c.prDamping = 0.875;
    c.prEpsilon = 1e-5;
    pool.push_back(c);

    c = smallConfig(App::Sssp, "twit");
    c.constrainMemory = true;
    c.slackBytes = -(4_MiB);
    c.fragLevel = 0.65;
    c.fileSource = FileSource::DirectIo;
    c.giantProperty = true;
    c.hugeFaultRetries = 3;
    c.ssspDelta = 16;
    pool.push_back(c);

    c = smallConfig(App::Cc, "web");
    c.sys.enableSecondNode(64_MiB);
    c.sys.numaPlacement = mem::NumaPlacement::Interleave;
    c.sys.numaMigrateOnPromote = true;
    c.pressureNode = PressureNode::Remote;
    c.ccMaxIters = 3;
    pool.push_back(c);

    c = smallConfig();
    c.faultPlan = fault::FaultPlan::correlatedBursts(2, 3, 1u << 20);
    c.faultPlan.seed = 11;
    pool.push_back(c);

    for (const ExperimentConfig &cfg : pool) {
        SCOPED_TRACE(cfg.label());
        const obs::Json doc = configToJson(cfg);
        const ExperimentConfig back =
            configFromJson(*obs::parseJson(doc.dump()));
        EXPECT_EQ(back.fingerprint(), cfg.fingerprint());
    }
}

TEST(ServeProtocol, RejectsUnknownVocabulary)
{
    obs::Json doc = configToJson(smallConfig());
    doc.set("wat", obs::Json(1));
    EXPECT_THROW(configFromJson(doc), FatalError);

    obs::Json bad_app = configToJson(smallConfig());
    bad_app.set("app", obs::Json("dijkstra"));
    EXPECT_THROW(configFromJson(bad_app), FatalError);

    obs::Json bad_type = configToJson(smallConfig());
    bad_type.set("seed", obs::Json("one"));
    EXPECT_THROW(configFromJson(bad_type), FatalError);
}

TEST(Serve, RunMatchesOfflineByteIdentical)
{
    clearExperimentMemo();
    TestServer ts(serveOptions("offline"));
    ASSERT_TRUE(ts.started);

    const ExperimentConfig cfg = smallConfig();
    const std::vector<SubmitOutcome> outcomes =
        submitBatch(ts.server.options().socketPath, {cfg});
    ASSERT_EQ(outcomes.size(), 1u);
    ASSERT_TRUE(outcomes[0].ok) << outcomes[0].kind << ": "
                                << outcomes[0].message;
    EXPECT_EQ(outcomes[0].fingerprint, cfg.fingerprint());

    // The invariant: byte-identical to direct offline execution
    // (runExperiment bypasses the memo the server shares in-process).
    const RunResult offline = runExperiment(cfg);
    EXPECT_EQ(serializeRunResult(outcomes[0].result),
              serializeRunResult(offline));
}

TEST(Serve, OutOfCoreRunMatchesOfflineByteIdentical)
{
    // The wire codec's oocRatio/oocEviction path, end to end.
    clearExperimentMemo();
    TestServer ts(serveOptions("ooc"));
    ASSERT_TRUE(ts.started);

    ExperimentConfig cfg = smallConfig();
    cfg.oocRatio = 2.0;
    cfg.oocEviction = mem::EvictionKind::Lru;
    const std::vector<SubmitOutcome> outcomes =
        submitBatch(ts.server.options().socketPath, {cfg});
    ASSERT_EQ(outcomes.size(), 1u);
    ASSERT_TRUE(outcomes[0].ok) << outcomes[0].kind << ": "
                                << outcomes[0].message;
    EXPECT_EQ(outcomes[0].fingerprint, cfg.fingerprint());
    const RunResult offline = runExperiment(cfg);
    EXPECT_GT(offline.fileReads, 0u);
    EXPECT_EQ(serializeRunResult(outcomes[0].result),
              serializeRunResult(offline));
}

TEST(Serve, SingleFlightsDuplicateRequests)
{
    clearExperimentMemo();
    ServeOptions opts = serveOptions("dedupe");
    opts.workers = 1; // one worker: occupy it to pin work in flight
    TestServer ts(opts);
    ASSERT_TRUE(ts.started);
    const std::string socket = ts.server.options().socketPath;

    // Memo counters are process-wide; difference them across the test.
    const std::uint64_t misses_before = experimentMemoStats().misses;

    // Connection A: a sleep occupies the only worker, then a run
    // queues behind it.
    Client a;
    ASSERT_TRUE(a.connect(socket));
    obs::Json sleep_req = makeRequest("sleep", 1);
    sleep_req.set("seconds", obs::Json(0.4));
    ASSERT_TRUE(a.send(sleep_req));
    ASSERT_TRUE(waitForStats(ts.server, [](const ServeStats &s) {
        return s.inFlight == 1;
    }));

    const ExperimentConfig cfg = smallConfig();
    ASSERT_TRUE(a.send(makeRunRequest(2, cfg)));
    ASSERT_TRUE(waitForStats(ts.server, [](const ServeStats &s) {
        return s.queueDepth == 1;
    }));

    // Connection B: the same config while A's copy is still queued —
    // it must attach to the in-flight task, not enqueue a second one.
    Client b;
    ASSERT_TRUE(b.connect(socket));
    ASSERT_TRUE(b.send(makeRunRequest(7, cfg)));
    ASSERT_TRUE(waitForStats(ts.server, [](const ServeStats &s) {
        return s.dedupeHits == 1;
    }));
    EXPECT_EQ(ts.server.stats().queueDepth, 1u);

    // Both waiters get the one result.
    const auto ra = a.recv(30.0);
    const auto rb = b.recv(30.0);
    ASSERT_TRUE(ra.has_value());   // sleep ack
    const auto ra2 = a.recv(30.0); // run result
    ASSERT_TRUE(ra2.has_value());
    ASSERT_TRUE(rb.has_value());
    EXPECT_EQ(ra2->find("status")->asString(), "ok");
    EXPECT_EQ(rb->find("status")->asString(), "ok");
    EXPECT_EQ(ra2->find("result")->asString(),
              rb->find("result")->asString());

    const ServeStats stats = ts.server.stats();
    EXPECT_EQ(stats.dedupeHits, 1u);
    // One execution served both waiters.
    EXPECT_EQ(stats.memo.misses, misses_before + 1);
}

TEST(Serve, ShedsWhenQueueFull)
{
    clearExperimentMemo();
    ServeOptions opts = serveOptions("overload");
    opts.workers = 1;
    opts.queueCap = 1;
    TestServer ts(opts);
    ASSERT_TRUE(ts.started);

    Client c;
    ASSERT_TRUE(c.connect(ts.server.options().socketPath));

    // Occupy the worker, and wait until the sleep has left the queue.
    obs::Json sleep_req = makeRequest("sleep", 1);
    sleep_req.set("seconds", obs::Json(0.5));
    ASSERT_TRUE(c.send(sleep_req));
    ASSERT_TRUE(waitForStats(ts.server, [](const ServeStats &s) {
        return s.inFlight == 1 && s.queueDepth == 0;
    }));

    // Fill the one queue slot...
    ASSERT_TRUE(c.send(makeRunRequest(2, smallConfig())));
    ASSERT_TRUE(waitForStats(ts.server, [](const ServeStats &s) {
        return s.queueDepth == 1;
    }));
    // ...and the next distinct request is shed, explicitly.
    ASSERT_TRUE(c.send(makeRunRequest(3, smallConfig(App::Pr))));
    const auto shed = c.recv(10.0);
    ASSERT_TRUE(shed.has_value());
    EXPECT_EQ(shed->find("id")->asNumber(), 3.0);
    EXPECT_EQ(shed->find("status")->asString(), "error");
    EXPECT_EQ(shed->find("kind")->asString(), "overloaded");
    EXPECT_EQ(ts.server.stats().shed, 1u);

    // The admitted work is unaffected.
    const auto sleep_ack = c.recv(30.0);
    const auto run_ok = c.recv(30.0);
    ASSERT_TRUE(sleep_ack.has_value());
    ASSERT_TRUE(run_ok.has_value());
    EXPECT_EQ(run_ok->find("status")->asString(), "ok");
}

TEST(Serve, DeadlineTimesOutAndRetriesAreBounded)
{
    clearExperimentMemo();
    ServeOptions opts = serveOptions("deadline");
    opts.backoffBaseSeconds = 0.01; // keep the retry loop fast
    TestServer ts(opts);
    ASSERT_TRUE(ts.started);

    // A sleep can never finish inside a 1ms deadline; with 2 retries
    // the daemon executes it exactly 3 times before reporting timeout.
    Client c;
    ASSERT_TRUE(c.connect(ts.server.options().socketPath));
    obs::Json req = makeRunRequest(5, smallConfig());
    req.set("deadlineSeconds", obs::Json(0.001));
    req.set("retries", obs::Json(2));
    ASSERT_TRUE(c.send(req));
    const auto resp = c.recv(60.0);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->find("status")->asString(), "error");
    EXPECT_EQ(resp->find("kind")->asString(), "timeout");
    EXPECT_EQ(resp->find("attempts")->asNumber(), 3.0);
    EXPECT_EQ(ts.server.stats().retries, 2u);
}

TEST(Serve, DrainFinishesAdmittedWork)
{
    clearExperimentMemo();
    ServeOptions opts = serveOptions("drain");
    opts.workers = 1;
    TestServer ts(opts);
    ASSERT_TRUE(ts.started);

    Client c;
    ASSERT_TRUE(c.connect(ts.server.options().socketPath));
    obs::Json sleep_req = makeRequest("sleep", 1);
    sleep_req.set("seconds", obs::Json(0.2));
    ASSERT_TRUE(c.send(sleep_req));
    ASSERT_TRUE(c.send(makeRunRequest(2, smallConfig())));
    ASSERT_TRUE(waitForStats(ts.server, [](const ServeStats &s) {
        return s.requests == 2;
    }));

    // Drain concurrently with the queued work: both responses must
    // still arrive, then the socket goes away.
    std::thread drainer([&]() { ts.server.drain(); });
    const auto r1 = c.recv(30.0);
    const auto r2 = c.recv(30.0);
    drainer.join();
    ASSERT_TRUE(r1.has_value());
    ASSERT_TRUE(r2.has_value());
    EXPECT_EQ(r2->find("status")->asString(), "ok");

    const ServeStats stats = ts.server.stats();
    EXPECT_EQ(stats.completed, 2u);
    EXPECT_EQ(stats.queueDepth, 0u);
    EXPECT_EQ(stats.inFlight, 0u);

    Client after;
    EXPECT_FALSE(
        after.connect(ts.server.options().socketPath, 0.2));
}

TEST(Serve, JournalResumesAcrossRestart)
{
    clearExperimentMemo();
    disableResultJournal();
    const std::string journal = servePath("resume", ".gpsmj");
    const ExperimentConfig cfg = smallConfig(App::Cc);

    std::string first_result;
    {
        ServeOptions opts = serveOptions("resume1");
        opts.journalPath = journal;
        TestServer ts(opts);
        ASSERT_TRUE(ts.started);
        const std::vector<SubmitOutcome> outcomes =
            submitBatch(ts.server.options().socketPath, {cfg});
        ASSERT_TRUE(outcomes[0].ok);
        EXPECT_FALSE(outcomes[0].cached);
        first_result = serializeRunResult(outcomes[0].result);
        ts.server.drain();
    }

    // "Restart": a fresh server on the same journal, with the
    // process-wide memo dropped — only the journal can know the
    // result.
    clearExperimentMemo();
    {
        ServeOptions opts = serveOptions("resume2");
        opts.journalPath = journal;
        TestServer ts(opts);
        ASSERT_TRUE(ts.started);
        EXPECT_EQ(ts.server.stats().journal.loaded, 1u);
        const std::uint64_t misses_before =
            experimentMemoStats().misses;
        const std::vector<SubmitOutcome> outcomes =
            submitBatch(ts.server.options().socketPath, {cfg});
        ASSERT_TRUE(outcomes[0].ok);
        EXPECT_TRUE(outcomes[0].cached); // served, not re-executed
        EXPECT_EQ(serializeRunResult(outcomes[0].result),
                  first_result);
        EXPECT_EQ(experimentMemoStats().misses, misses_before);
        ts.server.drain();
    }
    disableResultJournal();
}

TEST(Serve, BurstFaultPlanRunsThroughService)
{
    clearExperimentMemo();
    TestServer ts(serveOptions("burst"));
    ASSERT_TRUE(ts.started);

    ExperimentConfig cfg = smallConfig();
    cfg.thpMode = vm::ThpMode::Always;
    cfg.faultPlan = fault::FaultPlan::correlatedBursts(2, 2, 1u << 18);

    const std::vector<SubmitOutcome> outcomes =
        submitBatch(ts.server.options().socketPath, {cfg});
    ASSERT_TRUE(outcomes[0].ok) << outcomes[0].kind;
    EXPECT_EQ(serializeRunResult(outcomes[0].result),
              serializeRunResult(runExperiment(cfg)));
}

TEST(Serve, FingerprintMismatchIsRejectedAsInvalid)
{
    TestServer ts(serveOptions("mismatch"));
    ASSERT_TRUE(ts.started);

    Client c;
    ASSERT_TRUE(c.connect(ts.server.options().socketPath));
    obs::Json req = makeRunRequest(9, smallConfig());
    req.set("fingerprint", obs::Json("not-the-fingerprint"));
    ASSERT_TRUE(c.send(req));
    const auto resp = c.recv(10.0);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->find("status")->asString(), "error");
    EXPECT_EQ(resp->find("kind")->asString(), "invalid");
    EXPECT_EQ(ts.server.stats().invalid, 1u);

    // An unknown op is invalid too, not a dropped connection.
    ASSERT_TRUE(c.send(makeRequest("frobnicate", 10)));
    const auto resp2 = c.recv(10.0);
    ASSERT_TRUE(resp2.has_value());
    EXPECT_EQ(resp2->find("kind")->asString(), "invalid");
}
