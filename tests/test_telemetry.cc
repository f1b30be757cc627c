/**
 * @file
 * Tests for the observability layer (src/obs): the JSON model, run-id
 * hashing, the trace sink, telemetry determinism (sampler epochs and
 * per-run documents identical at any --jobs level), and the dormant-
 * telemetry guarantee (results bit-identical with telemetry off/on,
 * and no files written when off).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hh"
#include "core/metrics.hh"
#include "core/report.hh"
#include "core/runner.hh"
#include "fault/fault_plan.hh"
#include "obs/events.hh"
#include "obs/json.hh"
#include "obs/profiler.hh"
#include "obs/telemetry.hh"
#include "util/logging.hh"
#include "util/stats.hh"
#include "util/units.hh"

using namespace gpsm;
using namespace gpsm::core;

namespace fs = std::filesystem;

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

/** Scoped telemetry request; always restores "off" on exit so later
 *  tests (and other suites in this binary) see the default state. */
struct ScopedTelemetry
{
    explicit ScopedTelemetry(const std::string &dir,
                             std::uint64_t interval = 1u << 16)
    {
        obs::TelemetryOptions opts;
        opts.metricsDir = dir;
        opts.sampleInterval = interval;
        obs::setTelemetry(opts);
    }
    ~ScopedTelemetry() { obs::setTelemetry(obs::TelemetryOptions{}); }
};

std::string
freshDir(const std::string &leaf)
{
    const fs::path dir = fs::temp_directory_path() / leaf;
    fs::remove_all(dir);
    return dir.string();
}

std::string
slurp(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** Every file under @p dir, name -> content (no wall values in any
 *  per-run telemetry file, so byte-compare is meaningful). */
std::map<std::string, std::string>
dirContents(const std::string &dir)
{
    std::map<std::string, std::string> out;
    for (const auto &entry : fs::directory_iterator(dir))
        out[entry.path().filename().string()] = slurp(entry.path());
    return out;
}

/** Scoped profiling request; restores "off" and drops the aggregate
 *  so later tests see pristine state. */
struct ScopedProfiling
{
    ScopedProfiling()
    {
        obs::profReset();
        obs::setProfiling(true);
    }
    ~ScopedProfiling()
    {
        obs::setProfiling(false);
        obs::profReset();
    }
};

} // namespace

TEST(Json, ScalarsDumpAndParse)
{
    EXPECT_EQ(obs::Json().dump(), "null");
    EXPECT_EQ(obs::Json(true).dump(), "true");
    EXPECT_EQ(obs::Json(12).dump(), "12");
    EXPECT_EQ(obs::Json("hi").dump(), "\"hi\"");
    // Integral doubles print without a decimal point and round-trip
    // exactly (counters survive the double detour below 2^53).
    const std::uint64_t big = (1ull << 53) - 1;
    EXPECT_EQ(obs::Json(big).dump(), "9007199254740991");
    const auto parsed = obs::parseJson("9007199254740991");
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(static_cast<std::uint64_t>(parsed->asNumber()), big);
}

TEST(Json, ObjectPreservesInsertionOrder)
{
    obs::Json obj = obs::Json::object();
    obj.set("zebra", 1);
    obj.set("alpha", 2);
    obj.set("zebra", 3); // replace in place, not reorder
    EXPECT_EQ(obj.dump(), "{\"zebra\":3,\"alpha\":2}");
}

TEST(Json, StringEscaping)
{
    obs::Json s(std::string("a\"b\\c\nd\te\x01"));
    EXPECT_EQ(s.dump(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    const auto back = obs::parseJson(s.dump());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->asString(), "a\"b\\c\nd\te\x01");
}

TEST(Json, RoundTripNestedDocument)
{
    const std::string text =
        "{\"a\":[1,2.5,null,true],\"b\":{\"c\":\"x\"},\"d\":-3}";
    const auto doc = obs::parseJson(text);
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->dump(), text);
    // Pretty-printed output parses back to the same compact form.
    const auto pretty = obs::parseJson(doc->dump(2));
    ASSERT_TRUE(pretty.has_value());
    EXPECT_EQ(pretty->dump(), text);
}

TEST(Json, ParseErrorsReportOffset)
{
    std::size_t off = 0;
    EXPECT_FALSE(obs::parseJson("{\"a\":}", &off).has_value());
    EXPECT_EQ(off, 5u);
    EXPECT_FALSE(obs::parseJson("", &off).has_value());
    EXPECT_FALSE(obs::parseJson("[1,2] trailing", &off).has_value());
    EXPECT_FALSE(obs::parseJson("{\"dup\" 1}", &off).has_value());
}

TEST(Telemetry, RunIdIsStableSixteenHex)
{
    const std::string id = obs::runId("some-fingerprint");
    EXPECT_EQ(id.size(), 16u);
    EXPECT_EQ(id.find_first_not_of("0123456789abcdef"),
              std::string::npos);
    EXPECT_EQ(id, obs::runId("some-fingerprint"));
    EXPECT_NE(id, obs::runId("some-fingerprint2"));
}

TEST(Telemetry, TraceSinkCapsAndCounts)
{
    Counter clock;
    obs::TraceSink sink(clock);
    const std::size_t overshoot = obs::TraceSink::capacity + 100;
    for (std::size_t i = 0; i < overshoot; ++i) {
        clock += 1;
        sink.traceEvent(obs::TraceKind::Promotion, i, "vma");
    }
    EXPECT_EQ(sink.events().size(), obs::TraceSink::capacity);
    EXPECT_EQ(sink.totalEvents(), overshoot);
    EXPECT_EQ(sink.droppedEvents(), 100u);
    // Names are copied, clocks stamped from the live counter.
    EXPECT_EQ(sink.events().front().name, "vma");
    EXPECT_EQ(sink.events().front().clock, 1u);
}

TEST(Telemetry, SamplerBucketsDeltasAndGauges)
{
    Counter work;
    Counter clock;
    StatSet stats("m");
    stats.registerCounter("work", &work);

    obs::TimeSeriesSampler sampler(stats, clock, 100);
    std::uint64_t gauge = 7;
    sampler.setGaugeProvider([&gauge] {
        return std::vector<std::pair<std::string, std::uint64_t>>{
            {"g", gauge}};
    });

    clock += 100;
    work += 5;
    sampler.tick();
    clock += 100;
    gauge = 9; // quiet epoch: no deltas, but gauges still recorded
    sampler.tick();
    clock += 50;
    work += 2;
    sampler.finish();

    const auto &epochs = sampler.epochs();
    ASSERT_EQ(epochs.size(), 3u);
    EXPECT_EQ(epochs[0].clock, 100u);
    EXPECT_EQ(epochs[0].deltas.at("work"), 5u);
    EXPECT_EQ(epochs[0].gauges.front().second, 7u);
    EXPECT_TRUE(epochs[1].deltas.empty()); // zero deltas dropped
    EXPECT_EQ(epochs[1].gauges.front().second, 9u);
    EXPECT_EQ(epochs[2].deltas.at("work"), 2u);
    EXPECT_EQ(epochs[2].clock, 250u);
}

TEST(Telemetry, DormantTelemetryIsBitIdenticalAndWritesNothing)
{
    const ExperimentConfig cfg = smallConfig();
    const RunResult off = runExperiment(cfg);

    const std::string dir = freshDir("gpsm_test_dormant");
    RunResult on;
    {
        ScopedTelemetry scoped(dir);
        on = runExperiment(cfg);
    }
    // Telemetry observed but did not perturb: every field identical.
    EXPECT_EQ(off.checksum, on.checksum);
    EXPECT_EQ(off.accesses, on.accesses);
    EXPECT_EQ(off.dtlbMisses, on.dtlbMisses);
    EXPECT_EQ(off.minorFaults, on.minorFaults);
    EXPECT_EQ(off.hugeFaults, on.hugeFaults);
    EXPECT_EQ(off.kernelOutput, on.kernelOutput);
    EXPECT_EQ(off.hugeBackedBytes, on.hugeBackedBytes);

    // With telemetry on, the run produced its document set...
    EXPECT_FALSE(dirContents(dir).empty());

    // ...and with it off again, a run writes nothing anywhere.
    fs::remove_all(dir);
    const RunResult again = runExperiment(cfg);
    EXPECT_EQ(off.checksum, again.checksum);
    EXPECT_FALSE(fs::exists(dir));
}

TEST(Telemetry, MetricsDirIdenticalAtAnyJobsLevel)
{
    // The regression CI gate in miniature: the same batch through
    // jobs=1 and jobs=4 pools must produce byte-identical per-run
    // telemetry (sampler epochs are clocked on simulated accesses, and
    // no per-run file carries wall time).
    std::vector<ExperimentConfig> configs;
    for (App app : {App::Bfs, App::Pr})
        for (const char *ds : {"kron", "wiki"})
            configs.push_back(smallConfig(app, ds));

    const std::string dir1 = freshDir("gpsm_test_jobs1");
    {
        ScopedTelemetry scoped(dir1);
        clearExperimentMemo(); // force execution: cached runs skip export
        ExperimentPool pool(1);
        pool.run(configs);
    }
    const std::string dir4 = freshDir("gpsm_test_jobs4");
    {
        ScopedTelemetry scoped(dir4);
        clearExperimentMemo();
        ExperimentPool pool(4);
        pool.run(configs);
    }

    const auto files1 = dirContents(dir1);
    const auto files4 = dirContents(dir4);
    EXPECT_EQ(files1.size(), files4.size());
    EXPECT_GE(files1.size(), configs.size()); // >= one doc per run
    for (const auto &[name, content] : files1) {
        SCOPED_TRACE(name);
        ASSERT_EQ(files4.count(name), 1u);
        EXPECT_EQ(content, files4.at(name));
    }
    fs::remove_all(dir1);
    fs::remove_all(dir4);
}

TEST(Telemetry, WrittenDocumentsValidateAndCarryResult)
{
    const ExperimentConfig cfg = smallConfig(App::Bfs, "wiki");
    const std::string dir = freshDir("gpsm_test_docs");
    RunResult res;
    {
        ScopedTelemetry scoped(dir);
        res = runExperiment(cfg);
    }

    const std::string id = obs::runId(cfg.fingerprint());
    const fs::path doc_path =
        fs::path(dir) / ("run_" + id + ".json");
    ASSERT_TRUE(fs::exists(doc_path));
    const auto doc = obs::parseJson(slurp(doc_path));
    ASSERT_TRUE(doc.has_value());

    std::string error;
    EXPECT_TRUE(validateMetricsDoc(*doc, error)) << error;

    // The embedded "result" object equals resultJson(res) member for
    // member — the journal and the metrics doc cannot disagree.
    const obs::Json *result = doc->find("result");
    ASSERT_NE(result, nullptr);
    EXPECT_EQ(result->dump(), resultJson(res).dump());

    // Trace + series documents exist and parse (the sampler ran).
    const fs::path trace_path =
        fs::path(dir) / ("trace_" + id + ".json");
    ASSERT_TRUE(fs::exists(trace_path));
    const auto trace = obs::parseJson(slurp(trace_path));
    ASSERT_TRUE(trace.has_value());
    const obs::Json *events = trace->find("traceEvents");
    ASSERT_NE(events, nullptr);
    EXPECT_GT(events->size(), 0u);

    const fs::path series_path =
        fs::path(dir) / ("series_" + id + ".jsonl");
    ASSERT_TRUE(fs::exists(series_path));
    std::istringstream lines(slurp(series_path));
    std::string line;
    std::size_t parsed_lines = 0;
    while (std::getline(lines, line)) {
        EXPECT_TRUE(obs::parseJson(line).has_value()) << line;
        ++parsed_lines;
    }
    EXPECT_GE(parsed_lines, 1u); // header line at minimum

    fs::remove_all(dir);
}

TEST(Telemetry, TwoNodeRunTracesCompactionOnBothNodes)
{
    // Huge faults bind to node 1, which memhog and the fragmenter
    // pressured, so direct compaction runs there. Every pass on either
    // node is one "compaction" trace event.
    ExperimentConfig cfg = smallConfig(App::Bfs, "kron");
    cfg.sys.enableSecondNode();
    cfg.sys.numaPlacement = NumaPlacement::RemoteOnly;
    cfg.pressureNode = PressureNode::Remote;
    cfg.thpMode = vm::ThpMode::Always;
    cfg.constrainMemory = true;
    cfg.slackBytes = static_cast<std::int64_t>(8_MiB);
    cfg.fragLevel = 0.5;
    const std::string dir = freshDir("gpsm_test_node1_compaction");
    {
        ScopedTelemetry scoped(dir);
        runExperiment(cfg);
    }

    const std::string id = obs::runId(cfg.fingerprint());
    const auto doc =
        obs::parseJson(slurp(fs::path(dir) / ("run_" + id + ".json")));
    ASSERT_TRUE(doc.has_value());
    const obs::Json *stats = doc->find("stats");
    ASSERT_NE(stats, nullptr);
    const double node0 = stats->find("node.compactionRuns")->asNumber();
    const double node1 = stats->find("node1.compactionRuns")->asNumber();
    EXPECT_GT(node1, 0.0);

    const auto trace =
        obs::parseJson(slurp(fs::path(dir) / ("trace_" + id + ".json")));
    ASSERT_TRUE(trace.has_value());
    double compactions = 0;
    for (const obs::Json &ev : trace->find("traceEvents")->elements())
        if (ev.find("name")->asString() == "compaction")
            ++compactions;
    EXPECT_EQ(compactions, node0 + node1);
    fs::remove_all(dir);
}

TEST(Telemetry, CancelWithEveryObserverArmedLeavesNoState)
{
    // Telemetry, a live subscriber and a fault plan all observe the
    // run; a watcher cancels it once the kernel phase begins.
    ExperimentConfig cfg = smallConfig(App::Pr, "kron");
    cfg.scaleDivisor = 2048;
    cfg.faultPlan = fault::FaultPlan::transientPressure(
        workingSetBytes(cfg) + cfg.sys.hugePageBytes());
    const std::string id = obs::runId(cfg.fingerprint());
    const std::string before = freshDir("gpsm_test_cancel_before");
    const std::string cancelled = freshDir("gpsm_test_cancel_cancelled");
    const std::string after = freshDir("gpsm_test_cancel_after");

    obs::EventBus &bus = obs::EventBus::instance();
    const obs::EventBus::SubPtr sub = bus.subscribe(1u << 20);
    const auto drain = [&sub] {
        while (sub->pop(0.0)) {
        }
    };
    // The reference: this config's documents from a process in which
    // no run was cancelled yet.
    {
        ScopedTelemetry scoped(before);
        runExperiment(cfg);
    }
    drain();

    std::atomic<bool> cancel{false};
    std::thread watcher([&sub, &cancel] {
        while (const auto line = sub->pop(60.0)) {
            if (line->find("\"phase_begin\"") != std::string::npos &&
                line->find("\"kernel\"") != std::string::npos) {
                cancel.store(true, std::memory_order_relaxed);
                return;
            }
        }
    });
    {
        ScopedTelemetry scoped(cancelled);
        EXPECT_THROW(runExperiment(cfg, &cancel), CancelledError);
    }
    watcher.join();
    EXPECT_TRUE(cancel.load());
    EXPECT_FALSE(fs::exists(fs::path(cancelled) / ("run_" + id + ".json")));
    drain();

    {
        ScopedTelemetry scoped(after);
        runExperiment(cfg);
    }
    bus.unsubscribe(sub);
    EXPECT_FALSE(dirContents(before).empty());
    EXPECT_EQ(dirContents(before), dirContents(after));
    for (const std::string &dir : {before, cancelled, after})
        fs::remove_all(dir);
}

TEST(Profiler, DormantProfilerIsBitIdenticalAndAddsNoBytes)
{
    // Same discipline as dormant telemetry: with profiling off the
    // metrics document must not gain a "profile" key, and turning it
    // on must not perturb a single simulated counter.
    const ExperimentConfig cfg = smallConfig();

    const std::string dir_off = freshDir("gpsm_test_prof_off");
    RunResult off;
    {
        ScopedTelemetry scoped(dir_off);
        off = runExperiment(cfg);
    }
    const std::string dir_on = freshDir("gpsm_test_prof_on");
    RunResult on;
    {
        ScopedTelemetry scoped(dir_on);
        ScopedProfiling prof;
        on = runExperiment(cfg);
    }

    EXPECT_EQ(off.checksum, on.checksum);
    EXPECT_EQ(off.accesses, on.accesses);
    EXPECT_EQ(off.dtlbMisses, on.dtlbMisses);
    EXPECT_EQ(off.walks, on.walks);
    EXPECT_EQ(off.minorFaults, on.minorFaults);
    EXPECT_EQ(off.kernelOutput, on.kernelOutput);

    const std::string id = obs::runId(cfg.fingerprint());
    const auto doc_off = obs::parseJson(
        slurp(fs::path(dir_off) / ("run_" + id + ".json")));
    const auto doc_on = obs::parseJson(
        slurp(fs::path(dir_on) / ("run_" + id + ".json")));
    ASSERT_TRUE(doc_off.has_value());
    ASSERT_TRUE(doc_on.has_value());

    // Off: no profile section, anywhere. On: a profile object with
    // the full phase vocabulary, still schema-valid.
    EXPECT_EQ(doc_off->find("profile"), nullptr);
    const obs::Json *profile = doc_on->find("profile");
    ASSERT_NE(profile, nullptr);
    ASSERT_TRUE(profile->isObject());
    for (std::size_t i = 0; i < obs::profPhaseCount; ++i) {
        const char *name =
            obs::profPhaseName(static_cast<obs::ProfPhase>(i));
        EXPECT_NE(profile->find(name), nullptr) << name;
    }
    std::string error;
    EXPECT_TRUE(validateMetricsDoc(*doc_on, error)) << error;
    EXPECT_TRUE(validateMetricsDoc(*doc_off, error)) << error;

    // A live run spends real time in the kernel (the build phase may
    // be nearly free when the dataset cache already holds the graph).
    EXPECT_GE(profile->find("build")->asNumber(), 0.0);
    EXPECT_GT(profile->find("kernel")->asNumber(), 0.0);
    // Apart from the profile section, the two documents agree on the
    // result payload.
    EXPECT_EQ(doc_off->find("result")->dump(),
              doc_on->find("result")->dump());

    fs::remove_all(dir_off);
    fs::remove_all(dir_on);
}

TEST(Profiler, ScopesChargePhasesAndFoldIntoTotals)
{
    ScopedProfiling prof;
    obs::profBeginRun();
    {
        obs::ProfScope scope(obs::ProfPhase::Verify);
        // Enough work for a monotonic-clock delta even at coarse tick.
        volatile std::uint64_t sink = 0;
        for (int i = 0; i < 2000000; ++i)
            sink = sink + i;
    }
    const obs::PhaseBreakdown run = obs::profEndRun();
    EXPECT_GT(run.seconds[static_cast<std::size_t>(
                  obs::ProfPhase::Verify)],
              0.0);
    EXPECT_EQ(run.seconds[static_cast<std::size_t>(
                  obs::ProfPhase::Kernel)],
              0.0);
    EXPECT_DOUBLE_EQ(run.total(),
                     run.seconds[static_cast<std::size_t>(
                         obs::ProfPhase::Verify)]);

    const obs::ProfTotals totals = obs::profTotals();
    EXPECT_EQ(totals.runs, 1u);
    EXPECT_DOUBLE_EQ(totals.phases.total(), run.total());
}

TEST(Profiler, OffProfilerScopesAreInertAndFoldNothing)
{
    obs::profReset();
    ASSERT_FALSE(obs::profilingEnabled());
    obs::profBeginRun();
    {
        obs::ProfScope scope(obs::ProfPhase::Kernel);
        volatile std::uint64_t sink = 0;
        for (std::uint64_t i = 0; i < 100000; ++i)
            sink = sink + i;
    }
    const obs::PhaseBreakdown run = obs::profEndRun();
    EXPECT_EQ(run.total(), 0.0);
    EXPECT_EQ(obs::profTotals().runs, 0u);
    EXPECT_EQ(obs::profTotals().phases.total(), 0.0);
}

TEST(Telemetry, ValidateMetricsDocRejectsMalformed)
{
    std::string error;
    obs::Json doc = obs::Json::object();
    EXPECT_FALSE(validateMetricsDoc(doc, error));
    EXPECT_FALSE(error.empty());

    doc.set("schema", "gpsm-metrics-v1");
    doc.set("run", "not-sixteen-hex");
    EXPECT_FALSE(validateMetricsDoc(doc, error));

    // Wrong schema tag is rejected even when the rest is plausible.
    obs::Json wrong = obs::Json::object();
    wrong.set("schema", "gpsm-metrics-v2");
    EXPECT_FALSE(validateMetricsDoc(wrong, error));
}
