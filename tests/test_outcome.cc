/**
 * @file
 * Hardened-engine tests: a batch must survive a poisoned config (every
 * other config still yields its result, the failure is reported per
 * fingerprint), the wall-clock watchdog must convert runaway runs into
 * structured Timeout errors with bounded retries and backoff that an
 * interrupt cuts short, and the oversubscription clamp must keep
 * fully hog-starved runs alive.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hh"
#include "core/runner.hh"
#include "util/units.hh"
#include "util/watchdog.hh"

using namespace gpsm;
using namespace gpsm::core;

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

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

TEST(Outcome, PoisonedConfigDoesNotSinkTheBatch)
{
    clearExperimentMemo();
    const std::vector<ExperimentConfig> configs = {
        smallConfig(App::Bfs, "kron"),
        smallConfig(App::Bfs, "no-such-dataset"),
        smallConfig(App::Bfs, "wiki"),
    };

    ExperimentPool pool(2);
    const std::vector<RunOutcome> out = pool.runOutcomes(configs);
    ASSERT_EQ(out.size(), configs.size());

    EXPECT_TRUE(out[0].ok());
    EXPECT_TRUE(out[2].ok());
    ASSERT_FALSE(out[1].ok());
    const ExperimentError &err = *out[1].error;
    EXPECT_EQ(err.kind, ExperimentError::Kind::Exception);
    EXPECT_EQ(err.fingerprint, configs[1].fingerprint());
    EXPECT_EQ(err.label, configs[1].label());
    EXPECT_FALSE(err.message.empty());
    EXPECT_EQ(out[1].attempts, 1u);

    // The survivors are real results, identical to direct execution.
    const RunResult direct = runExperiment(configs[0]);
    EXPECT_EQ(out[0].result->checksum, direct.checksum);
    EXPECT_EQ(out[0].result->kernelSeconds, direct.kernelSeconds);
}

TEST(Outcome, DuplicateConfigsShareOneError)
{
    clearExperimentMemo();
    const ExperimentConfig bad = smallConfig(App::Bfs, "nope");
    ExperimentPool pool(2);
    const std::vector<RunOutcome> out =
        pool.runOutcomes({bad, bad, bad});
    ASSERT_EQ(out.size(), 3u);
    for (const RunOutcome &o : out) {
        ASSERT_FALSE(o.ok());
        EXPECT_EQ(o.error->kind, ExperimentError::Kind::Exception);
        EXPECT_EQ(o.error->fingerprint, bad.fingerprint());
    }
}

TEST(Outcome, WatchdogTimesOutWithBoundedRetries)
{
    clearExperimentMemo();
    const ExperimentConfig cfg = smallConfig(App::Pr, "kron");

    PoolOptions opts;
    opts.timeoutSeconds = 1e-4; // expires at the watchdog's first scan
    opts.timeoutRetries = 1;
    ExperimentPool pool(1);
    const std::vector<RunOutcome> out =
        pool.runOutcomes({cfg}, opts);
    ASSERT_EQ(out.size(), 1u);
    ASSERT_FALSE(out[0].ok());
    const ExperimentError &err = *out[0].error;
    EXPECT_EQ(err.kind, ExperimentError::Kind::Timeout);
    EXPECT_EQ(out[0].attempts, 2u); // original + one retry
    EXPECT_EQ(err.fingerprint, cfg.fingerprint());
    EXPECT_NE(err.message.find("wall-clock"), std::string::npos);

    // A cancelled run leaves no poisoned state behind: the same
    // config completes normally once the budget is lifted.
    clearExperimentMemo();
    const std::vector<RunOutcome> ok = pool.runOutcomes({cfg});
    ASSERT_TRUE(ok[0].ok());
    EXPECT_EQ(ok[0].result->checksum, runExperiment(cfg).checksum);
}

TEST(Outcome, GuardedRunBacksOffBetweenRetries)
{
    clearExperimentMemo();
    std::atomic<bool> interrupt{false};
    util::DeadlineWatchdog watchdog(&interrupt);
    RunGuard guard;
    guard.deadlineSeconds = 1e-4; // expires at the watchdog's first scan
    guard.timeoutRetries = 2;
    guard.backoffBaseSeconds = 0.5;
    guard.backoffCapSeconds = 10.0;
    guard.interrupt = &interrupt;
    guard.watchdog = &watchdog;

    const auto start = std::chrono::steady_clock::now();
    const RunOutcome out = runGuarded(smallConfig(App::Pr), guard);
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.error->kind, ExperimentError::Kind::Timeout);
    EXPECT_EQ(out.attempts, 3u);
    EXPECT_NE(out.error->message.find("(3 attempts)"), std::string::npos);
    // Backoff before retry 1 is the base, before retry 2 twice it.
    EXPECT_GE(secondsSince(start), 0.5 + 2 * 0.5);
}

TEST(Outcome, InterruptCutsBackoffShortWithoutExecuting)
{
    clearExperimentMemo();
    std::atomic<bool> interrupt{false};
    util::DeadlineWatchdog watchdog(&interrupt);
    RunGuard guard;
    guard.deadlineSeconds = 1e-4;
    guard.timeoutRetries = 5;
    guard.backoffBaseSeconds = 20.0; // the first attempt times out
    guard.backoffCapSeconds = 60.0;  // long before the interrupt lands
    guard.interrupt = &interrupt;
    guard.watchdog = &watchdog;

    const std::uint64_t misses = experimentMemoStats().misses;
    const auto start = std::chrono::steady_clock::now();
    std::thread stopper([&interrupt] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1000));
        interrupt.store(true);
    });
    const RunOutcome out = runGuarded(smallConfig(App::Pr), guard);
    const double elapsed = secondsSince(start);
    stopper.join();

    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.error->kind, ExperimentError::Kind::Interrupted);
    EXPECT_EQ(out.attempts, 1u); // no execution after the backoff
    EXPECT_EQ(experimentMemoStats().misses, misses);
    EXPECT_LT(elapsed, 10.0); // well before the 20 s backoff
}

TEST(Outcome, GenerousBudgetDoesNotTrigger)
{
    clearExperimentMemo();
    PoolOptions opts;
    opts.timeoutSeconds = 300.0;
    ExperimentPool pool(2);
    const std::vector<RunOutcome> out = pool.runOutcomes(
        {smallConfig(App::Bfs, "kron"), smallConfig(App::Bfs, "wiki")},
        opts);
    for (const RunOutcome &o : out)
        EXPECT_TRUE(o.ok());
}

TEST(Outcome, OversubscribedHogStillCompletes)
{
    // Regression for the oversubscription clamp: a hog slack at or
    // below the negated working set used to leave demand paging with
    // neither a free frame nor an evictable victim, killing the first
    // fault. The engine now floors the hog's leave-free target at one
    // huge page — the run thrashes (the paper's oversubscription
    // regime) but completes with the correct answer.
    ExperimentConfig base = smallConfig(App::Bfs, "wiki");
    base.scaleDivisor = 1024;
    base.thpMode = vm::ThpMode::Never;
    const RunResult r0 = runExperiment(base);

    ExperimentConfig over = base;
    over.constrainMemory = true;
    over.slackBytes =
        -2 * static_cast<std::int64_t>(workingSetBytes(over));
    const RunResult r = runExperiment(over);

    EXPECT_GT(r.majorFaults, 0u);
    EXPECT_GT(r.swapOuts, 0u);
    EXPECT_GT(r.kernelSeconds, r0.kernelSeconds);
    EXPECT_EQ(r.checksum, r0.checksum);
    EXPECT_EQ(r.kernelOutput, r0.kernelOutput);
}
