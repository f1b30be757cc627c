/**
 * @file
 * Result-journal tests: serialization must round-trip RunResult
 * exactly (doubles included), records must survive process restarts,
 * torn final lines and foreign records must be skipped without losing
 * the rest, and the memo-cache integration must serve journaled
 * results without re-execution.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include <sys/wait.h>
#include <unistd.h>

#include "core/experiment.hh"
#include "core/journal.hh"
#include "core/runner.hh"
#include "util/units.hh"

using namespace gpsm;
using namespace gpsm::core;

namespace
{

/** Fresh path under the test temp dir (removing any leftover). */
std::string
journalPath(const std::string &name)
{
    const std::string path =
        testing::TempDir() + "gpsm_" + name + ".gpsmj";
    std::filesystem::remove(path);
    return path;
}

/** Run id "<prefix><i>", e.g. "a7". */
std::string
runId(const char *prefix, int i)
{
    std::string id = prefix;
    id += std::to_string(i);
    return id;
}

/** A RunResult with every field set to an awkward value: doubles that
 * don't round-trip through short decimal forms, extremes, zeros. */
RunResult
sampleResult(std::uint64_t salt = 0)
{
    RunResult r;
    r.initSeconds = 0.1 + 0.2;         // classic 0.30000000000000004
    r.kernelSeconds = 1.0 / 3.0 + salt;
    r.preprocessSeconds = 1e-300;      // subnormal-adjacent
    r.accesses = 123456789 + salt;
    r.dtlbMisses = 987654;
    r.stlbHits = 54321;
    r.walks = 4321;
    r.dtlbMissRate = 0.007297347234;
    r.stlbMissRate = 0.0;
    r.translationCycleShare = 0.2839471823748123;
    r.hugeFaults = 17;
    r.minorFaults = 100000 + salt;
    r.majorFaults = 3;
    r.swapOuts = 5;
    r.compactionRuns = 2;
    r.compactionPagesMigrated = 1024;
    r.promotions = 7;
    r.footprintBytes = 96_MiB;
    r.hugeBackedBytes = 12_MiB;
    r.giantBackedBytes = 0;
    r.hugeFractionOfFootprint = 0.125;
    r.hugeFallbacks = 11;
    r.hugeAllocRetries = 22;
    r.injectedHugeFailures = 33;
    r.swapStalls = 44;
    r.faultEventsApplied = 55;
    r.checksum = 0xdeadbeefcafef00dull + salt;
    r.kernelOutput = 42 + salt;
    return r;
}

void
expectIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.initSeconds, b.initSeconds);
    EXPECT_EQ(a.kernelSeconds, b.kernelSeconds);
    EXPECT_EQ(a.preprocessSeconds, b.preprocessSeconds);
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.dtlbMisses, b.dtlbMisses);
    EXPECT_EQ(a.stlbHits, b.stlbHits);
    EXPECT_EQ(a.walks, b.walks);
    EXPECT_EQ(a.dtlbMissRate, b.dtlbMissRate);
    EXPECT_EQ(a.stlbMissRate, b.stlbMissRate);
    EXPECT_EQ(a.translationCycleShare, b.translationCycleShare);
    EXPECT_EQ(a.hugeFaults, b.hugeFaults);
    EXPECT_EQ(a.minorFaults, b.minorFaults);
    EXPECT_EQ(a.majorFaults, b.majorFaults);
    EXPECT_EQ(a.swapOuts, b.swapOuts);
    EXPECT_EQ(a.compactionRuns, b.compactionRuns);
    EXPECT_EQ(a.compactionPagesMigrated, b.compactionPagesMigrated);
    EXPECT_EQ(a.promotions, b.promotions);
    EXPECT_EQ(a.footprintBytes, b.footprintBytes);
    EXPECT_EQ(a.hugeBackedBytes, b.hugeBackedBytes);
    EXPECT_EQ(a.giantBackedBytes, b.giantBackedBytes);
    EXPECT_EQ(a.hugeFractionOfFootprint, b.hugeFractionOfFootprint);
    EXPECT_EQ(a.hugeFallbacks, b.hugeFallbacks);
    EXPECT_EQ(a.hugeAllocRetries, b.hugeAllocRetries);
    EXPECT_EQ(a.injectedHugeFailures, b.injectedHugeFailures);
    EXPECT_EQ(a.swapStalls, b.swapStalls);
    EXPECT_EQ(a.faultEventsApplied, b.faultEventsApplied);
    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_EQ(a.kernelOutput, b.kernelOutput);
}

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

} // namespace

TEST(Journal, SerializationRoundTripsExactly)
{
    const RunResult r = sampleResult();
    const std::string text = serializeRunResult(r);
    const std::optional<RunResult> back = deserializeRunResult(text);
    ASSERT_TRUE(back.has_value());
    expectIdentical(r, *back);

    // Malformed payloads are rejected, not misparsed.
    EXPECT_FALSE(deserializeRunResult("").has_value());
    EXPECT_FALSE(deserializeRunResult("garbage").has_value());
    EXPECT_FALSE(
        deserializeRunResult(text.substr(0, text.size() / 2))
            .has_value());
}

TEST(Journal, RecordsPersistAcrossReopen)
{
    const std::string path = journalPath("reopen");
    // A fingerprint carrying every delimiter the record format uses.
    const std::string fp = "a|b%c\nd\re|100%";
    {
        ResultJournal j(path);
        EXPECT_TRUE(j.writable());
        EXPECT_EQ(j.entries(), 0u);
        EXPECT_TRUE(j.record(fp, sampleResult(1)));
        EXPECT_TRUE(j.record("other", sampleResult(2)));
        EXPECT_EQ(j.entries(), 2u);
    }
    ResultJournal j(path);
    EXPECT_EQ(j.entries(), 2u);
    EXPECT_EQ(j.corruptedLines(), 0u);
    ASSERT_TRUE(j.lookup(fp).has_value());
    expectIdentical(sampleResult(1), *j.lookup(fp));
    expectIdentical(sampleResult(2), *j.lookup("other"));
    EXPECT_FALSE(j.lookup("absent").has_value());
}

TEST(Journal, LastRecordWinsForDuplicateFingerprint)
{
    const std::string path = journalPath("dup");
    {
        ResultJournal j(path);
        j.record("fp", sampleResult(1));
        j.record("fp", sampleResult(2));
    }
    ResultJournal j(path);
    EXPECT_EQ(j.entries(), 1u);
    expectIdentical(sampleResult(2), *j.lookup("fp"));
}

TEST(Journal, TornFinalLineIsToleratedAndAppendable)
{
    const std::string path = journalPath("torn");
    {
        ResultJournal j(path);
        j.record("first", sampleResult(1));
        j.record("second", sampleResult(2));
    }
    // Simulate a crash mid-append: chop the tail off the last record.
    std::filesystem::resize_file(
        path, std::filesystem::file_size(path) - 7);
    {
        ResultJournal j(path);
        EXPECT_EQ(j.entries(), 1u);
        EXPECT_EQ(j.corruptedLines(), 1u);
        EXPECT_TRUE(j.lookup("first").has_value());
        EXPECT_FALSE(j.lookup("second").has_value());
        // Appending after a torn line starts on a fresh line.
        EXPECT_TRUE(j.record("third", sampleResult(3)));
    }
    ResultJournal j(path);
    EXPECT_EQ(j.entries(), 2u);
    EXPECT_EQ(j.corruptedLines(), 1u);
    expectIdentical(sampleResult(1), *j.lookup("first"));
    expectIdentical(sampleResult(3), *j.lookup("third"));
}

TEST(Journal, ForeignAndCorruptLinesAreSkipped)
{
    const std::string path = journalPath("foreign");
    {
        // An incompatible-version record and plain garbage, written
        // before any valid record.
        std::ofstream out(path);
        out << "gpsmj0|fp|1,2,3|0000000000000000\n"
            << "not a journal line\n";
    }
    {
        ResultJournal j(path);
        EXPECT_EQ(j.entries(), 0u);
        EXPECT_EQ(j.corruptedLines(), 2u);
        EXPECT_TRUE(j.record("good", sampleResult(4)));
    }
    ResultJournal j(path);
    EXPECT_EQ(j.entries(), 1u);
    EXPECT_EQ(j.corruptedLines(), 2u);
    expectIdentical(sampleResult(4), *j.lookup("good"));
}

TEST(Journal, ChecksumRejectsBitFlips)
{
    const std::string path = journalPath("bitflip");
    {
        ResultJournal j(path);
        j.record("fp", sampleResult(5));
    }
    // Flip one payload character on disk.
    std::string data;
    {
        std::ifstream in(path);
        std::getline(in, data);
    }
    const std::size_t mid = data.find(',');
    ASSERT_NE(mid, std::string::npos);
    data[mid - 1] = data[mid - 1] == '1' ? '2' : '1';
    {
        std::ofstream out(path);
        out << data << '\n';
    }
    ResultJournal j(path);
    EXPECT_EQ(j.entries(), 0u);
    EXPECT_EQ(j.corruptedLines(), 1u);
}

TEST(Journal, MemoIntegrationSkipsReExecution)
{
    const std::string path = journalPath("memo");
    clearExperimentMemo();
    disableResultJournal();

    std::string err;
    ASSERT_TRUE(enableResultJournal(path, &err)) << err;
    const JournalStats before = resultJournalStats();
    EXPECT_TRUE(before.enabled);
    EXPECT_EQ(before.loaded, 0u);

    const ExperimentConfig cfg = smallConfig();
    bool cached = true;
    const RunResult first = runMemoized(cfg, &cached);
    EXPECT_FALSE(cached);
    EXPECT_EQ(resultJournalStats().appends, before.appends + 1);

    // Dropping the in-memory memo simulates a process restart: the
    // journal must serve the result without re-executing.
    clearExperimentMemo();
    const RunResult second = runMemoized(cfg, &cached);
    EXPECT_TRUE(cached);
    EXPECT_EQ(resultJournalStats().hits, before.hits + 1);
    expectIdentical(first, second);
    disableResultJournal();
    EXPECT_FALSE(resultJournalStats().enabled);

    // Re-attaching actually reloads from disk.
    ASSERT_TRUE(enableResultJournal(path, &err)) << err;
    EXPECT_EQ(resultJournalStats().loaded, 1u);
    clearExperimentMemo();
    const RunResult third = runMemoized(cfg, &cached);
    EXPECT_TRUE(cached);
    expectIdentical(first, third);
    disableResultJournal();
}

TEST(Journal, UnwritablePathIsReported)
{
    // A directory cannot be opened for appending.
    std::string err;
    EXPECT_FALSE(enableResultJournal(testing::TempDir(), &err));
    EXPECT_FALSE(err.empty());
    disableResultJournal();
}

TEST(Journal, TwoWritersInterleaveWithoutCorruption)
{
    // Two open handles on one journal — the gpsm_serve daemon plus an
    // offline run, or two sharded submit clients — append
    // concurrently. The per-append flock must keep every record whole:
    // a reload sees all of them and zero corrupted lines.
    const std::string path = journalPath("two_writers");
    ResultJournal a(path);
    ResultJournal b(path);
    ASSERT_TRUE(a.writable());
    ASSERT_TRUE(b.writable());

    constexpr int kEach = 200;
    std::thread ta([&]() {
        for (int i = 0; i < kEach; ++i)
            EXPECT_TRUE(a.record(runId("a", i),
                                 sampleResult(static_cast<std::uint64_t>(i))));
    });
    std::thread tb([&]() {
        for (int i = 0; i < kEach; ++i)
            EXPECT_TRUE(b.record(runId("b", i),
                                 sampleResult(1000u + i)));
    });
    ta.join();
    tb.join();

    ResultJournal check(path);
    EXPECT_EQ(check.entries(), 2u * kEach);
    EXPECT_EQ(check.corruptedLines(), 0u);
    expectIdentical(sampleResult(0), *check.lookup("a0"));
    expectIdentical(sampleResult(1000u + kEach - 1),
                    *check.lookup(runId("b", kEach - 1)));
}

TEST(Journal, ConcurrentReloadSeesOnlyWholeRecords)
{
    // Reloading while another handle is appending (a restarting
    // daemon re-opening the journal its predecessor still flushed
    // moments ago) must never index a partial record: at worst the
    // torn tail of an append in flight is skipped.
    const std::string path = journalPath("reload_race");
    ResultJournal writer(path);
    ASSERT_TRUE(writer.writable());

    std::atomic<bool> done{false};
    std::thread w([&]() {
        for (int i = 0; i < 150; ++i)
            writer.record("fp" + std::to_string(i), sampleResult(i));
        done.store(true);
    });
    while (!done.load()) {
        ResultJournal reader(path);
        EXPECT_LE(reader.corruptedLines(), 1u);
        EXPECT_LE(reader.entries(), 150u);
    }
    w.join();

    ResultJournal final_check(path);
    EXPECT_EQ(final_check.entries(), 150u);
    EXPECT_EQ(final_check.corruptedLines(), 0u);
}

TEST(Journal, KillResumeRoundTrip)
{
    // The serve recovery story in miniature: a writer process is
    // SIGKILL'd mid-append; the journal reloads with at most the one
    // torn tail lost, every surviving record intact, and stays
    // appendable for the resumed run.
    const std::string path = journalPath("kill_resume");
    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        ResultJournal j(path);
        for (std::uint64_t i = 0;; ++i)
            j.record("fp" + std::to_string(i), sampleResult(i));
        _exit(0); // unreachable
    }
    // Wait until the child has demonstrably written some records.
    for (int spin = 0; spin < 2000; ++spin) {
        std::error_code ec;
        if (std::filesystem::exists(path, ec) &&
            std::filesystem::file_size(path, ec) > 8192)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    kill(child, SIGKILL);
    int status = 0;
    waitpid(child, &status, 0);
    ASSERT_TRUE(WIFSIGNALED(status));

    ResultJournal j(path);
    EXPECT_GE(j.entries(), 1u);
    EXPECT_LE(j.corruptedLines(), 1u); // only the torn final record
    // Every surviving record carries exactly the payload its
    // fingerprint says it should.
    for (const auto &[fp, result] : j.snapshotAll()) {
        ASSERT_EQ(fp.rfind("fp", 0), 0u);
        expectIdentical(sampleResult(std::stoull(fp.substr(2))),
                        result);
    }
    // The resumed run appends on a fresh line.
    const std::size_t before = j.entries();
    EXPECT_TRUE(j.record("resumed", sampleResult(999)));
    ResultJournal check(path);
    EXPECT_EQ(check.entries(), before + 1);
    expectIdentical(sampleResult(999), *check.lookup("resumed"));
}

TEST(Journal, JournalLineIsExactlyWhatRecordAppends)
{
    const std::string path = journalPath("line_format");
    const RunResult r = sampleResult(7);
    {
        ResultJournal j(path);
        ASSERT_TRUE(j.record("fp|with|pipes", r));
    }
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_EQ(ss.str(), journalLine("fp|with|pipes", r));
}

TEST(Journal, CompactionKeepsLastRecordDropsCorruption)
{
    const std::string path = journalPath("compact");
    {
        ResultJournal j(path);
        ASSERT_TRUE(j.record("fpA", sampleResult(1)));
        ASSERT_TRUE(j.record("fpB", sampleResult(2)));
        ASSERT_TRUE(j.record("fpA", sampleResult(3))); // supersedes
    }
    {
        // A torn line and a foreign one: both must vanish.
        std::ofstream out(path, std::ios::app | std::ios::binary);
        out << "gpsmj1|torn-record-without-a-checks\n";
        out << "not a journal record at all\n";
    }

    const CompactionStats cs = compactJournal(path);
    ASSERT_TRUE(cs.ok) << cs.error;
    EXPECT_EQ(cs.recordsIn, 3u);
    EXPECT_EQ(cs.corrupted, 2u);
    EXPECT_EQ(cs.recordsOut, 2u);
    EXPECT_LT(cs.bytesOut, cs.bytesIn);

    ResultJournal re(path);
    EXPECT_EQ(re.corruptedLines(), 0u);
    EXPECT_EQ(re.entries(), 2u);
    ASSERT_TRUE(re.lookup("fpA").has_value());
    ASSERT_TRUE(re.lookup("fpB").has_value());
    expectIdentical(sampleResult(3), *re.lookup("fpA")); // last wins
    expectIdentical(sampleResult(2), *re.lookup("fpB"));
}

TEST(Journal, CompactionIsIdempotentAndDeterministic)
{
    const std::string path = journalPath("compact_idem");
    {
        ResultJournal j(path);
        ASSERT_TRUE(j.record("zeta", sampleResult(1)));
        ASSERT_TRUE(j.record("alpha", sampleResult(2)));
        ASSERT_TRUE(j.record("zeta", sampleResult(3)));
    }
    ASSERT_TRUE(compactJournal(path).ok);
    std::ifstream in1(path, std::ios::binary);
    std::stringstream first;
    first << in1.rdbuf();

    const CompactionStats again = compactJournal(path);
    ASSERT_TRUE(again.ok);
    EXPECT_EQ(again.recordsIn, again.recordsOut);
    std::ifstream in2(path, std::ios::binary);
    std::stringstream second;
    second << in2.rdbuf();
    // Same record set -> byte-identical compacted journal (sorted by
    // fingerprint), so repeated maintenance is diff-clean.
    EXPECT_EQ(first.str(), second.str());
}

TEST(Journal, CompactionOfMissingJournalIsEmptySuccess)
{
    const std::string path = journalPath("compact_missing");
    const CompactionStats cs = compactJournal(path);
    EXPECT_TRUE(cs.ok) << cs.error;
    EXPECT_EQ(cs.recordsIn, 0u);
    EXPECT_EQ(cs.recordsOut, 0u);
    EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(Journal, CompactedJournalStillServesTheMemoPath)
{
    const std::string path = journalPath("compact_memo");
    const ExperimentConfig cfg = smallConfig();
    {
        ResultJournal j(path);
        // Two generations of the same experiment: pre-compaction the
        // file holds both, post-compaction only the latest.
        ASSERT_TRUE(j.record(cfg.fingerprint(), sampleResult(1)));
        ASSERT_TRUE(j.record(cfg.fingerprint(), sampleResult(4)));
    }
    ASSERT_TRUE(compactJournal(path).ok);
    ResultJournal re(path);
    EXPECT_EQ(re.entries(), 1u);
    ASSERT_TRUE(re.lookup(cfg.fingerprint()).has_value());
    expectIdentical(sampleResult(4), *re.lookup(cfg.fingerprint()));
}
