/**
 * @file
 * Trace record-and-replay tests: a replayed run must be byte-identical
 * to a live one, the fingerprint guard must keep stream-perturbing
 * configs apart, and overflow must pin a key to live execution.
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "core/replay.hh"
#include "mem/memory_node.hh"
#include "mem/swap_device.hh"
#include "tlb/mmu.hh"
#include "util/units.hh"
#include "vm/address_space.hh"

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

/** Every RunResult field, compared exactly (doubles bitwise). */
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

/** RAII: enable replay for one test, restore the pristine default. */
struct ReplayScope
{
    explicit ReplayScope(std::uint64_t max_bytes = 1ull << 30)
    {
        resetReplayCache();
        ReplayOptions o;
        o.enabled = true;
        o.maxTraceBytes = max_bytes;
        setReplay(o);
    }

    ~ReplayScope()
    {
        setReplay(ReplayOptions{});
        resetReplayCache();
    }
};

/** Minimal simulated machine for driving traces by hand. */
struct TraceWorld
{
    TraceWorld()
        : node(params()), swap(16_MiB, 4_KiB),
          space(node, swap, vm::ThpConfig::always()),
          mmu(space,
              tlb::Tlb("dtlb",
                       {tlb::TlbGeometry{16, 4}, tlb::TlbGeometry{8, 4}}),
              tlb::Tlb::makeUnified("stlb", 64, 8), tlb::CostModel{},
              nullptr)
    {
    }

    static mem::MemoryNode::Params
    params()
    {
        mem::MemoryNode::Params p;
        p.bytes = 16_MiB;
        p.basePageBytes = 4_KiB;
        p.hugeOrder = 6;
        return p;
    }

    mem::MemoryNode node;
    mem::SwapDevice swap;
    vm::AddressSpace space;
    tlb::Mmu mmu;
};

/**
 * Drive a mixed scalar/run stream through @p w's Mmu with a recorder
 * attached, as a live kernel would.
 */
RecordedTrace
recordMixedStream(TraceWorld &w)
{
    const Addr a = w.space.mmap(2_MiB, "arr");
    TraceRecorder rec(1ull << 30);
    w.mmu.setAccessRecorder(&rec);
    std::uint64_t x = 88172645463325252ull;
    for (int i = 0; i < 20000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const Addr addr = a + (x % (2_MiB / 8)) * 8;
        if (i % 64 == 63)
            w.mmu.translateRun(addr, 64, 8, false, 3);
        else
            w.mmu.access(addr, (x >> 20) & 1, i & 3);
    }
    w.mmu.setAccessRecorder(nullptr);
    EXPECT_FALSE(rec.overflowed());
    return rec.take(0, 0);
}

/** One decoded record, as visitRecords() reports it. */
struct Rec
{
    std::uint64_t addr = 0;
    std::uint64_t count = 0; ///< 0 for scalar records
    std::uint64_t stride = 0;
    bool write = false;
    unsigned tag = 0;

    bool
    operator==(const Rec &o) const
    {
        return addr == o.addr && count == o.count && stride == o.stride &&
               write == o.write && tag == o.tag;
    }
};

/** Visitor that collects every record it is handed. */
struct Collector
{
    std::vector<Rec> recs;

    void
    access(std::uint64_t addr, bool write, unsigned tag)
    {
        recs.push_back({addr, 0, 0, write, tag});
    }

    void
    translateRun(std::uint64_t start, std::uint64_t count,
                 std::uint64_t stride, bool write, unsigned tag)
    {
        recs.push_back({start, count, stride, write, tag});
    }
};

/** Record @p want through a TraceRecorder, bypassing any Mmu. */
RecordedTrace
recordDirect(const std::vector<Rec> &want)
{
    TraceRecorder rec(1ull << 30);
    for (const Rec &r : want) {
        if (r.count == 0)
            rec.recordAccess(r.addr, r.write, r.tag);
        else
            rec.recordRun(r.addr, r.count, r.stride, r.write, r.tag);
    }
    EXPECT_FALSE(rec.overflowed());
    return rec.take(0, 0);
}

std::vector<Rec>
decode(const RecordedTrace &trace)
{
    Collector c;
    visitRecords(*trace.packed, c);
    return c.recs;
}

/** Packed bytes of a one-record stream. */
std::uint64_t
bytesOf(const Rec &r)
{
    return recordDirect({r}).packed->byteSize();
}

} // namespace

TEST(Replay, ReplayedRunIsByteIdenticalAcrossTlbSweep)
{
    // A TLB-geometry sweep is the flagship use: the stream is
    // invariant, so every config after the recorder replays. Compare
    // against replay-disabled runs of the same configs.
    ExperimentConfig small = smallConfig();
    ExperimentConfig big = smallConfig();
    big.sys.l1Huge.entries *= 4;
    big.sys.stlbEntries *= 2;

    const RunResult live_small = runExperiment(small);
    const RunResult live_big = runExperiment(big);

    ReplayScope scope;
    const RunResult rec = runExperiment(small); // records
    const RunResult rep = runExperiment(big);   // replays

    expectIdentical(rec, live_small);
    expectIdentical(rep, live_big);
    const ReplayStats st = replayStats();
    EXPECT_EQ(st.recorded, 1u);
    EXPECT_EQ(st.replayed, 1u);
    EXPECT_EQ(st.fallbacks, 0u);
}

TEST(Replay, ReplayCoversThpPolicyAndPressure)
{
    // THP mode, madvise selection and memory pressure all change what
    // the *memory manager* does, not what the kernel touches — the
    // recorded stream must reproduce their full event cascade (faults,
    // compaction, promotions) exactly.
    ExperimentConfig base = smallConfig();
    base.thpMode = vm::ThpMode::Never;
    ExperimentConfig thp = smallConfig();
    thp.thpMode = vm::ThpMode::Always;
    ExperimentConfig tight = smallConfig();
    tight.thpMode = vm::ThpMode::Always;
    tight.constrainMemory = true;
    tight.slackBytes = 2_MiB;
    tight.fragLevel = 0.5;

    const RunResult live_base = runExperiment(base);
    const RunResult live_thp = runExperiment(thp);
    const RunResult live_tight = runExperiment(tight);

    ReplayScope scope;
    const RunResult rec = runExperiment(base);
    const RunResult rep_thp = runExperiment(thp);
    const RunResult rep_tight = runExperiment(tight);

    expectIdentical(rec, live_base);
    expectIdentical(rep_thp, live_thp);
    expectIdentical(rep_tight, live_tight);
    const ReplayStats st = replayStats();
    EXPECT_EQ(st.recorded, 1u);
    EXPECT_EQ(st.replayed, 2u);
    // The tight run must actually have exercised the pressure
    // machinery under replay, not just matched an idle baseline.
    EXPECT_GT(live_tight.compactionRuns + live_tight.swapOuts, 0u);
}

TEST(Replay, FingerprintSeparatesStreamPerturbingConfigs)
{
    // App, dataset, reorder and allocation order all change the
    // access stream; each must record its own trace, never replay
    // another's.
    ExperimentConfig a = smallConfig(App::Bfs, "kron");
    ExperimentConfig b = smallConfig(App::Pr, "kron");
    ExperimentConfig c = smallConfig(App::Bfs, "wiki");
    ExperimentConfig d = smallConfig(App::Bfs, "kron");
    d.reorder = graph::ReorderMethod::Dbg;
    ExperimentConfig e = smallConfig(App::Bfs, "kron");
    e.order = AllocOrder::PropertyFirst;

    const std::string fa = streamFingerprint(a);
    EXPECT_NE(fa, streamFingerprint(b));
    EXPECT_NE(fa, streamFingerprint(c));
    EXPECT_NE(fa, streamFingerprint(d));
    EXPECT_NE(fa, streamFingerprint(e));

    // Stream-invariant knobs must NOT change the key.
    ExperimentConfig f = smallConfig(App::Bfs, "kron");
    f.thpMode = vm::ThpMode::Always;
    f.sys.l1Huge.entries *= 4;
    f.constrainMemory = true;
    f.slackBytes = 2_MiB;
    EXPECT_EQ(fa, streamFingerprint(f));

    ReplayScope scope;
    const RunResult ra = runExperiment(a);
    const RunResult rd = runExperiment(d);
    expectIdentical(ra, runExperiment(a));
    expectIdentical(rd, runExperiment(d));
    EXPECT_EQ(replayStats().recorded, 2u);
    EXPECT_EQ(replayStats().replayed, 2u);
}

TEST(Replay, OverflowPinsConfigLiveAndStaysCorrect)
{
    // A 1KiB budget cannot hold any kernel's stream: the recorder
    // overflows, the key is pinned live, and subsequent runs neither
    // record nor replay — but still produce correct results.
    ExperimentConfig cfg = smallConfig();
    const RunResult live = runExperiment(cfg);

    ReplayScope scope(/*max_bytes=*/1024);
    const RunResult first = runExperiment(cfg);
    const RunResult second = runExperiment(cfg);

    expectIdentical(first, live);
    expectIdentical(second, live);
    const ReplayStats st = replayStats();
    EXPECT_EQ(st.recorded, 0u);
    EXPECT_EQ(st.replayed, 0u);
    // First run overflowed (pinned); the second saw the pin.
    EXPECT_EQ(st.fallbacks, 2u);
}

TEST(ReplayPacked, RoundTripsEveryFormBoundary)
{
    // Short words hold 4-aligned addresses below 2^29; everything else
    // takes the long form, and runs keep 64-bit count and stride.
    const std::uint64_t lim = 1ull << 29;
    const std::vector<Rec> want = {
        {0, 0, 0, false, 0},
        {lim - 4, 0, 0, true, 7},
        {lim, 0, 0, false, 5},
        {0x1001, 0, 0, true, 2},
        {lim - 2, 0, 0, false, 1},
        {(1ull << 32) + 8, 0, 0, true, 6},
        {~0ull - 3, 0, 0, false, 3},
        {4096, 5, 8, true, 4},
        {(1ull << 40) + 3, (1ull << 32) + 5, (1ull << 32) + 8, false, 7},
    };
    const RecordedTrace trace = recordDirect(want);
    EXPECT_EQ(trace.records, want.size());
    EXPECT_TRUE(trace.bytes.empty());
    EXPECT_EQ(decode(trace), want);

    EXPECT_EQ(bytesOf({0, 0, 0, false, 0}), 4u);
    EXPECT_EQ(bytesOf({lim - 4, 0, 0, true, 7}), 4u);
    EXPECT_EQ(bytesOf({lim, 0, 0, false, 0}), 12u);
    EXPECT_EQ(bytesOf({0x1001, 0, 0, false, 0}), 12u);
    EXPECT_EQ(bytesOf({1ull << 32, 0, 0, false, 0}), 12u);
    EXPECT_EQ(bytesOf({4096, 5, 8, false, 0}), 28u);
}

TEST(ReplayPacked, ByteSizeIsFourBytesPerWord)
{
    // 4 per short scalar, 12 per long scalar, 28 per run.
    std::vector<Rec> want;
    std::uint64_t shorts = 0, longs = 0, runs = 0;
    for (std::uint64_t i = 0; i < 1000; ++i) {
        if (i % 10 == 9) {
            want.push_back({i * 64, i + 1, 8, false, 1});
            ++runs;
        } else if (i % 10 == 4) {
            want.push_back({(1ull << 33) + i * 8, 0, 0, true, 2});
            ++longs;
        } else {
            want.push_back({i * 8, 0, 0, false, 0});
            ++shorts;
        }
    }
    const RecordedTrace trace = recordDirect(want);
    EXPECT_EQ(trace.packed->byteSize(), 4 * shorts + 12 * longs + 28 * runs);
    EXPECT_EQ(compiledLookup("k", trace), trace.packed);
    EXPECT_EQ(compileTrace(trace).byteSize(), trace.packed->byteSize());
}

TEST(ReplayPacked, MultiWordRecordsNeverStraddleChunks)
{
    // A long record that finds two free words in a chunk, and a run
    // that finds six, each open the next chunk; a long record that
    // finds exactly three fills its chunk to the last word.
    const std::size_t cw = CompiledTrace::chunkWords;
    std::vector<Rec> want;
    auto shorts = [&](std::size_t n) {
        for (std::size_t i = 0; i < n; ++i)
            want.push_back({(i % 4096) * 4, 0, 0, i % 3 == 0,
                            static_cast<unsigned>(i % 8)});
    };
    shorts(cw - 2);
    want.push_back({1ull << 30, 0, 0, true, 1});
    shorts(cw - 3 - 6);
    want.push_back({8192, 1ull << 33, 16, false, 2});
    shorts(cw - 7 - 3);
    want.push_back({(1ull << 31) + 1, 0, 0, false, 3});
    shorts(1);

    const RecordedTrace trace = recordDirect(want);
    const auto &chunks = trace.packed->chunks;
    ASSERT_EQ(chunks.size(), 4u);
    EXPECT_EQ(chunks[0].size(), cw - 2);
    EXPECT_EQ(chunks[1].size(), cw - 6);
    EXPECT_EQ(chunks[2].size(), cw);
    EXPECT_EQ(chunks[3].size(), 1u);
    EXPECT_EQ(trace.packed->byteSize(), 4 * (3 * cw - 8 + 1));
    EXPECT_EQ(decode(trace), want);
}

TEST(ReplayPacked, DispatchMatchesLiveMmuCalls)
{
    // Replaying the packed stream on a twin machine drives its Mmu to
    // the same counters as the live calls that recorded it.
    TraceWorld live_w;
    TraceWorld replay_w;
    const RecordedTrace trace = recordMixedStream(live_w);
    // Identical construction order gives the twin the same layout, so
    // the recorded vaddrs resolve to the same mapping.
    (void)replay_w.space.mmap(2_MiB, "arr");
    replayCompiled(*trace.packed, replay_w.mmu);

    EXPECT_EQ(trace.records, 20000u);
    EXPECT_EQ(live_w.mmu.accesses.value(), replay_w.mmu.accesses.value());
    EXPECT_EQ(live_w.mmu.accesses.value(),
              trace.records + 63 * (trace.records / 64));
    EXPECT_EQ(live_w.mmu.dtlbMisses.value(),
              replay_w.mmu.dtlbMisses.value());
    EXPECT_EQ(live_w.mmu.stlbHits.value(), replay_w.mmu.stlbHits.value());
    EXPECT_EQ(live_w.mmu.walks.value(), replay_w.mmu.walks.value());
    EXPECT_EQ(live_w.mmu.walksBase.value(),
              replay_w.mmu.walksBase.value());
    EXPECT_EQ(live_w.mmu.walksHuge.value(),
              replay_w.mmu.walksHuge.value());
    EXPECT_EQ(live_w.mmu.baseCycles.value(),
              replay_w.mmu.baseCycles.value());
    EXPECT_EQ(live_w.mmu.memoryCycles.value(),
              replay_w.mmu.memoryCycles.value());
    EXPECT_EQ(live_w.mmu.translationCycles.value(),
              replay_w.mmu.translationCycles.value());
    EXPECT_EQ(live_w.mmu.faultCycles.value(),
              replay_w.mmu.faultCycles.value());
    EXPECT_EQ(live_w.mmu.osCycles.value(), replay_w.mmu.osCycles.value());
}

TEST(ReplayPacked, BudgetOverflowFreesStreamAndPinsKeyLive)
{
    // A 64-byte budget holds 16 short words. The 17th overflows: the
    // recorder frees its partial stream at once, ignores the rest of
    // the kernel, and the protocol pins the key live.
    TraceRecorder rec(64);
    for (int i = 0; i < 16; ++i)
        rec.recordAccess(4096 + 8 * i, false, 0);
    EXPECT_FALSE(rec.overflowed());
    EXPECT_GT(rec.heldBytes(), 0u);
    rec.recordAccess(4096, false, 0);
    EXPECT_TRUE(rec.overflowed());
    EXPECT_EQ(rec.heldBytes(), 0u);
    rec.recordRun(4096, 8, 8, false, 0);
    EXPECT_EQ(rec.heldBytes(), 0u);

    TraceWorld w;
    const Addr a = w.space.mmap(2_MiB, "arr");
    const ExperimentConfig cfg = smallConfig();
    const std::string key = streamFingerprint(cfg);
    ReplayScope scope(/*max_bytes=*/64);
    int live_runs = 0;
    auto live = [&] {
        ++live_runs;
        for (int i = 0; i < 17; ++i)
            w.mmu.access(a + 8 * i, false, 0);
        return KernelOutcome{7, 9};
    };
    const KernelOutcome first = replayOrRun(cfg, w.mmu, live);
    EXPECT_EQ(first.output, 7u);
    EXPECT_EQ(replayLookup(key), nullptr);
    EXPECT_FALSE(replayClaimRecording(key));
    const KernelOutcome second = replayOrRun(cfg, w.mmu, live);
    EXPECT_EQ(second.checksum, 9u);
    EXPECT_EQ(live_runs, 2);
    const ReplayStats st = replayStats();
    EXPECT_EQ(st.recorded, 0u);
    EXPECT_EQ(st.replayed, 0u);
    EXPECT_EQ(st.fallbacks, 2u);
    EXPECT_EQ(w.mmu.accesses.value(), 34u);
}
