#include "stage_driver.hh"

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "core/kernels.hh"
#include "core/machine.hh"
#include "core/views.hh"
#include "mem/fragmenter.hh"
#include "mem/memhog.hh"
#include "timing.hh"
#include "util/bitops.hh"

namespace perfbench
{

using gpsm::core::App;
using gpsm::core::ExperimentConfig;
using gpsm::core::RunResult;

namespace
{

struct MmuSnap
{
    std::uint64_t accesses, dtlbMisses, stlbHits, walks, total;

    static MmuSnap
    take(const gpsm::tlb::Mmu &mmu)
    {
        return MmuSnap{mmu.accesses.value(), mmu.dtlbMisses.value(),
                      mmu.stlbHits.value(), mmu.walks.value(),
                      mmu.baseCycles.value() + mmu.memoryCycles.value() +
                          mmu.translationCycles.value() +
                          mmu.faultCycles.value() + mmu.osCycles.value() +
                          mmu.ioCycles.value()};
    }
};

void
requireSupported(const ExperimentConfig &cfg)
{
    if (cfg.sys.numaEnabled() || !cfg.faultPlan.empty() ||
        cfg.giantProperty || cfg.khugepagedDuringKernel ||
        cfg.pressureNode != gpsm::core::PressureNode::Local) {
        throw std::invalid_argument(
            "stage driver does not model config " + cfg.label());
    }
}

} // namespace

StagedRun
runStaged(const ExperimentConfig &cfg, const gpsm::graph::CsrGraph &g,
          const KernelPlan &plan)
{
    requireSupported(cfg);
    StagedRun run;
    RunResult &res = run.result;
    StageTimes &t = run.times;

    gpsm::vm::ThpConfig thp;
    switch (cfg.thpMode) {
      case gpsm::vm::ThpMode::Never:
        thp = gpsm::vm::ThpConfig::never();
        break;
      case gpsm::vm::ThpMode::Always:
        thp = gpsm::vm::ThpConfig::always();
        break;
      case gpsm::vm::ThpMode::Madvise:
        thp = gpsm::vm::ThpConfig::madvise();
        break;
    }
    thp.khugepagedEnabled =
        thp.mode != gpsm::vm::ThpMode::Never && cfg.khugepagedAfterInit;
    thp.khugepagedMinPresent = cfg.khugepagedMinPresent;
    thp.khugepagedScanPages = cfg.khugepagedScanPages;
    thp.khugepagedHotFirst = cfg.khugepagedHotFirst;
    thp.hugeFaultRetries = cfg.hugeFaultRetries;

    const std::uint64_t wss = gpsm::core::workingSetBytes(cfg);
    gpsm::core::SystemConfig sys = cfg.sys;
    if (cfg.oocRatio != 0.0) {
        // runExperiment's node shrink: footprint / DRAM = oocRatio,
        // floored at 8 huge pages, watermark clamped to an eighth.
        sys.fileBackedCsr = true;
        sys.fileCacheEviction = cfg.oocEviction;
        const std::uint64_t huge = sys.hugePageBytes();
        std::uint64_t bytes = gpsm::alignUp(
            static_cast<std::uint64_t>(static_cast<double>(wss) /
                                       cfg.oocRatio),
            huge);
        bytes = std::max(bytes, 8 * huge);
        sys.node.bytes = bytes;
        sys.node.hugeWatermarkBytes =
            std::min(sys.node.hugeWatermarkBytes, bytes / 8);
    }

    auto machine_ptr = timed(t.machine, [&] {
        return std::make_unique<gpsm::core::SimMachine>(sys, thp);
    });
    gpsm::core::SimMachine &machine = *machine_ptr;

    gpsm::mem::Memhog memhog(machine.node());
    gpsm::mem::Fragmenter fragmenter(machine.node());
    timed(t.age, [&] {
        if (cfg.constrainMemory) {
            const std::int64_t target =
                static_cast<std::int64_t>(wss) + cfg.slackBytes;
            const std::int64_t floor =
                static_cast<std::int64_t>(cfg.sys.hugePageBytes());
            memhog.occupyAllBut(
                static_cast<std::uint64_t>(std::max(target, floor)));
        }
        if (cfg.fragLevel > 0.0)
            fragmenter.fragment(cfg.fragLevel);
    });

    gpsm::tlb::Mmu &mmu = machine.mmu();
    const MmuSnap before_init = MmuSnap::take(mmu);
    MmuSnap before_kernel{};
    KernelAnswer answer;

    auto stages = [&](auto prop_tag) {
        using PropT = decltype(prop_tag);
        typename gpsm::core::SimView<PropT>::Options vopts;
        vopts.order = cfg.order;
        vopts.needValues = cfg.app == App::Sssp;
        vopts.needAux = cfg.app == App::Pr;
        vopts.fileSource = cfg.fileSource;
        gpsm::core::SimView<PropT> view(machine, g, vopts);
        if (cfg.thpMode == gpsm::vm::ThpMode::Madvise) {
            if (cfg.madvise.vertex)
                view.adviseVertexArray();
            if (cfg.madvise.edge)
                view.adviseEdgeArray();
            if (cfg.madvise.values && cfg.app == App::Sssp)
                view.adviseValuesArray();
            if (cfg.madvise.propertyFraction > 0.0)
                view.advisePropertyFraction(cfg.madvise.propertyFraction);
        }
        timed(t.load, [&] { view.load(initialProperty<PropT>(g, cfg)); });
        if (cfg.khugepagedAfterInit)
            timed(t.khugepaged, [&] { machine.runKhugepaged(); });

        res.footprintBytes = machine.space().footprintBytes();
        res.hugeBackedBytes = machine.space().hugeBackedBytes();
        before_kernel = MmuSnap::take(mmu);

        if (plan.replay != nullptr) {
            timed(t.kernel,
                  [&] { gpsm::core::replayCompiled(*plan.replay, mmu); });
            answer = plan.replayAnswer;
        } else {
            mmu.setAccessRecorder(plan.recorder);
            try {
                answer = timed(t.kernel,
                               [&] { return runKernel<PropT>(view, g, cfg); });
            } catch (...) {
                mmu.setAccessRecorder(nullptr);
                throw;
            }
            mmu.setAccessRecorder(nullptr);
        }
    };
    if (cfg.app == App::Pr)
        stages(double{});
    else
        stages(std::uint64_t{});

    const MmuSnap after = MmuSnap::take(mmu);
    res.initSeconds = sys.costs.seconds(before_kernel.total -
                                        before_init.total);
    res.kernelSeconds = sys.costs.seconds(after.total - before_kernel.total);
    res.accesses = after.accesses - before_kernel.accesses;
    res.dtlbMisses = after.dtlbMisses - before_kernel.dtlbMisses;
    res.stlbHits = after.stlbHits - before_kernel.stlbHits;
    res.walks = after.walks - before_kernel.walks;

    const gpsm::vm::AddressSpace &space = machine.space();
    res.hugeFaults = space.hugeFaults.value();
    res.minorFaults = space.minorFaults.value();
    res.majorFaults = space.majorFaults.value();
    res.swapOuts = space.swapOutPages.value();
    res.promotions = space.promotions.value();
    res.hugeFallbacks = space.hugeFallbacks.value();
    res.compactionRuns = machine.node().compactionRuns.value();
    res.compactionPagesMigrated =
        machine.node().compactionPagesMigrated.value();
    if (sys.fileBackedCsr) {
        const gpsm::mem::AddressSpaceCache &fc = machine.fileCache();
        res.fileReads = fc.storageReads.value();
        res.fileWritebacks = fc.writebacks.value();
        res.fileEvictions = fc.evictions.value();
    }
    res.checksum = answer.checksum;
    res.kernelOutput = answer.output;
    return run;
}

std::string
compareResults(const RunResult &want, const RunResult &got)
{
    std::ostringstream os;
    auto check = [&os](const char *name, auto a, auto b) {
        if (os.tellp() == 0 && !(a == b))
            os << name << ": want " << a << ", got " << b;
    };
    check("accesses", want.accesses, got.accesses);
    check("dtlbMisses", want.dtlbMisses, got.dtlbMisses);
    check("stlbHits", want.stlbHits, got.stlbHits);
    check("walks", want.walks, got.walks);
    check("initSeconds", want.initSeconds, got.initSeconds);
    check("kernelSeconds", want.kernelSeconds, got.kernelSeconds);
    check("hugeFaults", want.hugeFaults, got.hugeFaults);
    check("minorFaults", want.minorFaults, got.minorFaults);
    check("majorFaults", want.majorFaults, got.majorFaults);
    check("swapOuts", want.swapOuts, got.swapOuts);
    check("promotions", want.promotions, got.promotions);
    check("hugeFallbacks", want.hugeFallbacks, got.hugeFallbacks);
    check("compactionRuns", want.compactionRuns, got.compactionRuns);
    check("compactionPagesMigrated", want.compactionPagesMigrated,
          got.compactionPagesMigrated);
    check("footprintBytes", want.footprintBytes, got.footprintBytes);
    check("hugeBackedBytes", want.hugeBackedBytes, got.hugeBackedBytes);
    check("fileReads", want.fileReads, got.fileReads);
    check("fileWritebacks", want.fileWritebacks, got.fileWritebacks);
    check("fileEvictions", want.fileEvictions, got.fileEvictions);
    check("checksum", want.checksum, got.checksum);
    check("kernelOutput", want.kernelOutput, got.kernelOutput);
    return os.str();
}

LayerSample
tracedPass(const Workload &w,
           const std::vector<const gpsm::graph::CsrGraph *> &bases)
{
    LayerSample s;
    gpsm::core::resetReplayCache();
    gpsm::core::ReplayOptions ropts;
    ropts.enabled = w.replay;
    gpsm::core::setReplay(ropts);
    // Stream bytes the replay cache holds (recorded + compiled).
    std::map<std::string, std::uint64_t> held;

    for (std::size_t i = 0; i < w.configs.size(); ++i) {
        const ExperimentConfig &cfg = w.configs[i];
        const Clock::time_point start = Clock::now();

        gpsm::graph::CsrGraph reordered;
        if (cfg.reorder != gpsm::graph::ReorderMethod::None) {
            reordered = timed(s.reorder,
                              [&] { return experimentGraph(*bases[i], cfg); });
        }
        const gpsm::graph::CsrGraph &g =
            cfg.reorder != gpsm::graph::ReorderMethod::None ? reordered
                                                            : *bases[i];

        // runExperiment's replay protocol: replay a published stream,
        // else record it if this run wins the claim.
        KernelPlan plan;
        std::string key;
        std::shared_ptr<const gpsm::core::RecordedTrace> published;
        std::shared_ptr<const gpsm::core::CompiledTrace> compiled;
        std::unique_ptr<gpsm::core::TraceRecorder> recorder;
        bool claimed = false;
        if (w.replay) {
            key = gpsm::core::streamFingerprint(cfg);
            published = gpsm::core::replayLookup(key);
            if (published) {
                compiled = timed(s.decode, [&] {
                    return gpsm::core::compiledLookup(key, *published);
                });
                if (!compiled)
                    throw std::runtime_error("stream too large to compile");
                plan.replay = compiled.get();
                plan.replayAnswer = {published->checksum,
                                     published->kernelOutput};
            } else {
                claimed = gpsm::core::replayClaimRecording(key);
                if (!claimed)
                    gpsm::core::noteReplayFallback();
            }
        }
        if (claimed) {
            recorder = std::make_unique<gpsm::core::TraceRecorder>(
                gpsm::core::replayOptions().maxTraceBytes);
            plan.recorder = recorder.get();
        }

        StagedRun run;
        try {
            run = runStaged(cfg, g, plan);
        } catch (...) {
            if (claimed)
                gpsm::core::replayAbandon(key, /*pin_live=*/false);
            throw;
        }
        if (claimed) {
            if (recorder->overflowed()) {
                gpsm::core::replayAbandon(key, /*pin_live=*/true);
            } else {
                published = std::make_shared<gpsm::core::RecordedTrace>(
                    recorder->take(run.result.kernelOutput,
                                   run.result.checksum));
                gpsm::core::replayPublish(key, published);
            }
        }
        s.wall += since(start);

        s.machine += run.times.machine;
        s.age += run.times.age;
        s.load += run.times.load;
        s.khugepaged += run.times.khugepaged;
        ++s.configs;
        if (plan.replay != nullptr) {
            s.replayDispatch += run.times.kernel;
            s.dispatch += run.times.kernel;
        } else {
            s.kernel += run.times.kernel;
            s.liveAccesses += run.result.accesses;
        }

        // Dispatch measurements on fresh, identically loaded machines.
        // A live config without a published stream records one first,
        // on a machine of its own, so the timed kernel above ran bare.
        if (!published) {
            gpsm::core::TraceRecorder rec(
                gpsm::core::replayOptions().maxTraceBytes);
            KernelPlan record_plan;
            record_plan.recorder = &rec;
            const StagedRun again = runStaged(cfg, g, record_plan);
            if (rec.overflowed())
                throw std::runtime_error(cfg.label() +
                                         ": stream exceeds the trace budget");
            const std::string diff = compareResults(run.result, again.result);
            if (!diff.empty() && s.error.empty())
                s.error = cfg.label() + " recording run: " + diff;
            published = std::make_shared<gpsm::core::RecordedTrace>(
                rec.take(again.result.kernelOutput, again.result.checksum));
        }
        if (w.replay) {
            held[key] = published->bytes.size() +
                        (compiled ? compiled->byteSize() : 0);
        }
        gpsm::core::CompiledTrace own;
        const gpsm::core::CompiledTrace *stream = compiled.get();
        if (stream == nullptr) {
            own = gpsm::core::compileTrace(*published);
            stream = &own;
        }
        KernelPlan replay_plan;
        replay_plan.replay = stream;
        replay_plan.replayAnswer = {published->checksum,
                                    published->kernelOutput};
        if (plan.replay == nullptr) {
            const StagedRun fresh = runStaged(cfg, g, replay_plan);
            const std::string diff = compareResults(run.result, fresh.result);
            if (!diff.empty() && s.error.empty())
                s.error = cfg.label() + " fresh replay: " + diff;
            s.dispatch += fresh.times.kernel;
            s.liveDispatch += fresh.times.kernel;
        }
        ExperimentConfig no_cache = cfg;
        no_cache.sys.enableCache = false;
        s.dispatchNoCache += runStaged(no_cache, g, replay_plan).times.kernel;

        s.results.push_back(run.result);
    }
    for (const auto &[key, bytes] : held)
        s.traceBytes += bytes;
    s.replayed = gpsm::core::replayStats().replayed;
    return s;
}

} // namespace perfbench
