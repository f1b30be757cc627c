/**
 * @file
 * Experiment harness implementation.
 */

#include "core/experiment.hh"

#include <algorithm>
#include <cmath>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "core/kernels.hh"
#include "core/machine.hh"
#include "core/metrics.hh"
#include "core/replay.hh"
#include "core/views.hh"
#include "fault/fault_session.hh"
#include "graph/datasets.hh"
#include "mem/fragmenter.hh"
#include "mem/memhog.hh"
#include "obs/events.hh"
#include "obs/profiler.hh"
#include "obs/telemetry.hh"
#include "util/bitops.hh"
#include "util/logging.hh"

namespace gpsm::core
{

const char *
appName(App app)
{
    switch (app) {
      case App::Bfs: return "bfs";
      case App::Sssp: return "sssp";
      case App::Pr: return "pr";
      case App::Cc: return "cc";
    }
    return "?";
}

const char *
pressureNodeName(PressureNode p)
{
    switch (p) {
      case PressureNode::Local: return "local";
      case PressureNode::Remote: return "remote";
      case PressureNode::Both: return "both";
    }
    return "?";
}

std::string
ExperimentConfig::label() const
{
    std::ostringstream os;
    os << appName(app) << '/' << dataset << ' '
       << vm::thpModeName(thpMode);
    if (thpMode == vm::ThpMode::Madvise) {
        os << "(prop " << static_cast<int>(
            madvise.propertyFraction * 100) << "%";
        if (madvise.vertex)
            os << "+vtx";
        if (madvise.edge)
            os << "+edge";
        if (madvise.values)
            os << "+val";
        os << ')';
    }
    os << ' ' << allocOrderName(order);
    if (reorder != graph::ReorderMethod::None)
        os << ' ' << graph::reorderMethodName(reorder);
    if (constrainMemory)
        os << " slack=" << slackBytes / (1024 * 1024) << "MiB";
    if (fragLevel > 0.0)
        os << " frag=" << static_cast<int>(fragLevel * 100) << '%';
    if (oocRatio != 0.0) {
        os << " ooc=" << oocRatio << 'x'
           << mem::evictionKindName(oocEviction);
    }
    if (sys.numaEnabled()) {
        os << ' ' << numaPlacementName(sys.numaPlacement);
        if (pressureNode != PressureNode::Local)
            os << " hog=" << pressureNodeName(pressureNode);
    }
    return os.str();
}

std::string
ExperimentConfig::fingerprint() const
{
    std::ostringstream os;
    os << std::hexfloat;
    os << static_cast<int>(app) << '|' << dataset << '|'
       << scaleDivisor << '|' << seed << '|'
       << static_cast<int>(reorder) << '|'
       << static_cast<int>(thpMode) << '|' << madvise.vertex
       << madvise.edge << madvise.values << ','
       << madvise.propertyFraction << '|' << static_cast<int>(order)
       << '|' << khugepagedAfterInit << ',' << khugepagedMinPresent
       << ',' << khugepagedScanPages << ',' << khugepagedHotFirst
       << ',' << khugepagedDuringKernel << ','
       << khugepagedIntervalAccesses << '|' << constrainMemory << ','
       << slackBytes << '|' << fragLevel << '|'
       << static_cast<int>(fileSource) << '|' << giantProperty << '|'
       << prMaxIters << ',' << prDamping << ',' << prEpsilon << ','
       << ssspDelta << ',' << ccMaxIters << '|' << hugeFaultRetries
       << '|' << faultPlan.fingerprint() << '|' << sys.fingerprint();
    // Appended only when non-default so every pre-NUMA fingerprint —
    // and with it every memo key, journal entry and runId — is
    // preserved byte-for-byte.
    if (pressureNode != PressureNode::Local)
        os << "|hog" << static_cast<int>(pressureNode);
    if (oocRatio != 0.0) {
        os << "|ooc" << oocRatio << ','
           << static_cast<int>(oocEviction);
    }
    return os.str();
}

namespace
{

/** Working-set bytes for a built graph under one app. */
std::uint64_t
wssOf(const graph::CsrGraph &g, App app)
{
    const std::uint64_t n = g.numNodes();
    const std::uint64_t m = g.numEdges();
    std::uint64_t bytes = (n + 1) * sizeof(graph::EdgeIdx) +
                          m * sizeof(graph::NodeId) +
                          n * 8 /* property */;
    if (app == App::Sssp)
        bytes += m * sizeof(graph::Weight);
    if (app == App::Pr)
        bytes += n * 8; // aux rank accumulators
    return bytes;
}

/** Modeled preprocessing cost (paper §5.1.2). */
double
preprocessSeconds(const graph::CsrGraph &g, graph::ReorderMethod method,
                  const tlb::CostModel &costs)
{
    const double n = g.numNodes();
    const double m = g.numEdges();
    double work_cycles = 0.0;
    switch (method) {
      case graph::ReorderMethod::None:
        return 0.0;
      case graph::ReorderMethod::Dbg:
        // Three linear traversals (degree pass is edge-sized).
        work_cycles = 3.0 * static_cast<double>(
            graph::dbgTraversalWork(g));
        break;
      case graph::ReorderMethod::SortByDegree:
        work_cycles = m + 10.0 * n * std::log2(std::max(n, 2.0));
        break;
      case graph::ReorderMethod::HubSort:
        work_cycles = m + 4.0 * n;
        break;
      case graph::ReorderMethod::Random:
        work_cycles = 4.0 * n;
        break;
    }
    // Relabeling rewrites the edge array once.
    work_cycles += 2.0 * m;
    return work_cycles / (costs.frequencyGhz * 1e9);
}

/** Point-in-time copy of the Mmu accounting counters. */
struct MmuSnap
{
    std::uint64_t accesses, dtlbMisses, stlbHits, walks;
    std::uint64_t base, memory, translation, fault, os, io;

    static MmuSnap
    take(const tlb::Mmu &mmu)
    {
        return MmuSnap{mmu.accesses.value(),
                       mmu.dtlbMisses.value(),
                       mmu.stlbHits.value(),
                       mmu.walks.value(),
                       mmu.baseCycles.value(),
                       mmu.memoryCycles.value(),
                       mmu.translationCycles.value(),
                       mmu.faultCycles.value(),
                       mmu.osCycles.value(),
                       mmu.ioCycles.value()};
    }

    std::uint64_t
    totalCycles() const
    {
        return base + memory + translation + fault + os + io;
    }
};

/** Kernel dispatch result. */
struct KernelOutcome
{
    std::uint64_t output = 0;
    std::uint64_t checksum = 0;
};

/**
 * Tiny dataset cache: figure benches sweep many policies over the same
 * graph, and regeneration dominates wall-clock otherwise. Keyed by
 * (dataset, divisor, weighted, seed); bounded to a few entries.
 *
 * Thread-safe for ExperimentPool workers: entries are shared_ptrs (an
 * evicted graph stays alive while a running experiment holds it) and
 * concurrent first requests for the same key are single-flighted
 * through a shared_future so the graph is generated exactly once.
 */
std::shared_ptr<const graph::CsrGraph>
cachedDataset(const std::string &name, std::uint64_t divisor,
              bool weighted, std::uint64_t seed)
{
    using GraphPtr = std::shared_ptr<const graph::CsrGraph>;
    struct Entry
    {
        std::string key;
        std::shared_future<GraphPtr> graph;
    };
    static std::mutex mtx;
    static std::vector<Entry> cache;

    std::ostringstream os;
    os << name << '/' << divisor << '/' << weighted << '/' << seed;
    const std::string key = os.str();

    std::promise<GraphPtr> promise;
    std::shared_future<GraphPtr> future;
    {
        std::lock_guard<std::mutex> lock(mtx);
        for (const Entry &e : cache)
            if (e.key == key)
                return e.graph.get();
        if (cache.size() >= 8)
            cache.erase(cache.begin());
        future = promise.get_future().share();
        cache.push_back(Entry{key, future});
    }
    // Generate outside the lock; other threads wanting other datasets
    // proceed, threads wanting this one block on the future.
    try {
        promise.set_value(std::make_shared<const graph::CsrGraph>(
            graph::makeDataset(graph::datasetByName(name), divisor,
                               weighted, seed)));
    } catch (...) {
        // Evict the poisoned entry before propagating: concurrent
        // waiters see this exception, but later requests for the same
        // key must regenerate rather than rethrow forever.
        promise.set_exception(std::current_exception());
        std::lock_guard<std::mutex> lock(mtx);
        for (auto it = cache.begin(); it != cache.end(); ++it) {
            if (it->key == key) {
                cache.erase(it);
                break;
            }
        }
    }
    return future.get();
}

} // anonymous namespace

std::uint64_t
workingSetBytes(const ExperimentConfig &cfg)
{
    const auto g = cachedDataset(cfg.dataset, cfg.scaleDivisor,
                                 cfg.app == App::Sssp, cfg.seed);
    return wssOf(*g, cfg.app);
}

RunResult
runExperiment(const ExperimentConfig &cfg,
              const std::atomic<bool> *cancel)
{
    RunResult res;

    const auto check_cancel = [cancel](const char *where) {
        if (cancel != nullptr &&
            cancel->load(std::memory_order_relaxed)) {
            throw CancelledError(std::string("experiment cancelled ") +
                                 where);
        }
    };
    check_cancel("before dataset generation");

    // Host-side phase timing (opt-in, see obs/profiler.hh): scopes are
    // no-ops while profiling is off, and the breakdown only ever lands
    // in profiler-specific outputs, so a dormant profiler leaves every
    // byte of the run unchanged.
    obs::profBeginRun();
    obs::ProfScope prof_build(obs::ProfPhase::Build);

    // 1. Build the dataset (this models reading the input files; the
    //    graph itself lives host-side until loaded into the view).
    const auto base_graph_ptr = cachedDataset(
        cfg.dataset, cfg.scaleDivisor, cfg.app == App::Sssp, cfg.seed);
    const graph::CsrGraph &base_graph = *base_graph_ptr;
    check_cancel("before preprocessing");

    // 2. Preprocess (DBG etc.) — performed separately so it does not
    //    disturb huge-page availability (§5.1.2), with its runtime
    //    charged to the configuration.
    graph::CsrGraph reordered;
    const graph::CsrGraph *gp = &base_graph;
    if (cfg.reorder != graph::ReorderMethod::None) {
        res.preprocessSeconds =
            preprocessSeconds(base_graph, cfg.reorder, cfg.sys.costs);
        const auto mapping =
            graph::reorderMapping(base_graph, cfg.reorder, cfg.seed);
        reordered = graph::applyMapping(base_graph, mapping);
        gp = &reordered;
    }
    const graph::CsrGraph &g = *gp;
    prof_build.stop();
    obs::ProfScope prof_load(obs::ProfPhase::Load);

    // 3. Assemble the machine with the requested THP policy.
    vm::ThpConfig thp;
    switch (cfg.thpMode) {
      case vm::ThpMode::Never:
        thp = vm::ThpConfig::never();
        break;
      case vm::ThpMode::Always:
        thp = vm::ThpConfig::always();
        break;
      case vm::ThpMode::Madvise:
        thp = vm::ThpConfig::madvise();
        break;
    }
    thp.khugepagedEnabled =
        thp.mode != vm::ThpMode::Never && cfg.khugepagedAfterInit;
    thp.khugepagedMinPresent = cfg.khugepagedMinPresent;
    thp.khugepagedScanPages = cfg.khugepagedScanPages;
    thp.khugepagedHotFirst = cfg.khugepagedHotFirst;
    thp.hugeFaultRetries = cfg.hugeFaultRetries;

    SystemConfig sys = cfg.sys;
    if (cfg.giantProperty && sys.node.giantPoolPages == 0) {
        // Auto-size the boot-time reservation to cover the property
        // (+aux) arrays, each rounded up to whole giant pages.
        if (sys.node.giantOrder == 0)
            fatal("giantProperty requires a giant page size");
        const std::uint64_t giant_bytes = sys.node.basePageBytes
                                          << sys.node.giantOrder;
        const std::uint64_t prop_bytes =
            static_cast<std::uint64_t>(g.numNodes()) * 8;
        sys.node.giantPoolPages =
            divCeil(prop_bytes, giant_bytes) *
            (cfg.app == App::Pr ? 2 : 1);
    }

    if (cfg.oocRatio != 0.0) {
        // Out-of-core mode: back CSR storage with file mappings and
        // shrink the node so footprint / DRAM equals oocRatio. The
        // floor of 8 huge pages keeps the buddy allocator, watermark
        // and khugepaged viable at extreme ratios; the watermark is
        // clamped so huge reservations cannot starve base faults on
        // the shrunken node. A giant pool is pinned at boot, outside
        // the page cache's reach, so its bytes come on top.
        if (cfg.oocRatio < 0.0)
            fatal("oocRatio must be positive (got %g)", cfg.oocRatio);
        sys.fileBackedCsr = true;
        sys.fileCacheEviction = cfg.oocEviction;
        const std::uint64_t huge = sys.hugePageBytes();
        std::uint64_t bytes = alignUp(
            static_cast<std::uint64_t>(
                static_cast<double>(wssOf(g, cfg.app)) /
                cfg.oocRatio),
            huge);
        bytes = std::max(bytes, 8 * huge);
        sys.node.bytes = bytes + (sys.node.giantPoolPages
                                  << sys.node.giantOrder) *
                                     sys.node.basePageBytes;
        sys.node.hugeWatermarkBytes =
            std::min(sys.node.hugeWatermarkBytes, bytes / 8);
    }

    SimMachine machine(sys, thp);
    if (cfg.khugepagedDuringKernel && thp.khugepagedEnabled)
        machine.enableKhugepagedDuringExecution(
            cfg.khugepagedIntervalAccesses);
    machine.mmu().setCancelFlag(cancel);

    // The fault session (when a plan is declared) installs the node,
    // swap and MMU hooks for this machine's lifetime. Declared after
    // the machine so it uninstalls and releases its hogs first.
    std::optional<fault::FaultSession> faults;
    if (!cfg.faultPlan.empty()) {
        faults.emplace(cfg.faultPlan, cfg.seed, machine.node(),
                       machine.swapDevice(), machine.mmu());
    }

    // 4. Age the machine: memhog pins memory down to WSS + slack, then
    //    the frag tool poisons the remaining free memory (§4.3-4.4).
    //    On a two-node machine pressureNode picks the target node(s);
    //    the Local default touches only node 0, exactly as before.
    if (cfg.pressureNode != PressureNode::Local &&
        !cfg.sys.numaEnabled()) {
        fatal("pressureNode '%s' requires a two-node machine "
              "(sys.node1.bytes != 0)",
              pressureNodeName(cfg.pressureNode));
    }
    const bool pressure_local = cfg.pressureNode != PressureNode::Remote;
    const bool pressure_remote = cfg.pressureNode != PressureNode::Local;
    mem::Memhog memhog(machine.node());
    mem::Fragmenter fragmenter(machine.node());
    std::optional<mem::Memhog> memhog1;
    std::optional<mem::Fragmenter> fragmenter1;
    if (pressure_remote) {
        memhog1.emplace(*machine.remoteNode());
        fragmenter1.emplace(*machine.remoteNode());
    }
    const std::uint64_t wss = wssOf(g, cfg.app);
    if (cfg.constrainMemory) {
        const std::int64_t target =
            static_cast<std::int64_t>(wss) + cfg.slackBytes;
        // Oversubscribing beyond the entire working set would leave
        // demand paging with neither a free frame nor a resident
        // victim to swap (the hog's pages are pinned), so the first
        // fault dies. Keep one huge page of headroom: the run still
        // thrashes — the paper's oversubscription regime — but can
        // make progress.
        const std::int64_t floor =
            static_cast<std::int64_t>(cfg.sys.hugePageBytes());
        const std::uint64_t leave =
            static_cast<std::uint64_t>(std::max(target, floor));
        if (pressure_local)
            memhog.occupyAllBut(leave);
        if (pressure_remote)
            memhog1->occupyAllBut(leave);
    }
    if (cfg.fragLevel > 0.0) {
        if (pressure_local)
            fragmenter.fragment(cfg.fragLevel);
        if (pressure_remote)
            fragmenter1->fragment(cfg.fragLevel);
    }

    // 5/6. Load and execute, separating init- and kernel-phase costs.
    tlb::Mmu &mmu = machine.mmu();

    // Telemetry session (opt-in): a trace sink plus, when sampling is
    // requested, a StatSet sampler clocked on the MMU access counter.
    // Hooks are installed only here and released on every exit path
    // (the guard covers cancellation unwind), so a run without
    // telemetry stays bit-identical to a build without this layer.
    //
    // The live event stream rides the same hook plumbing: when a
    // subscriber is attached (gpsm_serve "subscribe"), a
    // RunEventPublisher — alone or tee'd with the TraceSink — turns
    // the identical trace events into gpsm-event-v1 records. Whether
    // anyone listens is sampled once at run start so the event set a
    // subscriber sees for one run is all-or-nothing.
    std::optional<obs::TraceSink> trace;
    std::optional<obs::TimeSeriesSampler> sampler;
    std::optional<obs::RunEventPublisher> live;
    std::optional<obs::TeeTraceHook> tee;
    struct HookGuard
    {
        SimMachine *machine = nullptr;
        fault::FaultSession *session = nullptr;

        void
        release()
        {
            if (machine == nullptr)
                return;
            machine->space().setTraceHook(nullptr);
            machine->node().setTraceHook(nullptr);
            machine->mmu().setSampleHook(0, nullptr);
            if (session != nullptr)
                session->setTraceHook(nullptr);
            machine = nullptr;
            session = nullptr;
        }

        ~HookGuard() { release(); }
    } hooks;
    const bool telem = obs::telemetryEnabled();
    const bool streaming = obs::eventStreamActive();
    obs::TraceHook *hook = nullptr;
    if (telem || streaming) {
        if (telem)
            trace.emplace(mmu.accesses);
        if (streaming)
            live.emplace(obs::runId(cfg.fingerprint()), cfg.label(),
                         mmu.accesses);
        if (trace && live) {
            tee.emplace(&*trace, &*live);
            hook = &*tee;
        } else {
            hook = trace ? static_cast<obs::TraceHook *>(&*trace)
                         : static_cast<obs::TraceHook *>(&*live);
        }
        machine.space().setTraceHook(hook);
        machine.node().setTraceHook(hook);
        if (faults)
            faults->setTraceHook(hook);
        hooks.machine = &machine;
        hooks.session = faults ? &*faults : nullptr;

        // A stream-only session samples at the default interval so
        // subscribers get epoch events without a metrics request.
        const std::uint64_t interval =
            telem ? obs::telemetry().sampleInterval
                  : obs::TelemetryOptions{}.sampleInterval;
        if (interval != 0) {
            sampler.emplace(machine.stats(), mmu.accesses, interval);
            // Gauges: huge-backed bytes of every live array, so the
            // series shows *which* array gained coverage when
            // khugepaged or the fault path promoted regions.
            sampler->setGaugeProvider([&machine]() {
                std::vector<std::pair<std::string, std::uint64_t>> g;
                const vm::AddressSpace &space = machine.space();
                for (const vm::Vma *vma : space.vmas()) {
                    g.emplace_back("hugeBytes." + vma->name,
                                   vma->hugePages *
                                       space.hugePageBytes());
                }
                return g;
            });
            mmu.setSampleHook(interval, [&sampler, &live] {
                const auto *epoch = sampler->tick();
                if (epoch != nullptr && live)
                    live->publishEpoch(*epoch);
            });
        }
        if (live)
            live->publishRunBegin(cfg.fingerprint());
    }

    const MmuSnap before_init = MmuSnap::take(mmu);
    if (hook != nullptr)
        hook->traceEvent(obs::TraceKind::PhaseBegin, 0, "init");

    KernelOutcome outcome;
    MmuSnap before_kernel{};
    auto run = [&](auto prop_tag) {
        using PropT = decltype(prop_tag);
        typename SimView<PropT>::Options vopts;
        vopts.order = cfg.order;
        vopts.needValues = cfg.app == App::Sssp;
        vopts.needAux = cfg.app == App::Pr;
        vopts.fileSource = cfg.fileSource;
        vopts.giantProperty = cfg.giantProperty;

        SimView<PropT> view(machine, g, vopts);

        if (cfg.thpMode == vm::ThpMode::Madvise) {
            if (cfg.madvise.vertex)
                view.adviseVertexArray();
            if (cfg.madvise.edge)
                view.adviseEdgeArray();
            if (cfg.madvise.values && cfg.app == App::Sssp)
                view.adviseValuesArray();
            if (cfg.madvise.propertyFraction > 0.0)
                view.advisePropertyFraction(
                    cfg.madvise.propertyFraction);
        }

        PropT init_value{};
        if constexpr (std::is_same_v<PropT, std::uint64_t>) {
            init_value = (cfg.app == App::Cc) ? 0 : unreachedDist;
        } else {
            init_value = static_cast<PropT>(1.0 / g.numNodes());
        }
        view.load(init_value);
        check_cancel("after load");

        if (cfg.khugepagedAfterInit)
            machine.runKhugepaged();

        // Record huge-page usage at steady state (post-init).
        res.footprintBytes = machine.space().footprintBytes();
        res.hugeBackedBytes = machine.space().hugeBackedBytes();
        res.giantBackedBytes = machine.space().giantBackedBytes();

        // Kernel-anchored fault events (transient pressure departing,
        // failure windows closing) resolve here, just before the
        // kernel's first access.
        if (faults)
            faults->enterKernelPhase();

        if (hook != nullptr) {
            hook->traceEvent(obs::TraceKind::PhaseEnd, 0, "init");
            hook->traceEvent(obs::TraceKind::PhaseBegin, 0, "kernel");
        }
        prof_load.stop();
        before_kernel = MmuSnap::take(mmu);

        // Trace record-and-replay (opt-in): when a prior run with the
        // same stream fingerprint published its kernel access stream,
        // feed that stream back through this machine's MMU instead of
        // re-executing the kernel — every counter evolves identically
        // because faults, promotions and hooks are all driven by the
        // stream through the same entry points. Otherwise run live,
        // recording if this run won the single-recorder claim.
        std::shared_ptr<const RecordedTrace> replayed;
        std::string stream_key;
        bool claimed = false;
        if (replayOptions().enabled) {
            stream_key = streamFingerprint(cfg);
            replayed = replayLookup(stream_key);
            if (!replayed) {
                claimed = replayClaimRecording(stream_key);
                if (!claimed)
                    noteReplayFallback();
            }
        }

        if (replayed) {
            // Decode-once fast path: the first replay of a stream
            // compiles the varint trace to fixed-width records; every
            // later replay dispatches the compiled form directly. A
            // stream the byte budget pins stays on the streaming
            // decoder — identical counters either way.
            std::shared_ptr<const CompiledTrace> compiled;
            {
                obs::ProfScope prof_decode(
                    obs::ProfPhase::ReplayDecode);
                compiled = compiledLookup(stream_key, *replayed);
            }
            {
                obs::ProfScope prof_dispatch(
                    obs::ProfPhase::ReplayDispatch);
                if (compiled)
                    replayCompiled(*compiled, mmu);
                else
                    replayTrace(*replayed, mmu);
            }
            // The kernel's host-side outputs cannot be recomputed
            // without running it; they ride in the trace.
            outcome.output = replayed->kernelOutput;
            outcome.checksum = replayed->checksum;
        } else {
            std::unique_ptr<TraceRecorder> recorder;
            if (claimed) {
                recorder = std::make_unique<TraceRecorder>(
                    replayOptions().maxTraceBytes);
                mmu.setAccessRecorder(recorder.get());
            }
            try {
                obs::ProfScope prof_kernel(obs::ProfPhase::Kernel);
                if constexpr (std::is_same_v<PropT, std::uint64_t>) {
                    const graph::NodeId root = defaultRoot(g);
                    if (cfg.app == App::Bfs)
                        outcome.output = bfs(view, root);
                    else if (cfg.app == App::Sssp)
                        outcome.output =
                            sssp(view, root, cfg.ssspDelta);
                    else
                        outcome.output =
                            labelPropagation(view, cfg.ccMaxIters);
                } else {
                    outcome.output =
                        pagerank(view, cfg.prMaxIters, cfg.prDamping,
                                 cfg.prEpsilon)
                            .iterations;
                }
            } catch (...) {
                if (claimed) {
                    mmu.setAccessRecorder(nullptr);
                    replayAbandon(stream_key, /*pin_live=*/false);
                }
                throw;
            }
            obs::ProfScope prof_verify(obs::ProfPhase::Verify);
            outcome.checksum = propChecksum(view.propRaw());
            prof_verify.stop();
            if (claimed) {
                mmu.setAccessRecorder(nullptr);
                if (recorder->overflowed()) {
                    replayAbandon(stream_key, /*pin_live=*/true);
                } else {
                    replayPublish(
                        stream_key,
                        std::make_shared<RecordedTrace>(recorder->take(
                            outcome.output, outcome.checksum)));
                }
            }
        }
        if (hook != nullptr)
            hook->traceEvent(obs::TraceKind::PhaseEnd, 0, "kernel");
    };

    if (cfg.app == App::Pr)
        run(double{});
    else
        run(std::uint64_t{});

    const MmuSnap after = MmuSnap::take(mmu);
    const tlb::CostModel &costs = sys.costs;

    res.initSeconds =
        costs.seconds(before_kernel.totalCycles() -
                      before_init.totalCycles());
    res.kernelSeconds = costs.seconds(after.totalCycles() -
                                      before_kernel.totalCycles());

    res.accesses = after.accesses - before_kernel.accesses;
    res.dtlbMisses = after.dtlbMisses - before_kernel.dtlbMisses;
    res.stlbHits = after.stlbHits - before_kernel.stlbHits;
    res.walks = after.walks - before_kernel.walks;
    res.dtlbMissRate =
        res.accesses ? static_cast<double>(res.dtlbMisses) /
                           static_cast<double>(res.accesses)
                     : 0.0;
    res.stlbMissRate =
        res.accesses ? static_cast<double>(res.walks) /
                           static_cast<double>(res.accesses)
                     : 0.0;
    const std::uint64_t kernel_cycles =
        after.totalCycles() - before_kernel.totalCycles();
    res.translationCycleShare =
        kernel_cycles
            ? static_cast<double>(after.translation -
                                  before_kernel.translation) /
                  static_cast<double>(kernel_cycles)
            : 0.0;

    const vm::AddressSpace &space = machine.space();
    res.hugeFaults = space.hugeFaults.value();
    res.minorFaults = space.minorFaults.value();
    res.majorFaults = space.majorFaults.value();
    res.swapOuts = space.swapOutPages.value();
    res.promotions = space.promotions.value();
    res.compactionRuns = machine.node().compactionRuns.value();
    res.compactionPagesMigrated =
        machine.node().compactionPagesMigrated.value();

    res.hugeFallbacks = space.hugeFallbacks.value();
    res.hugeAllocRetries = space.hugeRetries.value();
    res.injectedHugeFailures =
        machine.node().injectedHugeFailures.value();
    res.swapStalls = machine.swapDevice().stalledAllocs.value();
    if (sys.fileBackedCsr) {
        const mem::AddressSpaceCache &fc = machine.fileCache();
        res.fileReads = fc.storageReads.value();
        res.fileWritebacks = fc.writebacks.value();
        res.fileEvictions = fc.evictions.value();
    }
    if (faults)
        res.faultEventsApplied = faults->eventsApplied();

    res.hugeFractionOfFootprint =
        res.footprintBytes
            ? static_cast<double>(res.hugeBackedBytes) /
                  static_cast<double>(res.footprintBytes)
            : 0.0;

    res.checksum = outcome.checksum;
    res.kernelOutput = outcome.output;

    if (sampler) {
        const auto *epoch = sampler->finish();
        if (epoch != nullptr && live)
            live->publishEpoch(*epoch);
    }
    if (live) {
        // Final counters on the wire equal the RunResult the caller
        // receives: run_end carries the same resultJson document.
        live->publishRunEnd(resultJson(res));
    }
    // Uninstall before exporting: the export allocates and must
    // never record into the sink it is reading.
    hooks.release();

    // Fold this run's phase wall-times into the process aggregate
    // (zeroes while profiling is off).
    const obs::PhaseBreakdown prof_run = obs::profEndRun();

    if (trace) {
        obs::Json stats_json = obs::Json::object();
        for (const auto &[name, value] : machine.stats().snapshot())
            stats_json.set(name, obs::Json(value));
        obs::Json extra = obs::Json::object();
        extra.set("app", appName(cfg.app));
        extra.set("dataset", cfg.dataset);
        obs::Json events;
        if (live) {
            events = obs::Json::object();
            events.set("published", obs::Json(live->published()));
            events.set("subscriberDrops",
                       obs::Json(live->subscriberDrops()));
        }
        obs::Json profile;
        if (obs::profilingEnabled()) {
            profile = obs::Json::object();
            for (std::size_t i = 0; i < obs::profPhaseCount; ++i) {
                profile.set(
                    obs::profPhaseName(static_cast<obs::ProfPhase>(i)),
                    obs::Json(prof_run.seconds[i]));
            }
        }
        obs::writeRunTelemetry(obs::telemetry(), cfg.label(),
                               cfg.fingerprint(), *trace,
                               sampler ? &*sampler : nullptr,
                               resultJson(res), std::move(stats_json),
                               std::move(extra), std::move(events),
                               std::move(profile));
    }
    return res;
}

std::size_t
prefetchDatasets(const std::vector<ExperimentConfig> &configs,
                 unsigned jobs)
{
    struct Key
    {
        std::string dataset;
        std::uint64_t divisor;
        bool weighted;
        std::uint64_t seed;

        bool
        operator==(const Key &o) const
        {
            return dataset == o.dataset && divisor == o.divisor &&
                   weighted == o.weighted && seed == o.seed;
        }
    };

    std::vector<Key> keys;
    for (const ExperimentConfig &cfg : configs) {
        Key k{cfg.dataset, cfg.scaleDivisor, cfg.app == App::Sssp,
              cfg.seed};
        if (std::find(keys.begin(), keys.end(), k) == keys.end())
            keys.push_back(std::move(k));
        // The dataset cache holds 8 entries (FIFO): prefetching more
        // would evict earlier prefetches before the batch uses them.
        if (keys.size() >= 8)
            break;
    }
    if (keys.empty())
        return 0;

    auto generate = [&keys](std::size_t i) {
        const Key &k = keys[i];
        try {
            cachedDataset(k.dataset, k.divisor, k.weighted, k.seed);
        } catch (...) {
            // Generation failures surface on the real run, with the
            // pool's per-config error reporting around them.
        }
    };

    const unsigned workers = std::min<unsigned>(
        jobs, static_cast<unsigned>(keys.size()));
    if (workers <= 1) {
        for (std::size_t i = 0; i < keys.size(); ++i)
            generate(i);
        return keys.size();
    }

    std::atomic<std::size_t> next{0};
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
        threads.emplace_back([&] {
            for (std::size_t i = next.fetch_add(1); i < keys.size();
                 i = next.fetch_add(1)) {
                generate(i);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    return keys.size();
}

double
speedupOver(const RunResult &baseline, const RunResult &result)
{
    const double base_time = baseline.kernelSeconds;
    const double opt_time =
        result.kernelSeconds + result.preprocessSeconds;
    return opt_time > 0.0 ? base_time / opt_time : 0.0;
}

} // namespace gpsm::core
