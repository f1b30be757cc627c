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

/** Throws CancelledError once the run's @p cancel flag is set. */
void
checkCancel(const std::atomic<bool> *cancel, const char *where)
{
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed))
        throw CancelledError(std::string("experiment cancelled ") + where);
}

/**
 * The observers a run asked for: telemetry (trace sink and sampler)
 * and the live event stream (publisher). Declared before the machine
 * they watch, so the machine, and with it every hook into them, is
 * gone first, on a normal return and on a cancel's unwind alike.
 */
struct RunObservers
{
    std::optional<obs::TraceSink> trace;
    std::optional<obs::TimeSeriesSampler> sampler;
    std::optional<obs::RunEventPublisher> live;

    void attach(const ExperimentConfig &cfg, SimMachine &machine);
};

/**
 * One assembled machine and what acts on it for the whole run: the
 * fault session and the memhog/frag tools of each pressured node.
 * Members tear down in reverse, so tools and session let go of their
 * frames before the machine goes.
 */
struct Rig
{
    Rig(const SystemConfig &sys, const vm::ThpConfig &thp)
        : machine(sys, thp)
    {
    }

    SimMachine machine;
    std::optional<fault::FaultSession> faults;
    /** Per node: [0] local, [1] remote (only when pressured). */
    std::optional<mem::Memhog> memhog[2];
    std::optional<mem::Fragmenter> fragmenter[2];
};

/** MMU counters where the init and kernel phases begin. */
struct PhaseSnaps
{
    MmuSnap init{};
    MmuSnap kernel{};
};

/**
 * Build: the dataset (this models reading the input files; the graph
 * lives host-side until loaded into the view), then the preprocessing
 * (DBG etc.), performed separately so it does not disturb huge-page
 * availability (§5.1.2), with its runtime charged to the run.
 */
std::shared_ptr<const graph::CsrGraph>
buildStage(const ExperimentConfig &cfg, const std::atomic<bool> *cancel,
           RunResult &res)
{
    obs::ProfScope prof(obs::ProfPhase::Build);
    auto g = cachedDataset(cfg.dataset, cfg.scaleDivisor,
                           cfg.app == App::Sssp, cfg.seed);
    checkCancel(cancel, "before preprocessing");
    if (cfg.reorder == graph::ReorderMethod::None)
        return g;
    res.preprocessSeconds =
        preprocessSeconds(*g, cfg.reorder, cfg.sys.costs);
    return std::make_shared<const graph::CsrGraph>(graph::applyMapping(
        *g, graph::reorderMapping(*g, cfg.reorder, cfg.seed)));
}

/** The run's THP policy and khugepaged tuning. */
vm::ThpConfig
thpConfigOf(const ExperimentConfig &cfg)
{
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
    return thp;
}

/** The run's system: cfg.sys with the giant pool sized and, out of
 *  core, the node shrunk. */
SystemConfig
systemConfigOf(const ExperimentConfig &cfg, const graph::CsrGraph &g)
{
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
    return sys;
}

/**
 * Assemble: the machine under the run's THP policy and system, and
 * the fault session (when a plan is declared), which takes the
 * machine's trace fan-out and installs its node, swap and MMU hooks
 * for the machine's lifetime.
 */
std::unique_ptr<Rig>
assembleStage(const ExperimentConfig &cfg, const graph::CsrGraph &g,
              const std::atomic<bool> *cancel)
{
    obs::ProfScope prof(obs::ProfPhase::Load);
    const vm::ThpConfig thp = thpConfigOf(cfg);
    auto rig = std::make_unique<Rig>(systemConfigOf(cfg, g), thp);
    SimMachine &machine = rig->machine;
    if (cfg.khugepagedDuringKernel && thp.khugepagedEnabled)
        machine.enableKhugepagedDuringExecution(
            cfg.khugepagedIntervalAccesses);
    machine.mmu().setCancelFlag(cancel);
    if (!cfg.faultPlan.empty()) {
        rig->faults.emplace(cfg.faultPlan, cfg.seed, machine.node(),
                            machine.swapDevice(), machine.mmu(),
                            &machine.trace());
    }
    return rig;
}

/**
 * Age: memhog pins memory down to WSS + slack, then the frag tool
 * poisons the remaining free memory (§4.3-4.4). On a two-node machine
 * pressureNode picks the target node(s); the Local default touches
 * only node 0, whose tools exist on every run.
 */
void
ageStage(const ExperimentConfig &cfg, const graph::CsrGraph &g, Rig &rig)
{
    obs::ProfScope prof(obs::ProfPhase::Load);
    if (cfg.pressureNode != PressureNode::Local &&
        !cfg.sys.numaEnabled()) {
        fatal("pressureNode '%s' requires a two-node machine "
              "(sys.node1.bytes != 0)",
              pressureNodeName(cfg.pressureNode));
    }
    // Registration order (as node clients) is machine state.
    rig.memhog[0].emplace(rig.machine.node());
    rig.fragmenter[0].emplace(rig.machine.node());
    if (cfg.pressureNode != PressureNode::Local) {
        rig.memhog[1].emplace(*rig.machine.remoteNode());
        rig.fragmenter[1].emplace(*rig.machine.remoteNode());
    }
    const bool pressured[2] = {cfg.pressureNode != PressureNode::Remote,
                               cfg.pressureNode != PressureNode::Local};
    if (cfg.constrainMemory) {
        const std::int64_t target =
            static_cast<std::int64_t>(wssOf(g, cfg.app)) +
            cfg.slackBytes;
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
        for (int n = 0; n < 2; ++n)
            if (pressured[n])
                rig.memhog[n]->occupyAllBut(leave);
    }
    if (cfg.fragLevel > 0.0) {
        for (int n = 0; n < 2; ++n)
            if (pressured[n])
                rig.fragmenter[n]->fragment(cfg.fragLevel);
    }
}

void
RunObservers::attach(const ExperimentConfig &cfg, SimMachine &machine)
{
    // Whether anyone listens is sampled once, here, so the event set
    // a subscriber sees for one run is all-or-nothing.
    const bool telem = obs::telemetryEnabled();
    const bool streaming = obs::eventStreamActive();
    if (!telem && !streaming)
        return;
    tlb::Mmu &mmu = machine.mmu();
    if (telem) {
        trace.emplace(mmu.accesses);
        machine.trace().attach(*trace);
    }
    if (streaming) {
        live.emplace(obs::runId(cfg.fingerprint()), cfg.label(),
                     mmu.accesses);
        machine.trace().attach(*live);
    }

    // A stream-only session samples at the default interval so
    // subscribers get epoch events without a metrics request.
    const std::uint64_t interval =
        telem ? obs::telemetry().sampleInterval
              : obs::TelemetryOptions{}.sampleInterval;
    if (interval != 0) {
        sampler.emplace(machine.stats(), mmu.accesses, interval);
        // Gauges: huge-backed bytes of every live array, so the
        // series shows *which* array gained coverage when khugepaged
        // or the fault path promoted regions.
        sampler->setGaugeProvider([&machine]() {
            std::vector<std::pair<std::string, std::uint64_t>> g;
            const vm::AddressSpace &space = machine.space();
            for (const vm::Vma *vma : space.vmas()) {
                g.emplace_back("hugeBytes." + vma->name,
                               vma->hugePages * space.hugePageBytes());
            }
            return g;
        });
        mmu.setSampleHook(interval, [this] {
            const auto *epoch = sampler->tick();
            if (epoch != nullptr && live)
                live->publishEpoch(*epoch);
        });
    }
    if (live)
        live->publishRunBegin(cfg.fingerprint());
}

/**
 * Load: the view's arrays are mapped, madvised per the selection and
 * written through the MMU (paper Fig. 4 lines 1-5), then khugepaged
 * runs once. Huge-page usage is recorded at this steady state, and
 * kernel-anchored fault events (transient pressure departing, failure
 * windows closing) resolve just before the kernel's first access.
 */
template <typename PropT>
std::unique_ptr<SimView<PropT>>
loadStage(const ExperimentConfig &cfg, const graph::CsrGraph &g,
          Rig &rig, const std::atomic<bool> *cancel, PhaseSnaps &snaps,
          RunResult &res)
{
    obs::ProfScope prof(obs::ProfPhase::Load);
    SimMachine &machine = rig.machine;
    snaps.init = MmuSnap::take(machine.mmu());
    machine.trace().traceEvent(obs::TraceKind::PhaseBegin, 0, "init");

    typename SimView<PropT>::Options vopts;
    vopts.order = cfg.order;
    vopts.needValues = cfg.app == App::Sssp;
    vopts.needAux = cfg.app == App::Pr;
    vopts.fileSource = cfg.fileSource;
    vopts.giantProperty = cfg.giantProperty;
    auto view = std::make_unique<SimView<PropT>>(machine, g, vopts);

    if (cfg.thpMode == vm::ThpMode::Madvise) {
        if (cfg.madvise.vertex)
            view->adviseVertexArray();
        if (cfg.madvise.edge)
            view->adviseEdgeArray();
        if (cfg.madvise.values && cfg.app == App::Sssp)
            view->adviseValuesArray();
        if (cfg.madvise.propertyFraction > 0.0)
            view->advisePropertyFraction(cfg.madvise.propertyFraction);
    }

    PropT init_value{};
    if constexpr (std::is_same_v<PropT, std::uint64_t>)
        init_value = (cfg.app == App::Cc) ? 0 : unreachedDist;
    else
        init_value = static_cast<PropT>(1.0 / g.numNodes());
    view->load(init_value);
    checkCancel(cancel, "after load");

    if (cfg.khugepagedAfterInit)
        machine.runKhugepaged();
    res.footprintBytes = machine.space().footprintBytes();
    res.hugeBackedBytes = machine.space().hugeBackedBytes();
    res.giantBackedBytes = machine.space().giantBackedBytes();
    if (rig.faults)
        rig.faults->enterKernelPhase();
    machine.trace().traceEvent(obs::TraceKind::PhaseEnd, 0, "init");
    return view;
}

/** The app's kernel on a loaded view; returns its output. */
template <typename PropT>
std::uint64_t
executeKernel(const ExperimentConfig &cfg, const graph::CsrGraph &g,
              SimView<PropT> &view)
{
    obs::ProfScope prof(obs::ProfPhase::Kernel);
    if constexpr (std::is_same_v<PropT, std::uint64_t>) {
        const graph::NodeId root = defaultRoot(g);
        if (cfg.app == App::Bfs)
            return bfs(view, root);
        if (cfg.app == App::Sssp)
            return sssp(view, root, cfg.ssspDelta);
        return labelPropagation(view, cfg.ccMaxIters);
    } else {
        return pagerank(view, cfg.prMaxIters, cfg.prDamping,
                        cfg.prEpsilon)
            .iterations;
    }
}

template <typename PropT>
std::uint64_t
verifyOutput(const SimView<PropT> &view)
{
    obs::ProfScope prof(obs::ProfPhase::Verify);
    return propChecksum(view.propRaw());
}

/**
 * Kernel: the app's kernel, or the replay of its recorded stream
 * (replayOrRun), bracketed by the kernel phase events and the
 * kernel-start counter snapshot.
 */
template <typename PropT>
KernelOutcome
kernelStage(const ExperimentConfig &cfg, const graph::CsrGraph &g,
            SimView<PropT> &view, SimMachine &machine,
            PhaseSnaps &snaps)
{
    machine.trace().traceEvent(obs::TraceKind::PhaseBegin, 0, "kernel");
    snaps.kernel = MmuSnap::take(machine.mmu());
    const KernelOutcome outcome = replayOrRun(cfg, machine.mmu(), [&] {
        // Braced initializers evaluate in order: kernel, then checksum.
        return KernelOutcome{executeKernel(cfg, g, view),
                             verifyOutput(view)};
    });
    machine.trace().traceEvent(obs::TraceKind::PhaseEnd, 0, "kernel");
    return outcome;
}

/** Load, then kernel, on one view, which is unmapped on return. */
template <typename PropT>
KernelOutcome
loadAndRunKernel(const ExperimentConfig &cfg, const graph::CsrGraph &g,
                 Rig &rig, const std::atomic<bool> *cancel, PhaseSnaps &snaps,
                 RunResult &res)
{
    const auto view = loadStage<PropT>(cfg, g, rig, cancel, snaps, res);
    return kernelStage(cfg, g, *view, rig.machine, snaps);
}

/** Collect: the RunResult from the phase snapshots, the kernel's
 *  outcome and the machine's whole-run counters. */
void
collectStage(const PhaseSnaps &snaps, const KernelOutcome &outcome,
             Rig &rig, RunResult &res)
{
    SimMachine &machine = rig.machine;
    const MmuSnap after = MmuSnap::take(machine.mmu());
    const MmuSnap &before = snaps.kernel;
    const tlb::CostModel &costs = machine.config().costs;

    res.initSeconds = costs.seconds(before.totalCycles() -
                                    snaps.init.totalCycles());
    const std::uint64_t kernel_cycles =
        after.totalCycles() - before.totalCycles();
    res.kernelSeconds = costs.seconds(kernel_cycles);

    res.accesses = after.accesses - before.accesses;
    res.dtlbMisses = after.dtlbMisses - before.dtlbMisses;
    res.stlbHits = after.stlbHits - before.stlbHits;
    res.walks = after.walks - before.walks;
    const auto share = [](double part, double whole) {
        return whole != 0.0 ? part / whole : 0.0;
    };
    res.dtlbMissRate = share(res.dtlbMisses, res.accesses);
    res.stlbMissRate = share(res.walks, res.accesses);
    res.translationCycleShare =
        share(after.translation - before.translation, kernel_cycles);

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
    if (machine.config().fileBackedCsr) {
        const mem::AddressSpaceCache &fc = machine.fileCache();
        res.fileReads = fc.storageReads.value();
        res.fileWritebacks = fc.writebacks.value();
        res.fileEvictions = fc.evictions.value();
    }
    if (rig.faults)
        res.faultEventsApplied = rig.faults->eventsApplied();
    res.hugeFractionOfFootprint =
        share(res.hugeBackedBytes, res.footprintBytes);

    res.checksum = outcome.checksum;
    res.kernelOutput = outcome.output;
}

/**
 * Export: close the observers' streams (last epoch, run_end carrying
 * the same resultJson document the caller receives), fold the run's
 * host phase times into the process aggregate (zeroes while profiling
 * is off) and write the telemetry documents.
 */
void
exportStage(const ExperimentConfig &cfg, const RunResult &res,
            RunObservers &observers, SimMachine &machine)
{
    if (observers.sampler) {
        const auto *epoch = observers.sampler->finish();
        if (epoch != nullptr && observers.live)
            observers.live->publishEpoch(*epoch);
    }
    if (observers.live)
        observers.live->publishRunEnd(resultJson(res));
    const obs::PhaseBreakdown prof_run = obs::profEndRun();
    if (!observers.trace)
        return;

    obs::Json stats_json = obs::Json::object();
    for (const auto &[name, value] : machine.stats().snapshot())
        stats_json.set(name, obs::Json(value));
    obs::Json extra = obs::Json::object();
    extra.set("app", appName(cfg.app));
    extra.set("dataset", cfg.dataset);
    obs::Json events;
    if (observers.live) {
        events = obs::Json::object();
        events.set("published", obs::Json(observers.live->published()));
        events.set("subscriberDrops",
                   obs::Json(observers.live->subscriberDrops()));
    }
    obs::Json profile;
    if (obs::profilingEnabled()) {
        profile = obs::Json::object();
        for (std::size_t i = 0; i < obs::profPhaseCount; ++i) {
            profile.set(obs::profPhaseName(static_cast<obs::ProfPhase>(i)),
                        obs::Json(prof_run.seconds[i]));
        }
    }
    obs::writeRunTelemetry(
        obs::telemetry(), cfg.label(), cfg.fingerprint(), *observers.trace,
        observers.sampler ? &*observers.sampler : nullptr, resultJson(res),
        std::move(stats_json), std::move(extra), std::move(events),
        std::move(profile));
}

} // anonymous namespace

RunResult
runExperiment(const ExperimentConfig &cfg,
              const std::atomic<bool> *cancel)
{
    checkCancel(cancel, "before dataset generation");
    // Host-side phase timing (opt-in, see obs/profiler.hh): a dormant
    // profiler leaves every byte of the run unchanged.
    obs::profBeginRun();

    RunResult res;
    const std::shared_ptr<const graph::CsrGraph> built =
        buildStage(cfg, cancel, res);
    const graph::CsrGraph &g = *built;
    RunObservers observers; // before the machine: it must outlive it
    const std::unique_ptr<Rig> rig = assembleStage(cfg, g, cancel);
    ageStage(cfg, g, *rig);
    observers.attach(cfg, rig->machine);
    PhaseSnaps snaps;
    const KernelOutcome outcome =
        cfg.app == App::Pr
            ? loadAndRunKernel<double>(cfg, g, *rig, cancel, snaps, res)
            : loadAndRunKernel<std::uint64_t>(cfg, g, *rig, cancel, snaps,
                                              res);
    collectStage(snaps, outcome, *rig, res);
    exportStage(cfg, res, observers, rig->machine);
    return res;
}

std::uint64_t
workingSetBytes(const ExperimentConfig &cfg)
{
    const auto g = cachedDataset(cfg.dataset, cfg.scaleDivisor,
                                 cfg.app == App::Sssp, cfg.seed);
    return wssOf(*g, cfg.app);
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
