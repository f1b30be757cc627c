/**
 * @file
 * Experiment harness: one call reproduces one bar of one paper figure.
 *
 * An ExperimentConfig captures application, dataset, page-size policy,
 * memory-pressure environment and preprocessing; runExperiment()
 * runs the paper's protocol as stages (experiment.cc): build the
 * graph, assemble the machine, age its memory, load the graph, run
 * the kernel, collect the paper's metrics (runtime, TLB miss rates,
 * huge-page usage) and export the observers' documents.
 */

#ifndef GPSM_CORE_EXPERIMENT_HH
#define GPSM_CORE_EXPERIMENT_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/alloc_order.hh"
#include "core/file_source.hh"
#include "core/system_config.hh"
#include "fault/fault_plan.hh"
#include "graph/csr.hh"
#include "graph/reorder.hh"
#include "vm/thp_config.hh"

namespace gpsm::core
{

/** The paper's three applications plus the label-propagation extra. */
enum class App : std::uint8_t
{
    Bfs,
    Sssp,
    Pr,
    Cc,
};

const char *appName(App app);

/**
 * Which node(s) the memory-pressure tools (memhog + fragmenter) run
 * against on a two-node machine. Local is the single-node-equivalent
 * default; anything else requires sys.numaEnabled().
 */
enum class PressureNode : std::uint8_t
{
    Local,  ///< node 0 only (the pre-NUMA behaviour)
    Remote, ///< node 1 only
    Both,   ///< both nodes, same WSS+slack target each
};

const char *pressureNodeName(PressureNode p);

/** Which arrays receive madvise(MADV_HUGEPAGE) in Madvise mode. */
struct MadviseSelection
{
    bool vertex = false;
    bool edge = false;
    bool values = false;
    /** Fraction of the property (+aux) array, 0.0-1.0 (paper's s%). */
    double propertyFraction = 0.0;

    static MadviseSelection
    propertyOnly(double fraction = 1.0)
    {
        MadviseSelection s;
        s.propertyFraction = fraction;
        return s;
    }
    static MadviseSelection
    all()
    {
        return MadviseSelection{true, true, true, 1.0};
    }
};

/** Full description of one experimental run. */
struct ExperimentConfig
{
    SystemConfig sys = SystemConfig::scaled();

    App app = App::Bfs;
    std::string dataset = "kron";
    /** Table 2 sizes divided by this. */
    std::uint64_t scaleDivisor = 128;
    std::uint64_t seed = 1;

    graph::ReorderMethod reorder = graph::ReorderMethod::None;

    /** Page-size policy. */
    vm::ThpMode thpMode = vm::ThpMode::Never;
    MadviseSelection madvise;
    AllocOrder order = AllocOrder::Natural;
    bool khugepagedAfterInit = true;
    /** khugepaged utilization threshold (present base pages required
     *  for a collapse; 1 = Linux greedy, higher = Ingens-style). */
    std::uint64_t khugepagedMinPresent = 1;
    /** khugepaged scan budget per wakeup, in base pages. */
    std::uint64_t khugepagedScanPages = 4096;
    /** HawkEye-style access-tracking promotion order. */
    bool khugepagedHotFirst = false;
    /** Run khugepaged periodically while the kernel executes (not
     *  just once after init), waking every this many accesses. */
    bool khugepagedDuringKernel = false;
    std::uint64_t khugepagedIntervalAccesses = 1u << 21;

    /**
     * Memory-pressure environment: pin node memory until only
     * WSS + slackBytes remain free (paper §4.3.1's memhog setup).
     * Negative slack oversubscribes. No memhog runs when disabled.
     */
    bool constrainMemory = false;
    std::int64_t slackBytes = 0;

    /** Non-movable fragmentation level of the remaining free memory
     *  (paper §4.4.1's frag tool), applied after memhog. */
    double fragLevel = 0.0;

    /** Node(s) memhog and the fragmenter pressure (two-node machines;
     *  Local is the only valid choice when sys.numaEnabled() is
     *  false). */
    PressureNode pressureNode = PressureNode::Local;

    /** Where input files are staged during loading (paper §4.3). */
    FileSource fileSource = FileSource::TmpfsRemote;

    /**
     * Back the property (+aux) arrays with giant pages (requires
     * sys.node.giantPoolPages to cover them). Extension beyond the
     * paper's 2MB THP focus.
     */
    bool giantProperty = false;

    /**
     * Out-of-core mode: footprint / modeled-DRAM ratio. 0.0 (the
     * default) leaves the address-space cache dormant for graph data
     * and the run byte-identical to the in-core build. A non-zero
     * ratio backs the CSR arrays with file mappings and shrinks the
     * node to WSS / oocRatio (huge-page aligned, ≥ 8 huge pages), so
     * ratios > 1 force demand faulting, eviction and writeback.
     */
    double oocRatio = 0.0;

    /** Replacement policy of the file cache (out-of-core mode). */
    mem::EvictionKind oocEviction = mem::EvictionKind::Clock;

    /**
     * Bounded fault-path retries of a failed huge allocation before
     * base-page fallback (graceful degradation under transient failure
     * windows; each retry charges backoff). 0 = Linux behaviour.
     */
    unsigned hugeFaultRetries = 0;

    /**
     * Declarative fault-injection plan, interpreted on the simulated
     * access clock by fault::FaultSession. Part of the fingerprint: a
     * faulty run memoizes exactly like a clean one. Empty by default —
     * and an empty plan installs nothing, leaving the run bit-identical
     * to a build without the fault layer.
     */
    fault::FaultPlan faultPlan;

    /** @name Kernel parameters @{ */
    std::uint32_t prMaxIters = 4;
    double prDamping = 0.85;
    double prEpsilon = 1e-7; // effectively "run prMaxIters"
    std::uint32_t ssspDelta = 32;
    std::uint32_t ccMaxIters = 8;
    /** @} */

    /** One-line label for tables. Lossy: omits fields that rarely
     *  vary (khugepaged tuning, kernel parameters, system geometry);
     *  never use it as a cache key — that is fingerprint()'s job. */
    std::string label() const;

    /**
     * Exact serialization of *every* field (nested SystemConfig
     * included, doubles in hexfloat). Two configs produce the same
     * fingerprint iff runExperiment() would behave identically, which
     * makes it the memo-cache key for core::runMemoized() and
     * core::ExperimentPool.
     */
    std::string fingerprint() const;
};

/** Everything a bench needs to print one figure bar. */
struct RunResult
{
    /** @name Simulated time @{ */
    double initSeconds = 0.0;
    double kernelSeconds = 0.0;
    double preprocessSeconds = 0.0; ///< DBG sorting cost (§5.1.2)
    /** @} */

    /** @name Kernel-phase translation behaviour (Figs. 2-3) @{ */
    std::uint64_t accesses = 0;
    std::uint64_t dtlbMisses = 0;
    std::uint64_t stlbHits = 0;
    std::uint64_t walks = 0;
    double dtlbMissRate = 0.0;
    double stlbMissRate = 0.0; ///< walks / accesses
    double translationCycleShare = 0.0; ///< Fig. 2's overhead share
    /** @} */

    /** @name Memory-management events (whole run) @{ */
    std::uint64_t hugeFaults = 0;
    std::uint64_t minorFaults = 0;
    std::uint64_t majorFaults = 0;
    std::uint64_t swapOuts = 0;
    std::uint64_t compactionRuns = 0;
    std::uint64_t compactionPagesMigrated = 0;
    std::uint64_t promotions = 0;
    /** @} */

    /** @name Huge-page efficiency (paper's 0.58-2.92% headline) @{ */
    std::uint64_t footprintBytes = 0;
    std::uint64_t hugeBackedBytes = 0;
    std::uint64_t giantBackedBytes = 0;
    double hugeFractionOfFootprint = 0.0;
    /** @} */

    /** @name Degradation under injected faults (whole run) @{ */
    std::uint64_t hugeFallbacks = 0;  ///< huge faults degraded to base
    std::uint64_t hugeAllocRetries = 0; ///< bounded fault-path retries
    std::uint64_t injectedHugeFailures = 0; ///< vetoed by fault layer
    std::uint64_t swapStalls = 0; ///< swap slots refused by fault layer
    std::uint64_t faultEventsApplied = 0; ///< FaultSession activity
    /** @} */

    /** @name Out-of-core file traffic (zero on in-core runs) @{ */
    std::uint64_t fileReads = 0;      ///< pages filled from storage
    std::uint64_t fileWritebacks = 0; ///< dirty pages written back
    std::uint64_t fileEvictions = 0;  ///< file pages evicted
    /** @} */

    /** Result checksum: must match across page-size policies. */
    std::uint64_t checksum = 0;
    /** Kernel-specific output (reached vertices / iterations). */
    std::uint64_t kernelOutput = 0;
};

/**
 * Run one experiment end to end. Deterministic for a given config.
 *
 * @param cancel Optional cooperative cancellation flag (the pool's
 *        watchdog sets it on timeout). Checked at phase boundaries and
 *        on the MMU miss path; a set flag aborts the run by throwing
 *        CancelledError. Null (the default) disables the checks.
 */
RunResult runExperiment(const ExperimentConfig &config,
                        const std::atomic<bool> *cancel = nullptr);

/**
 * Convenience: working-set size (bytes) the given app/dataset/divisor
 * will occupy, used to express paper-style "WSS + slack" scenarios.
 */
std::uint64_t workingSetBytes(const ExperimentConfig &config);

/**
 * Pre-generate the distinct datasets of @p configs in parallel (the
 * pool's batch warm-up): dataset generation is the serial head of an
 * otherwise parallel sweep, because each graph is built single-flight
 * on whichever worker asks first while workers needing the *same*
 * graph block behind it. Prefetching with @p jobs generator threads
 * fills the dataset cache before experiments start. Bounded by the
 * cache capacity (8 entries, FIFO); failures are swallowed here and
 * surface on the run that needs the dataset.
 *
 * @return number of distinct datasets prefetched.
 */
std::size_t prefetchDatasets(
    const std::vector<ExperimentConfig> &configs, unsigned jobs);

/**
 * The speedup of @p result over @p baseline (ratio of kernel times,
 * with preprocessing charged to the optimized configuration as in
 * §5.1.2).
 */
double speedupOver(const RunResult &baseline, const RunResult &result);

} // namespace gpsm::core

#endif // GPSM_CORE_EXPERIMENT_HH
