/**
 * @file
 * Outside-in layer tracing: a driver that performs core::runExperiment's
 * stages itself (reorder, machine assembly, aging, load, khugepaged,
 * kernel or replay, collect) through gpsm's public API, timing each call
 * into a layer from the benchmark's side. Spans inside the program are
 * a later change; until then the driver's results are checked against
 * runExperiment's for the same configs, so it cannot drift from the
 * program unnoticed.
 */

#ifndef PERFBENCH_STAGE_DRIVER_HH
#define PERFBENCH_STAGE_DRIVER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/replay.hh"
#include "graph/csr.hh"
#include "reference.hh"
#include "workloads.hh"

namespace perfbench
{

/** Host seconds spent in each stage of one staged run. */
struct StageTimes
{
    double machine = 0.0;    ///< SimMachine constructor
    double age = 0.0;        ///< Memhog::occupyAllBut + Fragmenter
    double load = 0.0;       ///< SimView::load
    double khugepaged = 0.0; ///< SimMachine::runKhugepaged
    double kernel = 0.0;     ///< live kernel, or replayCompiled
};

/** How the kernel phase of a staged run executes. */
struct KernelPlan
{
    /** Dispatch this stream through the MMU instead of running the
     *  kernel; @ref replayAnswer supplies the kernel outputs. */
    const gpsm::core::CompiledTrace *replay = nullptr;
    KernelAnswer replayAnswer;
    /** Attached to the MMU while a live kernel runs. */
    gpsm::core::TraceRecorder *recorder = nullptr;
};

struct StagedRun
{
    gpsm::core::RunResult result;
    StageTimes times;
};

/**
 * Run @p cfg stage by stage on @p g, which must already be reordered
 * as @p cfg asks. Supports the configuration subset the workloads use
 * (single node, no fault plan, no giant pages, no khugepaged during
 * the kernel); throws std::invalid_argument for anything else.
 */
StagedRun runStaged(const gpsm::core::ExperimentConfig &cfg,
                    const gpsm::graph::CsrGraph &g, const KernelPlan &plan);

/** Field-by-field comparison of two results' simulated outputs;
 *  empty when they match bit for bit, else the first mismatch. */
std::string compareResults(const gpsm::core::RunResult &want,
                           const gpsm::core::RunResult &got);

/** Per-layer measurements of one traced pass over a workload. */
struct LayerSample
{
    /** @name Host seconds, summed over the pass's configs @{ */
    double wall = 0.0; ///< the driver's stages alone, extras excluded
    double reorder = 0.0;
    double machine = 0.0;
    double age = 0.0;
    double load = 0.0;
    double khugepaged = 0.0;
    double kernel = 0.0;         ///< live kernels only
    double decode = 0.0;         ///< compiledLookup of replayed configs
    double replayDispatch = 0.0; ///< replayCompiled of replayed configs
    /** Every config's stream dispatched on a freshly loaded machine
     *  (live configs: a separate replay; replayed: their dispatch). */
    double dispatch = 0.0;
    /** The live configs' part of @ref dispatch. */
    double liveDispatch = 0.0;
    /** @ref dispatch again with SystemConfig::enableCache = false. */
    double dispatchNoCache = 0.0;
    /** @} */

    /** @name Simulated counts, summed over the pass's configs @{ */
    std::uint64_t configs = 0;
    std::uint64_t replayed = 0; ///< ReplayStats::replayed of the pass
    std::uint64_t liveAccesses = 0;
    std::uint64_t traceBytes = 0; ///< recorded + compiled stream bytes
    /** @} */

    /** Driver results in config order, for the self-check. */
    std::vector<gpsm::core::RunResult> results;
    /** Empty, or why the driver disagreed with itself. */
    std::string error;
};

/**
 * One traced pass: every config of @p w through runStaged, following
 * runExperiment's replay protocol when the workload replays, plus the
 * dispatch measurements on fresh machines. @p bases holds each
 * config's dataset before reordering; reordering is timed here.
 */
LayerSample tracedPass(const Workload &w,
                       const std::vector<const gpsm::graph::CsrGraph *>
                           &bases);

} // namespace perfbench

#endif // PERFBENCH_STAGE_DRIVER_HH
