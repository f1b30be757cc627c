/**
 * @file
 * Correctness references, computed apart from the simulated machine.
 */

#ifndef PERFBENCH_REFERENCE_HH
#define PERFBENCH_REFERENCE_HH

#include <cstdint>

#include "core/experiment.hh"
#include "core/kernels.hh"
#include "graph/csr.hh"

namespace perfbench
{

/** Kernel answer: the property checksum and the kernel's output
 *  (reached vertices or PageRank iterations). */
struct KernelAnswer
{
    std::uint64_t checksum = 0;
    std::uint64_t output = 0;
};

/**
 * Run @p cfg's kernel on @p view exactly as core::runExperiment does:
 * same root, parameters and property initialisation.
 */
template <typename PropT, typename View>
KernelAnswer
runKernel(View &view, const gpsm::graph::CsrGraph &g,
          const gpsm::core::ExperimentConfig &cfg)
{
    using gpsm::core::App;
    KernelAnswer a;
    if constexpr (std::is_same_v<PropT, std::uint64_t>) {
        const gpsm::graph::NodeId root = gpsm::core::defaultRoot(g);
        if (cfg.app == App::Bfs)
            a.output = gpsm::core::bfs(view, root);
        else if (cfg.app == App::Sssp)
            a.output = gpsm::core::sssp(view, root, cfg.ssspDelta);
        else
            a.output = gpsm::core::labelPropagation(view, cfg.ccMaxIters);
    } else {
        a.output = gpsm::core::pagerank(view, cfg.prMaxIters,
                                        cfg.prDamping, cfg.prEpsilon)
                       .iterations;
    }
    a.checksum = gpsm::core::propChecksum(view.propRaw());
    return a;
}

/** Initial property value runExperiment loads for @p cfg's app. */
template <typename PropT>
PropT
initialProperty(const gpsm::graph::CsrGraph &g,
                const gpsm::core::ExperimentConfig &cfg)
{
    if constexpr (std::is_same_v<PropT, std::uint64_t>)
        return cfg.app == gpsm::core::App::Cc ? 0
                                              : gpsm::core::unreachedDist;
    else
        return static_cast<PropT>(1.0 / g.numNodes());
}

/** The graph @p cfg's kernel runs on: @p base reordered per cfg. */
gpsm::graph::CsrGraph experimentGraph(const gpsm::graph::CsrGraph &base,
                                      const gpsm::core::ExperimentConfig &cfg);

/**
 * Vertices reachable from @p root, by a queue BFS over the CSR arrays
 * written independently of gpsm's kernels.
 */
std::uint64_t plainBfsReached(const gpsm::graph::CsrGraph &g,
                              gpsm::graph::NodeId root);

/** @p cfg's kernel on an untraced core::NativeView of @p g. */
KernelAnswer nativeAnswer(const gpsm::graph::CsrGraph &g,
                          const gpsm::core::ExperimentConfig &cfg);

} // namespace perfbench

#endif // PERFBENCH_REFERENCE_HH
