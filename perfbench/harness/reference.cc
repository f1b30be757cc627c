#include "reference.hh"

#include <vector>

#include "core/views.hh"
#include "graph/reorder.hh"

namespace perfbench
{

using gpsm::core::App;

gpsm::graph::CsrGraph
experimentGraph(const gpsm::graph::CsrGraph &base,
                const gpsm::core::ExperimentConfig &cfg)
{
    if (cfg.reorder == gpsm::graph::ReorderMethod::None)
        return base;
    return gpsm::graph::applyMapping(
        base, gpsm::graph::reorderMapping(base, cfg.reorder, cfg.seed));
}

std::uint64_t
plainBfsReached(const gpsm::graph::CsrGraph &g, gpsm::graph::NodeId root)
{
    const std::vector<gpsm::graph::EdgeIdx> &offsets = g.vertexArray();
    const std::vector<gpsm::graph::NodeId> &targets = g.edgeArray();
    std::vector<bool> seen(g.numNodes(), false);
    std::vector<gpsm::graph::NodeId> queue{root};
    seen[root] = true;
    for (std::size_t head = 0; head < queue.size(); ++head) {
        const gpsm::graph::NodeId u = queue[head];
        for (auto e = offsets[u]; e < offsets[u + 1]; ++e) {
            if (!seen[targets[e]]) {
                seen[targets[e]] = true;
                queue.push_back(targets[e]);
            }
        }
    }
    return queue.size();
}

KernelAnswer
nativeAnswer(const gpsm::graph::CsrGraph &g,
             const gpsm::core::ExperimentConfig &cfg)
{
    auto run = [&](auto prop_tag) {
        using PropT = decltype(prop_tag);
        typename gpsm::core::NativeView<PropT>::Options opts;
        opts.needValues = cfg.app == App::Sssp;
        opts.needAux = cfg.app == App::Pr;
        gpsm::core::NativeView<PropT> view(g, opts);
        view.load(initialProperty<PropT>(g, cfg));
        return runKernel<PropT>(view, g, cfg);
    };
    return cfg.app == App::Pr ? run(double{}) : run(std::uint64_t{});
}

} // namespace perfbench
