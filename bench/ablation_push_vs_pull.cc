/**
 * @file
 * Ablation (ours): push versus pull BFS through the memory system.
 *
 * The paper's analysis (§2.1.3, Fig. 4) ties the TLB bottleneck to the
 * push model's pointer-indirect property updates. The pull (bottom-up)
 * variant traverses the same graph with a different property-traffic
 * mix — sequential scans of unvisited vertices plus random reads of
 * source states — so its TLB profile, and therefore its huge-page
 * sensitivity, differs.
 *
 * Expected shape: both directions suffer without huge pages and both
 * benefit from property-array THP; the pull variant's miss rate is
 * lower on high-diameter/community graphs (its random reads hit the
 * already-settled hot prefix) and its benefit from selective THP is
 * correspondingly smaller but still present.
 */

#include <iostream>

#include "common.hh"
#include "core/kernels.hh"
#include "core/machine.hh"
#include "core/views.hh"
#include "graph/datasets.hh"

using namespace gpsm;
using namespace gpsm::bench;
using namespace gpsm::core;

namespace
{

struct Sample
{
    double seconds = 0.0;
    double dtlbMiss = 0.0;
    double walkRate = 0.0;
};

template <typename Kernel>
Sample
measure(const Options &opts, const graph::CsrGraph &g, bool prop_thp,
        Kernel &&kernel)
{
    SimMachine machine(opts.base.sys,
                       prop_thp ? vm::ThpConfig::madvise()
                                : vm::ThpConfig::never());
    SimView<std::uint64_t> view(machine, g, {});
    if (prop_thp)
        view.advisePropertyFraction(1.0);
    view.load(unreachedDist);

    tlb::Mmu &mmu = machine.mmu();
    const Cycles c0 = mmu.totalCycles();
    const std::uint64_t a0 = mmu.accesses.value();
    const std::uint64_t m0 = mmu.dtlbMisses.value();
    const std::uint64_t w0 = mmu.walks.value();
    kernel(view);
    Sample s;
    s.seconds =
        machine.config().costs.seconds(mmu.totalCycles() - c0);
    const double acc =
        static_cast<double>(mmu.accesses.value() - a0);
    s.dtlbMiss = (mmu.dtlbMisses.value() - m0) / acc;
    s.walkRate = (mmu.walks.value() - w0) / acc;
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseOptions(argc, argv);
    printHeader("Ablation: push vs pull BFS through the TLBs", opts);

    TableWriter table("ablation_push_pull");
    table.setHeader({"dataset", "direction", "dtlb miss (4k)",
                     "walk rate (4k)", "kernel (4k)",
                     "speedup w/ prop THP"});

    for (const std::string &ds : opts.datasets) {
        const graph::CsrGraph g = graph::makeDataset(
            graph::datasetByName(ds), opts.base.scaleDivisor);
        const graph::NodeId root = defaultRoot(g);
        const graph::CsrGraph t = graph::transpose(g);

        auto push = [&](auto &view) { bfs(view, root); };
        auto pull = [&](auto &view) { bfsPull(view, root); };

        const Sample push4k = measure(opts, g, false, push);
        const Sample pushthp = measure(opts, g, true, push);
        note("  push %s done", ds.c_str());
        const Sample pull4k = measure(opts, t, false, pull);
        const Sample pullthp = measure(opts, t, true, pull);
        note("  pull %s done", ds.c_str());

        table.addRow({ds, "push", TableWriter::pct(push4k.dtlbMiss),
                      TableWriter::pct(push4k.walkRate),
                      formatSeconds(push4k.seconds),
                      TableWriter::speedup(push4k.seconds /
                                           pushthp.seconds)});
        table.addRow({ds, "pull", TableWriter::pct(pull4k.dtlbMiss),
                      TableWriter::pct(pull4k.walkRate),
                      formatSeconds(pull4k.seconds),
                      TableWriter::speedup(pull4k.seconds /
                                           pullthp.seconds)});
    }
    table.print(std::cout);
    return 0;
}
