/**
 * @file
 * Paper Fig. 4: per-data-structure access profile of the push-based
 * kernels — how often each of the four arrays is touched and which of
 * them is responsible for the TLB misses.
 *
 * Expected shape: edge and property arrays receive the bulk of the
 * accesses, but the property array (pointer-indirect, irregular)
 * causes the overwhelming majority of DTLB misses and walks, while
 * the edge array streams sequentially.
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

int
main(int argc, char **argv)
{
    const Options opts = parseOptions(argc, argv);
    printHeader("Fig. 4: per-array access and TLB-miss profile (BFS)",
                opts);

    TableWriter table("fig04");
    table.setHeader({"dataset", "array", "accesses", "share",
                     "dtlb misses", "walks", "walk share"});

    for (const std::string &ds : opts.datasets) {
        const graph::CsrGraph g = graph::makeDataset(
            graph::datasetByName(ds), opts.base.scaleDivisor);

        SimMachine machine(opts.base.sys,
                           vm::ThpConfig::never());
        SimView<std::uint64_t> view(machine, g, {});
        view.load(unreachedDist);

        // Profile the kernel phase only.
        struct Snap
        {
            std::uint64_t acc, miss, walk;
        };
        Snap before[tlb::Mmu::numTags];
        for (unsigned t = 0; t < tlb::Mmu::numTags; ++t) {
            const auto &ts = machine.mmu().tagStats(t);
            before[t] = {ts.accesses.value(), ts.dtlbMisses.value(),
                         ts.walks.value()};
        }

        bfs(view, defaultRoot(g));

        std::uint64_t total_acc = 0;
        std::uint64_t total_walks = 0;
        Snap delta[tlb::Mmu::numTags];
        for (unsigned t = 0; t < tlb::Mmu::numTags; ++t) {
            const auto &ts = machine.mmu().tagStats(t);
            delta[t] = {ts.accesses.value() - before[t].acc,
                        ts.dtlbMisses.value() - before[t].miss,
                        ts.walks.value() - before[t].walk};
            total_acc += delta[t].acc;
            total_walks += delta[t].walk;
        }

        for (unsigned t : {TagVertex, TagEdge, TagProperty}) {
            const Snap &d = delta[t];
            table.addRow(
                {ds, arrayTagName(t), std::to_string(d.acc),
                 TableWriter::pct(static_cast<double>(d.acc) /
                                  static_cast<double>(total_acc)),
                 std::to_string(d.miss), std::to_string(d.walk),
                 TableWriter::pct(
                     total_walks
                         ? static_cast<double>(d.walk) /
                               static_cast<double>(total_walks)
                         : 0.0)});
        }
        note("  profiled bfs/%s", ds.c_str());
    }
    table.print(std::cout);
    return 0;
}
