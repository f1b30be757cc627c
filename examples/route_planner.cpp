/**
 * @file
 * Route-planning scenario (paper §3.2's SSSP motivation): build a
 * weighted road-network-like graph and answer shortest-path queries
 * under a memory-constrained deployment with selective huge pages.
 *
 * Demonstrates running a kernel repeatedly on one loaded SimView
 * (queries share the warmed TLB state).
 *
 * Usage: route_planner [nodes]
 */

#include <cstdlib>
#include <iostream>

#include "core/kernels.hh"
#include "core/machine.hh"
#include "core/views.hh"
#include "graph/builder.hh"
#include "graph/generators.hh"
#include "mem/memhog.hh"
#include "util/table.hh"

using namespace gpsm;
using namespace gpsm::core;

int
main(int argc, char **argv)
{
    graph::NodeId nodes = 1u << 18;
    if (argc > 1)
        nodes = static_cast<graph::NodeId>(
            std::strtoull(argv[1], nullptr, 10));

    // A road-ish network: strong spatial community (junctions connect
    // to nearby junctions) plus a few long-haul links.
    graph::PowerLawParams params;
    params.nodes = nodes;
    params.avgDegree = 6;
    params.theta = 0.2;      // mild degree skew
    params.community = 0.95; // almost all edges are local
    params.communityWindow = 512;
    params.seed = 7;
    graph::Builder builder(nodes);
    const graph::CsrGraph road = builder.fromEdgesWeighted(
        graph::powerLawEdges(params), /*max_weight=*/60, 7);
    std::cout << road.summary("road network") << "\n\n";

    // Deploy on a busy node with selective THP on the distance array.
    SimMachine machine(SystemConfig::scaled(),
                       vm::ThpConfig::madvise());
    mem::Memhog tenants(machine.node());
    tenants.occupyAllBut(road.footprintBytes(true) +
                         machine.config().node.bytes / 32);

    SimView<std::uint64_t>::Options vopts;
    vopts.order = AllocOrder::PropertyFirst;
    vopts.needValues = true;
    SimView<std::uint64_t> view(machine, road, vopts);
    view.advisePropertyFraction(1.0);
    view.load(unreachedDist);

    TableWriter table("shortest-path queries");
    table.setHeader({"query root", "reached", "query time",
                     "walk rate"});
    Rng rng(42);
    for (int q = 0; q < 3; ++q) {
        const auto root =
            static_cast<graph::NodeId>(rng.below(nodes));
        // Reset distances between queries (traced writes, like a
        // server zeroing its result buffer).
        for (graph::NodeId v = 0; v < nodes; ++v)
            view.propSet(v, unreachedDist);

        const Cycles c0 = machine.mmu().totalCycles();
        const std::uint64_t w0 = machine.mmu().walks.value();
        const std::uint64_t a0 = machine.mmu().accesses.value();
        const std::uint64_t reached = sssp(view, root, /*delta=*/16);
        const Cycles c1 = machine.mmu().totalCycles();

        const double walk_rate =
            static_cast<double>(machine.mmu().walks.value() - w0) /
            static_cast<double>(machine.mmu().accesses.value() - a0);
        table.addRow({std::to_string(root), std::to_string(reached),
                      formatSeconds(machine.config().costs.seconds(
                          c1 - c0)),
                      TableWriter::pct(walk_rate)});
    }
    table.print(std::cout, /*with_csv=*/false);

    std::cout << "huge pages backing the app: "
              << formatBytes(machine.space().hugeBackedBytes())
              << " of "
              << formatBytes(machine.space().footprintBytes())
              << " footprint\n";
    return 0;
}
