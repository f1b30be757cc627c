/**
 * @file
 * Paper Fig. 6 (illustration): a narrated walk through how memory
 * fragmentation interacts with huge-page allocation while graph data
 * loads. Fig. 6 is a diagram, not measured data; this bench replays
 * its four rows against the real allocator and prints the allocator
 * state after each step.
 *
 * Expected shape: free huge regions steadily disappear as CSR arrays
 * load; by the time the property array allocates, only fragmented
 * memory remains and it receives base pages.
 */

#include <iostream>

#include "common.hh"
#include "core/kernels.hh"
#include "core/machine.hh"
#include "core/views.hh"
#include "graph/datasets.hh"
#include "mem/fragmenter.hh"
#include "mem/memhog.hh"

using namespace gpsm;
using namespace gpsm::bench;
using namespace gpsm::core;

namespace
{

void
snapshot(TableWriter &table, const std::string &step, SimMachine &m)
{
    mem::MemoryNode &node = m.node();
    table.addRow({step, formatBytes(node.freeBytes()),
                  std::to_string(node.freeHugeRegions()),
                  TableWriter::pct(node.fragmentationLevel()),
                  formatBytes(m.space().hugeBackedBytes()),
                  std::to_string(m.space().hugeFallbacks.value())});
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts = parseOptions(argc, argv);
    printHeader("Fig. 6 walkthrough: fragmentation vs huge-page "
                "allocation while loading",
                opts);

    const graph::CsrGraph g = graph::makeDataset(
        graph::datasetByName("kron"), opts.base.scaleDivisor);

    SimMachine machine(opts.base.sys, vm::ThpConfig::always());

    TableWriter table("fig06");
    table.setHeader({"step", "free bytes", "free huge regions",
                     "frag level", "app huge bytes",
                     "huge fallbacks"});

    snapshot(table, "fresh boot", machine);

    // Row 1: the system has been running; movable and non-movable
    // pages occupy most memory (memhog) and fragment what is free.
    mem::Memhog hog(machine.node());
    const std::uint64_t wss =
        g.footprintBytes(false); // vertex+edge+property
    hog.occupyAllBut(wss + static_cast<std::uint64_t>(
                               paperGiB(0.5, machine.config())));
    mem::Fragmenter frag(machine.node());
    frag.fragment(0.4);
    snapshot(table, "aged system (memhog + frag)", machine);

    // Rows 2-3: the application allocates and loads the CSR arrays;
    // the OS hands out the remaining huge regions.
    SimView<std::uint64_t>::Options vopts;
    vopts.order = AllocOrder::Natural;
    SimView<std::uint64_t> view(machine, g, vopts);
    view.load(unreachedDist);
    snapshot(table, "graph loaded (natural order)", machine);

    // Row 4: the property array, allocated last, had to fall back.
    const vm::Vma *prop =
        machine.space().findVma(view.propArray().vaddr());
    table.addRow({"property array detail",
                  formatBytes(prop->presentBasePages * 4096 +
                              prop->hugePages *
                                  machine.config().hugePageBytes()),
                  "-", "-",
                  formatBytes(prop->hugePages *
                              machine.config().hugePageBytes()),
                  std::to_string(prop->presentBasePages)});

    table.print(std::cout);

    std::cout << "buddy free lists after load:\n"
              << machine.node().buddy().dumpFreeLists() << '\n';
    return 0;
}
