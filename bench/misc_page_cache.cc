/**
 * @file
 * Paper §4.3 "Competition for Memory Resources": single-use page-cache
 * data occupying free memory during graph loading steals the huge
 * pages the application needed. The mitigations trade load speed for
 * huge-page availability: direct I/O bypasses the cache but pays
 * storage latency per read; tmpfs on the remote NUMA node avoids the
 * interference at near-DRAM speed (the paper's choice).
 *
 * Expected shape: with the cache on the node the kernel loses its
 * huge pages (slow kernel, fast init); direct I/O and tmpfs restore
 * the huge pages (fast kernel), with tmpfs loading much faster than
 * direct I/O.
 */

#include <iostream>

#include "common.hh"
#include "core/kernels.hh"
#include "core/machine.hh"
#include "core/views.hh"
#include "graph/datasets.hh"
#include "mem/memhog.hh"

using namespace gpsm;
using namespace gpsm::bench;
using namespace gpsm::core;

namespace
{

struct Outcome
{
    double initSeconds = 0.0;
    double kernelSeconds = 0.0;
    std::uint64_t hugeBytes = 0;
    std::uint64_t cachedBytes = 0;
};

Outcome
loadAndRun(const Options &opts, const graph::CsrGraph &g,
           FileSource source)
{
    SystemConfig sys = systemConfig(opts);
    SimMachine machine(sys, vm::ThpConfig::always());

    // Slack comfortably above the huge-allocation watermark, so the
    // only thing that can starve the application of huge pages is the
    // page cache itself.
    mem::Memhog hog(machine.node());
    hog.occupyAllBut(g.footprintBytes(false) +
                     sys.node.hugeWatermarkBytes +
                     static_cast<std::uint64_t>(
                         paperGiB(2.0, sys)));

    SimView<std::uint64_t>::Options vopts;
    vopts.order = AllocOrder::Natural;
    vopts.fileSource = source;
    SimView<std::uint64_t> view(machine, g, vopts);

    Outcome out;
    const Cycles i0 = machine.mmu().totalCycles();
    view.load(unreachedDist);
    out.initSeconds =
        sys.costs.seconds(machine.mmu().totalCycles() - i0);
    out.cachedBytes = machine.stagedInputBytes();

    const Cycles c0 = machine.mmu().totalCycles();
    bfs(view, defaultRoot(g));
    out.kernelSeconds =
        sys.costs.seconds(machine.mmu().totalCycles() - c0);
    out.hugeBytes = machine.space().hugeBackedBytes();
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseOptions(argc, argv);
    printHeader("§4.3: page-cache interference with huge-page "
                "allocation (BFS)",
                opts);

    TableWriter table("page_cache");
    table.setHeader({"dataset", "file staging", "init time",
                     "kernel time", "kernel speedup vs cached",
                     "app huge bytes", "cache bytes after load"});

    for (const std::string &ds : opts.datasets) {
        const graph::CsrGraph g = graph::makeDataset(
            graph::datasetByName(ds), opts.divisor);

        const Outcome cached =
            loadAndRun(opts, g, FileSource::PageCacheLocal);
        note("  %s: page cache done", ds.c_str());
        const Outcome directio =
            loadAndRun(opts, g, FileSource::DirectIo);
        note("  %s: direct I/O done", ds.c_str());
        const Outcome tmpfs =
            loadAndRun(opts, g, FileSource::TmpfsRemote);
        note("  %s: tmpfs done", ds.c_str());

        auto row = [&](const char *name, const Outcome &o) {
            table.addRow({ds, name, formatSeconds(o.initSeconds),
                          formatSeconds(o.kernelSeconds),
                          TableWriter::speedup(cached.kernelSeconds /
                                               o.kernelSeconds),
                          formatBytes(o.hugeBytes),
                          formatBytes(o.cachedBytes)});
        };
        row("page cache on node", cached);
        row("direct I/O (bypass)", directio);
        row("tmpfs on remote node", tmpfs);
    }
    table.print(std::cout);
    return 0;
}
