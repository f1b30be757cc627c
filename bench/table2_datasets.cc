/**
 * @file
 * Paper Table 2: evaluation applications and inputs — node counts,
 * edge counts and per-application memory footprints, for the paper's
 * datasets and for the scaled instances this reproduction generates.
 */

#include <iostream>

#include "common.hh"
#include "graph/datasets.hh"

using namespace gpsm;
using namespace gpsm::bench;
using namespace gpsm::core;

int
main(int argc, char **argv)
{
    const Options opts = parseOptions(argc, argv);
    printHeader("Table 2: datasets (paper vs scaled instances)", opts);

    TableWriter table("table2");
    table.setHeader({"dataset", "paper nodes", "paper edges",
                     "scaled nodes", "scaled edges", "avg degree",
                     "bfs/pr footprint", "sssp footprint"});

    for (const auto &spec : graph::standardDatasets()) {
        const graph::CsrGraph g =
            graph::makeDataset(spec, opts.base.scaleDivisor);
        note("  generated %s", g.summary(spec.shortName).c_str());
        table.addRow({spec.paperName,
                      std::to_string(spec.paperNodes),
                      std::to_string(spec.paperEdges),
                      std::to_string(g.numNodes()),
                      std::to_string(g.numEdges()),
                      TableWriter::num(g.averageDegree(), 1),
                      formatBytes(g.footprintBytes(false)),
                      formatBytes(g.footprintBytes(true))});
    }
    table.print(std::cout);

    // Degree distributions (hotness skew drives everything else).
    for (const auto &spec : graph::standardDatasets()) {
        const graph::CsrGraph g =
            graph::makeDataset(spec, opts.base.scaleDivisor);
        auto h = g.degreeHistogram();
        std::cout << spec.shortName
                  << " out-degree: mean=" << TableWriter::num(h.mean(), 1)
                  << " max=" << h.max() << " p99<="
                  << h.percentileUpperBound(0.99) << '\n';
    }
    return 0;
}
