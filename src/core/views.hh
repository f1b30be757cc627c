/**
 * @file
 * Graph data views: the four paper arrays (vertex, edge, values,
 * property — Fig. 5) bound either to simulated memory (SimView) or to
 * plain host memory (NativeView, the correctness oracle). Kernels are
 * templates over the view type, so the traced and native executions
 * run the exact same algorithm code.
 */

#ifndef GPSM_CORE_VIEWS_HH
#define GPSM_CORE_VIEWS_HH

#include <optional>
#include <vector>

#include "core/alloc_order.hh"
#include "core/file_source.hh"
#include "core/sim_array.hh"
#include "graph/csr.hh"

namespace gpsm::core
{

/** Half-open edge-index range of one vertex's out-edges. */
struct EdgeRange
{
    graph::EdgeIdx begin;
    graph::EdgeIdx end;
};

/**
 * View of one graph plus its property array in simulated memory.
 *
 * Lifecycle: construct (mmaps the VMAs) -> madvise via the advise*
 * helpers -> load() (demand-faults everything with traced writes) ->
 * run kernels. @tparam PropT property element (uint64_t for BFS/SSSP
 * distances, double for PageRank).
 */
template <typename PropT>
class SimView
{
  public:
    struct Options
    {
        AllocOrder order = AllocOrder::Natural;
        /** Allocate the values (edge weight) array (SSSP). */
        bool needValues = false;
        /** Allocate the auxiliary property array (PageRank's next-rank
         *  accumulators; grouped with the property array for THP
         *  purposes). */
        bool needAux = false;
        /**
         * Where the input files are staged (paper §4.3). The default
         * matches the paper's controlled experiments: tmpfs bound to
         * the remote NUMA node — no local page-cache interference,
         * remote-DRAM read cost.
         */
        FileSource fileSource = FileSource::TmpfsRemote;
        /**
         * Back the property (+aux) arrays with giant pages from the
         * node's hugetlbfs-style pool (extension: the 1GB-page option
         * the paper's related work points to for large footprints).
         */
        bool giantProperty = false;
    };

    SimView(SimMachine &machine, const graph::CsrGraph &graph,
            const Options &options)
        : mach(&machine), g(&graph), opts(options)
    {
        // mmap order is fixed; only fault (load) order varies.
        // Out-of-core mode backs the CSR arrays (vertex/edge/values)
        // with file mappings; the property (+aux) arrays stay
        // anonymous — they are the kernel's working set and the swap
        // path already covers them.
        const bool fb = machine.config().fileBackedCsr;
        if (fb) {
            vertex.emplace(machine, graph.vertexArray().size(),
                           "vertex", TagVertex, FileBackedTag{});
            edge.emplace(machine, graph.edgeArray().size(), "edge",
                         TagEdge, FileBackedTag{});
        } else {
            vertex.emplace(machine, graph.vertexArray().size(),
                           "vertex", TagVertex);
            edge.emplace(machine, graph.edgeArray().size(), "edge",
                         TagEdge);
        }
        if (opts.needValues) {
            GPSM_ASSERT(graph.weighted(),
                        "values array requested for unweighted graph");
            if (fb)
                values.emplace(machine, graph.valuesArray().size(),
                               "values", TagValues, FileBackedTag{});
            else
                values.emplace(machine, graph.valuesArray().size(),
                               "values", TagValues);
        }
        prop.emplace(machine, graph.numNodes(), "property",
                     TagProperty, opts.giantProperty);
        if (opts.needAux)
            aux.emplace(machine, graph.numNodes(), "property_aux",
                        TagProperty, opts.giantProperty);
    }

    /** @name Pre-load madvise helpers (paper §4.1, §5.2) @{ */
    void
    advisePropertyFraction(double fraction)
    {
        prop->adviseHugeFraction(fraction);
        if (aux)
            aux->adviseHugeFraction(fraction);
    }
    void adviseVertexArray() { vertex->adviseHugeFraction(1.0); }
    void adviseEdgeArray() { edge->adviseHugeFraction(1.0); }
    void
    adviseValuesArray()
    {
        if (values)
            values->adviseHugeFraction(1.0);
    }
    /** @} */

    /**
     * Fault everything in: CSR arrays are copied element-wise from the
     * graph (modeling the file read loop), the property array is
     * initialized to @p prop_init. Order follows Options::order.
     */
    void
    load(PropT prop_init)
    {
        std::uint64_t file_bytes = vertex->bytes() + edge->bytes();
        if (values)
            file_bytes += values->bytes();
        const std::uint64_t file_pages =
            divCeil(file_bytes, mach->space().basePageBytes());
        const tlb::CostModel &costs = mach->config().costs;
        switch (opts.fileSource) {
          case FileSource::PageCacheLocal:
            mach->stageInputFiles(file_bytes);
            mach->mmu().chargeIo(file_pages *
                                 costs.fileReadLocalCacheCycles);
            break;
          case FileSource::TmpfsRemote:
            // Flat per-page surcharge for *staging input files* from a
            // far node's tmpfs. Remote placement of the application's
            // own memory is no longer modeled this way — use a two-node
            // SystemConfig with NumaPlacement::RemoteOnly, which
            // charges per access/fault on the translated frame's node.
            mach->mmu().chargeIo(file_pages *
                                 costs.fileReadRemoteCycles);
            break;
          case FileSource::DirectIo:
            mach->mmu().chargeIo(file_pages *
                                 costs.fileReadDirectIoCycles);
            break;
        }

        auto load_csr = [&]() {
            vertex->loadFrom(g->vertexArray());
            edge->loadFrom(g->edgeArray());
            if (values)
                values->loadFrom(g->valuesArray());
        };
        auto load_prop = [&]() {
            prop->fill(prop_init);
            if (aux)
                aux->fill(PropT{});
        };

        if (opts.order == AllocOrder::PropertyFirst) {
            load_prop();
            load_csr();
        } else {
            load_csr();
            load_prop();
        }
    }

    /** @name Kernel interface @{ */
    graph::NodeId numNodes() const { return g->numNodes(); }
    graph::EdgeIdx numEdges() const { return g->numEdges(); }

    graph::EdgeIdx edgeBegin(graph::NodeId v) { return vertex->get(v); }
    /** Both CSR offsets of @p v in one batched translation. */
    EdgeRange
    edgeRange(graph::NodeId v)
    {
        const auto [b, e] = vertex->getPair(v);
        return {b, e};
    }
    graph::NodeId edgeTarget(graph::EdgeIdx e) { return edge->get(e); }
    graph::Weight weight(graph::EdgeIdx e) { return values->get(e); }

    PropT propGet(graph::NodeId v) { return prop->get(v); }
    void propSet(graph::NodeId v, PropT x) { prop->set(v, x); }

    PropT auxGet(graph::NodeId v) { return aux->get(v); }
    void auxSet(graph::NodeId v, PropT x) { aux->set(v, x); }
    void auxAdd(graph::NodeId v, PropT x) { aux->add(v, x); }
    /** @} */

    /** @name Introspection @{ */
    const std::vector<PropT> &propRaw() const { return prop->raw(); }

    std::uint64_t
    footprintBytes() const
    {
        std::uint64_t bytes = vertex->bytes() + edge->bytes() +
                              prop->bytes();
        if (values)
            bytes += values->bytes();
        if (aux)
            bytes += aux->bytes();
        return bytes;
    }

    std::uint64_t
    propertyBytes() const
    {
        return prop->bytes() + (aux ? aux->bytes() : 0);
    }

    SimMachine &machine() { return *mach; }
    const graph::CsrGraph &graph() const { return *g; }
    SimArray<graph::EdgeIdx> &vertexArray() { return *vertex; }
    SimArray<graph::NodeId> &edgeArray() { return *edge; }
    SimArray<PropT> &propArray() { return *prop; }
    /** @} */

  private:
    SimMachine *mach;
    const graph::CsrGraph *g;
    Options opts;

    std::optional<SimArray<graph::EdgeIdx>> vertex;
    std::optional<SimArray<graph::NodeId>> edge;
    std::optional<SimArray<graph::Weight>> values;
    std::optional<SimArray<PropT>> prop;
    std::optional<SimArray<PropT>> aux;
};

/**
 * Untraced view over the same graph: the reference implementation
 * kernels are verified against (and the fast path for preprocessing
 * studies).
 */
template <typename PropT>
class NativeView
{
  public:
    struct Options
    {
        bool needValues = false;
        bool needAux = false;
    };

    NativeView(const graph::CsrGraph &graph, const Options &options)
        : g(&graph), prop(graph.numNodes()),
          aux(options.needAux ? graph.numNodes() : 0)
    {
        if (options.needValues)
            GPSM_ASSERT(graph.weighted());
    }

    void
    load(PropT prop_init)
    {
        std::fill(prop.begin(), prop.end(), prop_init);
        std::fill(aux.begin(), aux.end(), PropT{});
    }

    graph::NodeId numNodes() const { return g->numNodes(); }
    graph::EdgeIdx numEdges() const { return g->numEdges(); }

    graph::EdgeIdx
    edgeBegin(graph::NodeId v) const
    {
        return g->vertexArray()[v];
    }
    EdgeRange
    edgeRange(graph::NodeId v) const
    {
        return {g->vertexArray()[v],
                g->vertexArray()[static_cast<size_t>(v) + 1]};
    }
    graph::NodeId
    edgeTarget(graph::EdgeIdx e) const
    {
        return g->edgeArray()[e];
    }
    graph::Weight weight(graph::EdgeIdx e) const
    {
        return g->valuesArray()[e];
    }

    PropT propGet(graph::NodeId v) const { return prop[v]; }
    void propSet(graph::NodeId v, PropT x) { prop[v] = x; }

    PropT auxGet(graph::NodeId v) const { return aux[v]; }
    void auxSet(graph::NodeId v, PropT x) { aux[v] = x; }
    void auxAdd(graph::NodeId v, PropT x) { aux[v] += x; }

    const std::vector<PropT> &propRaw() const { return prop; }

  private:
    const graph::CsrGraph *g;
    std::vector<PropT> prop;
    std::vector<PropT> aux;
};

} // namespace gpsm::core

#endif // GPSM_CORE_VIEWS_HH
