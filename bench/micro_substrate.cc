/**
 * @file
 * Micro-benchmarks of the substrate hot paths: buddy allocation, page
 * table walks, TLB lookups, full MMU accesses (random and sequential),
 * compaction, DBG reordering, graph generation and CSR assembly.
 *
 * Unlike the figure benches these measure *wall time of the simulator
 * itself*, not simulated cycles, so numbers vary run to run. Output
 * goes through the standard TableWriter (text table + CSV block) so
 * run_benches.sh journals it like the fig benches, and --emit-bench
 * writes the measurements as JSON (CI gates its thresholds on it).
 *
 * Harness flags shared with the fig benches (--jobs, --journal,
 * --metrics-dir, ...) are accepted and ignored: the cases here run no
 * experiments, but the suite driver passes one flag set to every
 * binary.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "common.hh"
#include "core/kernels.hh"
#include "core/machine.hh"
#include "core/replay.hh"
#include "core/views.hh"
#include "graph/builder.hh"
#include "graph/generators.hh"
#include "graph/reorder.hh"
#include "mem/buddy_allocator.hh"
#include "mem/compactor.hh"
#include "mem/memory_node.hh"
#include "obs/json.hh"
#include "tlb/tlb.hh"
#include "util/rng.hh"
#include "util/table.hh"
#include "vm/page_table.hh"

using namespace gpsm;

namespace
{

struct CaseResult
{
    std::string name;
    std::uint64_t items = 0;  ///< work units per repetition
    double nsPerItem = 0.0;   ///< best-of-repetitions
};

/**
 * Run @p body `reps` times around `items` work units; keep the best
 * repetition (the usual microbenchmark noise-floor estimate).
 */
CaseResult
timeCase(const std::string &name, std::uint64_t items, unsigned reps,
         const std::function<void()> &body)
{
    using clock = std::chrono::steady_clock;
    double best_ns = 0.0;
    for (unsigned r = 0; r < reps; ++r) {
        const auto t0 = clock::now();
        body();
        const auto t1 = clock::now();
        const double ns = static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count());
        if (r == 0 || ns < best_ns)
            best_ns = ns;
    }
    CaseResult res;
    res.name = name;
    res.items = items;
    res.nsPerItem = best_ns / static_cast<double>(items);
    return res;
}

/** Defeat dead-code elimination without observable side effects. */
volatile std::uint64_t gSink;

void
sink(std::uint64_t v)
{
    gSink = v;
}

core::SystemConfig
smallConfig(bool with_cache)
{
    core::SystemConfig cfg = core::SystemConfig::scaled();
    cfg.node.bytes = 64_MiB;
    cfg.enableCache = with_cache;
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    std::string emit_bench;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
            quick = true;
        } else if (arg == "--emit-bench") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value after %s\n",
                             arg.c_str());
                return 1;
            }
            emit_bench = argv[++i];
        } else if (arg == "--help" || arg == "-h") {
            std::fprintf(stderr,
                         "usage: %s [--quick] [--emit-bench PATH]\n"
                         "(common bench-harness flags are accepted and "
                         "ignored)\n",
                         argv[0]);
            return 0;
        } else if (!bench::skipHarnessFlag(argc, argv, i)) {
            std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
            return 1;
        }
    }

    const unsigned reps = quick ? 2 : 3;
    std::vector<CaseResult> results;

    // --- buddy allocator: random alloc/free churn ---
    {
        const std::uint64_t iters = quick ? 200'000 : 2'000'000;
        results.push_back(timeCase("buddy_alloc_free", iters, reps, [&]() {
            mem::BuddyAllocator buddy(1 << 16, 9);
            std::vector<mem::FrameNum> live;
            live.reserve(4096);
            Rng rng(1);
            for (std::uint64_t i = 0; i < iters; ++i) {
                if (live.size() < 4096 &&
                    (live.empty() || rng.chance(0.55))) {
                    mem::FrameNum f =
                        buddy.allocate(0, mem::Migratetype::Movable, 1);
                    if (f != mem::invalidFrame)
                        live.push_back(f);
                } else {
                    const size_t j = rng.below(live.size());
                    buddy.free(live[j]);
                    live[j] = live.back();
                    live.pop_back();
                }
            }
            for (mem::FrameNum f : live)
                buddy.free(f);
        }));
    }

    // --- buddy allocator: huge-order alloc/free ---
    {
        const std::uint64_t iters = quick ? 100'000 : 1'000'000;
        results.push_back(timeCase("buddy_huge_alloc", iters, reps, [&]() {
            mem::BuddyAllocator buddy(1 << 16, 9);
            std::uint64_t acc = 0;
            for (std::uint64_t i = 0; i < iters; ++i) {
                mem::FrameNum f =
                    buddy.allocate(9, mem::Migratetype::Movable, 1);
                acc += f;
                buddy.free(f);
            }
            sink(acc);
        }));
    }

    // --- TLB: L1 hit loop ---
    {
        const std::uint64_t iters = quick ? 2'000'000 : 20'000'000;
        results.push_back(timeCase("tlb_lookup_hit", iters, reps, [&]() {
            tlb::Tlb t("t",
                       {tlb::TlbGeometry{64, 4}, tlb::TlbGeometry{32, 4}});
            for (std::uint64_t v = 0; v < 64; ++v)
                t.insert(v, vm::PageSizeClass::Base, v);
            std::uint64_t acc = 0;
            for (std::uint64_t i = 0; i < iters; ++i)
                acc +=
                    t.lookup(i & 63, vm::PageSizeClass::Base).hit ? 1 : 0;
            sink(acc);
        }));
    }

    // --- page table: mixed-size walk loop (translate-heavy) ---
    {
        const std::uint64_t pages = 1 << 14;
        const std::uint64_t iters = quick ? 2'000'000 : 20'000'000;
        vm::PageTable pt(6, 12);
        // Half the VPN space base-mapped, half huge-mapped.
        for (std::uint64_t v = 0; v < pages / 2; ++v)
            pt.mapBase(v, v);
        for (std::uint64_t v = pages / 2; v < pages; v += 64)
            pt.mapHuge(v, v);
        results.push_back(timeCase("page_table_walk", iters, reps, [&]() {
            Rng rng(3);
            std::uint64_t acc = 0;
            for (std::uint64_t i = 0; i < iters; ++i) {
                const auto t = pt.lookup(rng.below(pages));
                acc += t.valid ? t.pte.frame : 0;
            }
            sink(acc);
        }));
    }

    // --- MMU: random hot accesses (cache model on) ---
    {
        const std::uint64_t iters = quick ? 1'000'000 : 10'000'000;
        core::SimMachine m(smallConfig(true), vm::ThpConfig::never());
        core::SimArray<std::uint64_t> arr(m, 1 << 16, "a",
                                          core::TagProperty);
        arr.fill(1);
        results.push_back(timeCase("mmu_access_hot", iters, reps, [&]() {
            Rng rng(2);
            std::uint64_t acc = 0;
            for (std::uint64_t i = 0; i < iters; ++i)
                acc += arr.get(rng.below(1 << 16));
            sink(acc);
        }));
    }

    // --- MMU: random gathers over a translation-heavy footprint (the
    //     irregular property-array pattern; 2^20 elements span far
    //     more pages than mmu_access_hot) ---
    {
        const std::uint64_t elems = 1 << 20;
        const std::uint64_t samples = 1 << 16;
        const std::uint64_t iters = quick ? 1'000'000 : 10'000'000;
        core::SimMachine m(smallConfig(true), vm::ThpConfig::never());
        core::SimArray<std::uint64_t> arr(m, elems, "a",
                                          core::TagProperty);
        arr.fill(1);

        // Pre-drawn index tables: the timed loop measures the MMU
        // access path, not the generator or the distribution math.
        std::vector<std::uint32_t> uniform(samples);
        Rng urng(7);
        for (auto &v : uniform)
            v = static_cast<std::uint32_t>(urng.below(elems));
        results.push_back(
            timeCase("mmu_rand_gather", iters, reps, [&]() {
                std::uint64_t acc = 0;
                for (std::uint64_t i = 0; i < iters; ++i)
                    acc += arr.get(uniform[i & (samples - 1)]);
                sink(acc);
            }));

        // Zipf (s=1) ranks via inverse-CDF over harmonic weights:
        // hub-dominated, like real graph frontiers.
        std::vector<double> cdf(elems);
        double total = 0.0;
        for (std::uint64_t i = 0; i < elems; ++i) {
            total += 1.0 / static_cast<double>(i + 1);
            cdf[i] = total;
        }
        std::vector<std::uint32_t> zipf(samples);
        Rng zrng(11);
        for (auto &v : zipf) {
            const double u = zrng.uniform() * total;
            v = static_cast<std::uint32_t>(
                std::lower_bound(cdf.begin(), cdf.end(), u) -
                cdf.begin());
        }
        results.push_back(
            timeCase("mmu_rand_gather_zipf", iters, reps, [&]() {
                std::uint64_t acc = 0;
                for (std::uint64_t i = 0; i < iters; ++i)
                    acc += arr.get(zipf[i & (samples - 1)]);
                sink(acc);
            }));
    }

    // --- replay: packed-trace dispatch (the sweep-replay inner
    //     loop: recorded words straight into the MMU) ---
    {
        const std::uint64_t elems = 1 << 18;
        const std::uint64_t records = quick ? 1 << 16 : 1 << 18;
        core::SimMachine m(smallConfig(false), vm::ThpConfig::never());
        core::SimArray<std::uint64_t> arr(m, elems, "a",
                                          core::TagProperty);
        arr.fill(1);

        core::TraceRecorder recorder(1ull << 30);
        Rng rng(5);
        for (std::uint64_t i = 0; i < records; ++i) {
            const std::uint64_t addr =
                arr.vaddr() + rng.below(elems) * sizeof(std::uint64_t);
            if ((i & 63) == 63) {
                recorder.recordRun(addr, 64, sizeof(std::uint64_t),
                                   /*write=*/false, core::TagProperty);
            } else {
                recorder.recordAccess(addr, /*write=*/false,
                                      core::TagProperty);
            }
        }
        const core::RecordedTrace trace = recorder.take(0, 0);
        results.push_back(
            timeCase("replay_dispatch", records, reps, [&]() {
                core::replayCompiled(*trace.packed, m.mmu());
            }));
    }

    // --- MMU: sequential scans (the translateRun path;
    //     translate-heavy with the cache model off) ---
    {
        const std::uint64_t elems = 1 << 20;
        const std::uint64_t scans = quick ? 8 : 32;
        core::SimMachine m(smallConfig(false), vm::ThpConfig::never());
        core::SimArray<std::uint64_t> arr(m, elems, "a",
                                          core::TagProperty);
        arr.fill(1);
        results.push_back(
            timeCase("mmu_seq_scan", elems * scans, reps, [&]() {
                for (std::uint64_t s = 0; s < scans; ++s)
                    m.mmu().translateRun(arr.vaddr(), elems,
                                         sizeof(std::uint64_t),
                                         /*write=*/false, arr.arrayTag());
            }));
    }
    {
        const std::uint64_t elems = 1 << 20;
        const std::uint64_t scans = quick ? 4 : 16;
        core::SimMachine m(smallConfig(true), vm::ThpConfig::never());
        core::SimArray<std::uint64_t> arr(m, elems, "a",
                                          core::TagProperty);
        arr.fill(1);
        results.push_back(
            timeCase("mmu_seq_scan_cached", elems * scans, reps, [&]() {
                for (std::uint64_t s = 0; s < scans; ++s)
                    m.mmu().translateRun(arr.vaddr(), elems,
                                         sizeof(std::uint64_t),
                                         /*write=*/false, arr.arrayTag());
            }));
    }

    // --- compaction ---
    {
        const std::uint64_t iters = quick ? 200 : 1000;
        results.push_back(timeCase("compaction", iters, reps, [&]() {
            for (std::uint64_t i = 0; i < iters; ++i) {
                mem::MemoryNode::Params p;
                p.bytes = 16_MiB;
                p.basePageBytes = 4_KiB;
                p.hugeOrder = 6;
                mem::MemoryNode node(p);
                // One movable page per region (worst-case scatter),
                // owned by a registered client so migration callbacks
                // run.
                struct MovableOwner : mem::PageClient
                {
                    void migratePage(mem::FrameNum,
                                     mem::FrameNum) override
                    {
                    }
                    const char *clientName() const override
                    {
                        return "micro";
                    }
                };
                static MovableOwner owner;
                const std::uint16_t id = node.registerClient(&owner);
                for (std::uint64_t r = 0; r < 64; ++r)
                    (void)node.buddy().allocateExact(
                        r * 64 + 13, 0, mem::Migratetype::Movable, id);
                mem::Compactor compactor(node);
                sink(compactor.createHugeRegion().migratedPages);
            }
        }));
    }

    // --- graph: R-MAT generation (honors the build-jobs knob) ---
    {
        graph::RmatParams p;
        p.scale = quick ? 16 : 18;
        p.edgeFactor = 16;
        const auto m = static_cast<std::uint64_t>(p.edgeFactor) *
                       (1ull << p.scale);
        results.push_back(timeCase("rmat_generate", m, reps, [&]() {
            auto edges = graph::rmatEdges(p);
            sink(edges.size());
        }));

        // --- graph: CSR assembly from the same edge list ---
        const std::vector<graph::Edge> edges = graph::rmatEdges(p);
        graph::Builder b(1u << p.scale);
        results.push_back(timeCase("csr_build", edges.size(), reps, [&]() {
            const graph::CsrGraph g = b.fromEdges(edges);
            sink(g.numEdges());
        }));

        // --- graph: DBG reorder (mapping + relabel) ---
        const graph::CsrGraph g = b.fromEdges(edges);
        results.push_back(timeCase("dbg_reorder", g.numEdges(), reps, [&]() {
            const auto mapping =
                graph::reorderMapping(g, graph::ReorderMethod::Dbg);
            const graph::CsrGraph rg = graph::applyMapping(g, mapping);
            sink(rg.numEdges());
        }));

        // --- native BFS (kernel code, no simulation) ---
        const graph::NodeId root = core::defaultRoot(g);
        results.push_back(timeCase("native_bfs", g.numEdges(), reps, [&]() {
            core::NativeView<std::uint64_t> view(g, {});
            view.load(core::unreachedDist);
            sink(core::bfs(view, root));
        }));
    }

    TableWriter table("micro_substrate (wall time, best of reps)");
    table.setHeader({"case", "items", "ns/item", "Mitems/s"});
    for (const CaseResult &r : results) {
        const double mips =
            r.nsPerItem > 0.0 ? 1e3 / r.nsPerItem : 0.0;
        table.addRow({r.name, std::to_string(r.items),
                      TableWriter::num(r.nsPerItem, 2),
                      TableWriter::num(mips, 2)});
    }
    table.print(std::cout);

    if (!emit_bench.empty()) {
        obs::Json doc = obs::Json::object();
        doc.set("schema", "gpsm-microbench-v1");
        doc.set("bench", "micro_substrate");
        obs::Json cases = obs::Json::object();
        for (const CaseResult &r : results) {
            obs::Json c = obs::Json::object();
            c.set("items", r.items);
            c.set("ns_per_item", r.nsPerItem);
            cases.set(r.name, std::move(c));
        }
        doc.set("cases", std::move(cases));
        std::ofstream out(emit_bench);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n", emit_bench.c_str());
            return 1;
        }
        out << doc.dump(2) << "\n";
    }
    return 0;
}
