#include "emit.hh"

#include <stdexcept>

#include "obs/json.hh"

namespace perfbench
{

const std::vector<MetricDef> &
metricCatalogue()
{
    static const std::vector<MetricDef> defs = {
        {"setup_s", "s", false},
        {"wall_norm_s", "s", false},
        {"maccess_per_norm_s", "Macc/s", false},
        {"peak_rss_mib", "MiB", false},

        {"graph.build_s", "s", true},
        {"graph.medges_per_s", "Medges/s", true},
        {"graph.reorder_s", "s", true},
        {"core.machine_s", "s", true},
        {"core.load_s", "s", true},
        {"core.kernel_s", "s", true},
        {"core.kernel_ns_per_access", "ns", true},
        {"core.kernel_compute_s", "s", true},
        {"core.sim_kernel_s", "s", true},
        {"tlb.dispatch_s", "s", true},
        {"tlb.ns_per_access", "ns", true},
        {"tlb.cache_model_s", "s", true},
        {"tlb.accesses", "count", true},
        {"tlb.dtlb_misses", "count", true},
        {"tlb.stlb_hits", "count", true},
        {"tlb.walks", "count", true},
        {"tlb.walk_share", "ratio", true},
        {"replay.decode_s", "s", true},
        {"replay.dispatch_s", "s", true},
        {"replay.trace_mib", "MiB", true},
        {"replay.hit_share", "ratio", true},
        {"mem.age_s", "s", true},
        {"mem.compaction_runs", "count", true},
        {"mem.pages_migrated", "count", true},
        {"mem.huge_fallbacks", "count", true},
        {"mem.file_reads", "count", true},
        {"mem.file_writebacks", "count", true},
        {"mem.file_evictions", "count", true},
        {"vm.khugepaged_s", "s", true},
        {"vm.promotions", "count", true},
        {"vm.minor_faults", "count", true},
        {"vm.huge_faults", "count", true},
        {"obs.traced_overhead_pct", "%", true},
        {"host.speed_index", "ratio", true},
        {"host.setup_s", "s", true},
        {"host.wall_s", "s", true},
        {"host.maccess_per_s", "Macc/s", true},
    };
    return defs;
}

void
ResultLine::set(const std::string &name, double value)
{
    for (const MetricDef &d : metricCatalogue()) {
        if (d.name == name && d.traced == tracedRun) {
            values[name] = value;
            return;
        }
    }
    throw std::invalid_argument("metric '" + name +
                                "' is not reported by this kind of run");
}

std::string
ResultLine::render(bool correct, std::uint64_t attempted,
                   std::uint64_t failed) const
{
    gpsm::obs::Json metrics = gpsm::obs::Json::object();
    for (const MetricDef &d : metricCatalogue()) {
        if (d.traced != tracedRun)
            continue;
        const auto it = values.find(d.name);
        if (it == values.end())
            throw std::logic_error("metric '" + d.name + "' was not set");
        gpsm::obs::Json m = gpsm::obs::Json::object();
        m.set("value", gpsm::obs::Json(it->second));
        m.set("unit", gpsm::obs::Json(d.unit));
        metrics.set(d.name, std::move(m));
    }
    gpsm::obs::Json out = gpsm::obs::Json::object();
    out.set("correct", gpsm::obs::Json(correct));
    out.set("attempted", gpsm::obs::Json(attempted));
    out.set("failed", gpsm::obs::Json(failed));
    out.set("metrics", std::move(metrics));
    return out.dump();
}

} // namespace perfbench
