#include "workloads.hh"

#include <stdexcept>

#include "util/units.hh"

namespace perfbench
{

using gpsm::core::App;
using gpsm::core::ExperimentConfig;

namespace
{

ExperimentConfig
base(App app, std::uint64_t seed, std::uint64_t divisor)
{
    ExperimentConfig cfg;
    cfg.app = app;
    cfg.dataset = "kron";
    cfg.scaleDivisor = divisor;
    cfg.seed = seed;
    return cfg;
}

/**
 * Live kernels on fresh machines: 4KB pages, and the paper's selective
 * THP (DBG reordering + madvise on 1% of the property array). The
 * kernel and the TLB-miss/page-walk path carry most of the host time.
 */
std::vector<ExperimentConfig>
incoreTranslate(std::uint64_t seed, std::uint64_t divisor)
{
    std::vector<ExperimentConfig> configs;
    for (App app : {App::Bfs, App::Pr}) {
        ExperimentConfig small = base(app, seed, divisor);
        configs.push_back(small);

        ExperimentConfig selective = small;
        selective.reorder = gpsm::graph::ReorderMethod::Dbg;
        selective.thpMode = gpsm::vm::ThpMode::Madvise;
        selective.madvise =
            gpsm::core::MadviseSelection::propertyOnly(0.01);
        configs.push_back(selective);
    }
    return configs;
}

/**
 * Fig. 9's grid for SSSP under replay: a memhog-pinned 4KB baseline,
 * then THP always x fragmentation {0, 25, 50, 75%} x {natural,
 * property-first}. Two streams are recorded live (one per allocation
 * order) and the other seven configs replay; host time goes to replay
 * dispatch, machine assembly, aging, compaction and khugepaged.
 */
std::vector<ExperimentConfig>
agedReplaySweep(std::uint64_t seed, std::uint64_t divisor)
{
    std::vector<ExperimentConfig> configs;
    ExperimentConfig pinned = base(App::Sssp, seed, divisor);
    pinned.constrainMemory = true;
    // WSS + 3GB of a 64GB node, scaled to the configured node size.
    pinned.slackBytes = static_cast<std::int64_t>(
        3.0 * gpsm::GiB *
        (static_cast<double>(pinned.sys.node.bytes) / (64.0 * gpsm::GiB)));
    configs.push_back(pinned);
    for (double frag : {0.0, 0.25, 0.5, 0.75}) {
        ExperimentConfig natural = pinned;
        natural.thpMode = gpsm::vm::ThpMode::Always;
        natural.fragLevel = frag;
        configs.push_back(natural);

        ExperimentConfig prop_first = natural;
        prop_first.order = gpsm::core::AllocOrder::PropertyFirst;
        configs.push_back(prop_first);
    }
    return configs;
}

/**
 * CSR arrays served from files on a node half the working set: the
 * address-space cache's radix index, eviction, dirty writeback during
 * the load and storage re-faults during the kernel run only here.
 */
std::vector<ExperimentConfig>
outOfCore(std::uint64_t seed, std::uint64_t divisor)
{
    std::vector<ExperimentConfig> configs;
    for (App app : {App::Bfs, App::Pr}) {
        for (gpsm::mem::EvictionKind policy :
             {gpsm::mem::EvictionKind::Clock,
              gpsm::mem::EvictionKind::Lru}) {
            ExperimentConfig cfg = base(app, seed, divisor);
            cfg.oocRatio = 2.0;
            cfg.oocEviction = policy;
            configs.push_back(cfg);
        }
    }
    return configs;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "incore_translate", "aged_replay_sweep", "out_of_core"};
    return names;
}

Workload
makeWorkload(const std::string &name, std::uint64_t seed,
             std::uint64_t divisor)
{
    if (name == "incore_translate")
        return Workload{name, incoreTranslate(seed, divisor), false};
    if (name == "aged_replay_sweep")
        return Workload{name, agedReplaySweep(seed, divisor), true};
    if (name == "out_of_core")
        return Workload{name, outOfCore(seed, divisor), false};
    std::string known;
    for (const std::string &n : workloadNames())
        known += (known.empty() ? "" : ", ") + n;
    throw std::invalid_argument("unknown workload '" + name +
                                "' (known: " + known + ")");
}

} // namespace perfbench
