/**
 * @file
 * The benchmark's workloads: fixed experiment grids, each chosen so a
 * different gpsm layer does most of the host work.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hh"

namespace perfbench
{

/** Table 2 sizes are divided by this in every workload. */
constexpr std::uint64_t defaultDivisor = 2048;

struct Workload
{
    std::string name;
    /** One pass runs these in order; each is one operation. */
    std::vector<gpsm::core::ExperimentConfig> configs;
    /** Passes run with record-and-replay enabled. */
    bool replay = false;
};

/** Names accepted by makeWorkload(), in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/**
 * Build workload @p name; @p seed seeds the dataset generator, so the
 * same seed gives the same inputs. Throws std::invalid_argument for an
 * unknown name.
 */
Workload makeWorkload(const std::string &name, std::uint64_t seed,
                      std::uint64_t divisor = defaultDivisor);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
