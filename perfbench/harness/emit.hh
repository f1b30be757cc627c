/**
 * @file
 * The benchmark's metric catalogue and its one-line JSON result.
 */

#ifndef PERFBENCH_EMIT_HH
#define PERFBENCH_EMIT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

struct MetricDef
{
    std::string name;
    std::string unit;
    /** Reported by the traced run (per-layer) rather than the
     *  untraced one (end-to-end). */
    bool traced = false;
};

/** Every metric, in BENCHMARK.json order. */
const std::vector<MetricDef> &metricCatalogue();

/**
 * Collects one run's metric values and renders the result line:
 * {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
 */
class ResultLine
{
  public:
    explicit ResultLine(bool traced) : tracedRun(traced) {}

    /** Record @p name; throws std::invalid_argument for a name that
     *  is not in the catalogue for this kind of run. */
    void set(const std::string &name, double value);

    /** The JSON line; throws std::logic_error if a metric of this
     *  kind of run was never set. */
    std::string render(bool correct, std::uint64_t attempted,
                       std::uint64_t failed) const;

  private:
    bool tracedRun;
    std::map<std::string, double> values;
};

} // namespace perfbench

#endif // PERFBENCH_EMIT_HH
