/**
 * @file
 * Order statistics for the benchmark's repeated measurements.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace perfbench
{

/** Median of @p values (mean of the middle pair for even counts). */
inline double
median(std::vector<double> values)
{
    if (values.empty())
        throw std::invalid_argument("median of no values");
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/**
 * First, second and third quartile by the same rule as Python's
 * statistics.quantiles(values, n=4) (the default "exclusive" method),
 * so spreads printed here match the ones the benchmark is judged by.
 * Needs at least two values.
 */
inline std::array<double, 3>
quartiles(std::vector<double> values)
{
    const std::size_t n = values.size();
    if (n < 2)
        throw std::invalid_argument("quartiles need two values");
    std::sort(values.begin(), values.end());
    std::array<double, 3> q{};
    const std::size_t m = n + 1;
    for (std::size_t i = 1; i <= 3; ++i) {
        const std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, n - 1);
        const double delta = static_cast<double>(i * m) -
                             static_cast<double>(j * 4);
        q[i - 1] = (values[j - 1] * (4.0 - delta) + values[j] * delta) /
                   4.0;
    }
    return q;
}

/** Interquartile range as a share of the median (0 for < 2 values). */
inline double
relativeSpread(const std::vector<double> &values)
{
    if (values.size() < 2)
        return 0.0;
    const std::array<double, 3> q = quartiles(values);
    return q[1] != 0.0 ? (q[2] - q[0]) / q[1] : 0.0;
}

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
