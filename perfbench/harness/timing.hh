/**
 * @file
 * Host wall-clock helpers shared by the benchmark's drivers.
 */

#ifndef PERFBENCH_TIMING_HH
#define PERFBENCH_TIMING_HH

#include <chrono>
#include <type_traits>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Host seconds since @p start. */
inline double
since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Run @p fn, adding its host seconds to @p acc; returns fn's result. */
template <typename Fn>
auto
timed(double &acc, Fn &&fn)
{
    const Clock::time_point start = Clock::now();
    if constexpr (std::is_void_v<decltype(fn())>) {
        fn();
        acc += since(start);
    } else {
        auto r = fn();
        acc += since(start);
        return r;
    }
}

} // namespace perfbench

#endif // PERFBENCH_TIMING_HH
