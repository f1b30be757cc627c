#include "probe.hh"

#include <cmath>
#include <stdexcept>

#include "stats.hh"

namespace perfbench
{

namespace
{

constexpr int rounds = 3;
constexpr std::uint64_t lookupsPerRound = 1u << 20;
/** 64 sets x 8 ways of 64-bit tags: a small TLB-like structure. */
constexpr std::size_t sets = 64;
constexpr std::size_t ways = 8;
constexpr std::uint64_t probeSeed = 0x9e3779b97f4a7c15ull;

} // namespace

double
speedIndex(double seconds)
{
    if (!(seconds > 0.0))
        throw std::invalid_argument("probe time must be positive");
    return nominalProbeSeconds / seconds;
}

double
passIndex(double before, double after)
{
    return std::sqrt(before * after);
}

SpeedProbe::SpeedProbe()
    : tags(sets * ways, ~std::uint64_t{0}), rng(probeSeed)
{
}

double
SpeedProbe::run()
{
    std::vector<double> times;
    for (int r = 0; r < rounds; ++r) {
        // Random keys into the tag array with least-recently-filled
        // replacement: way 0 holds the newest tag of its set.
        const Clock::time_point start = Clock::now();
        for (std::uint64_t i = 0; i < lookupsPerRound; ++i) {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            const std::uint64_t key = (rng >> 20) & 1023;
            std::uint64_t *set = &tags[(key % sets) * ways];
            std::size_t w = 0;
            while (w < ways && set[w] != key)
                ++w;
            if (w < ways)
                ++hits;
            else
                w = ways - 1;
            for (; w > 0; --w)
                set[w] = set[w - 1];
            set[0] = key;
        }
        times.push_back(since(start));
    }
    return median(times);
}

} // namespace perfbench
