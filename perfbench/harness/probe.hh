/**
 * @file
 * Host speed probe, run just before and after each timed experiment.
 * The shared host drifts between speed regimes up to ~1.6x apart over
 * seconds to minutes; multiplying an experiment's wall time by the
 * probes' speed index gives nominal seconds, which drift far less.
 *
 * The probe is a branchy lookup loop over a small set-associative tag
 * array, the kind of work the simulator's TLB and cache models do. Of
 * the probe kinds tried (see perfbench/README.md), it tracked pass
 * times best. It is part of the benchmark's definition: its loop, sizes
 * and nominal time must never change, or normalised figures from
 * different revisions stop being comparable.
 */

#ifndef PERFBENCH_PROBE_HH
#define PERFBENCH_PROBE_HH

#include <cstdint>
#include <vector>

#include "timing.hh"

namespace perfbench
{

/**
 * Seconds of one probe round on the reference host (4-core Xeon, KVM
 * guest). A fixed constant, not calibrated per run; it only sets the
 * scale of the normalised figures.
 */
constexpr double nominalProbeSeconds = 0.0165;

/**
 * Speed index of a probe that took @p seconds per round: nominal /
 * measured. Above 1 means the host runs faster than nominal, so
 * nominal seconds = wall seconds x index.
 */
double speedIndex(double seconds);

/** Speed index of a timed section: the geometric mean of the indices
 *  of the probes just before and just after it. */
double passIndex(double before, double after);

class SpeedProbe
{
  public:
    SpeedProbe();

    /** One probe (~0.05 s on the reference host): three rounds, of
     *  which the median round's seconds are returned, so one
     *  interrupted round cannot skew it. */
    double run();

  private:
    std::vector<std::uint64_t> tags;
    /** Generator and hit count carried across probes, so no round can
     *  be folded away or start from a predictable point. */
    std::uint64_t rng;
    std::uint64_t hits = 0;
};

/** Wall and nominal seconds of one timed section. */
struct Timing
{
    double wall = 0.0;
    double nominal = 0.0;
};

/**
 * Times sections of work between probes: each section's nominal
 * seconds are its wall seconds x passIndex() of the probe before and
 * the probe after it. Consecutive sections share the probe between
 * them.
 */
class NominalClock
{
  public:
    NominalClock() { last = probe(); }

    template <typename Fn>
    Timing
    time(Fn &&fn)
    {
        const Clock::time_point start = Clock::now();
        fn();
        Timing t;
        t.wall = since(start);
        const double after = probe();
        t.nominal = t.wall * passIndex(last, after);
        last = after;
        return t;
    }

    /** Probe afresh after untimed work, so the next section's
     *  "before" probe is adjacent to it. */
    void reprobe() { last = probe(); }

    /** Speed index of every probe taken. */
    const std::vector<double> &indices() const { return all; }

  private:
    double
    probe()
    {
        all.push_back(speedIndex(p.run()));
        return all.back();
    }

    SpeedProbe p;
    std::vector<double> all;
    double last = 0.0;
};

} // namespace perfbench

#endif // PERFBENCH_PROBE_HH
