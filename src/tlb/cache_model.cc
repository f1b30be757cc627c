/**
 * @file
 * CacheModel implementation.
 */

#include "tlb/cache_model.hh"

#include <algorithm>

#include "util/bitops.hh"
#include "util/logging.hh"

namespace gpsm::tlb
{

CacheModel::CacheModel(std::vector<CacheLevelConfig> levels,
                       std::uint32_t memory_cycles)
    : memCycles(memory_cycles)
{
    if (levels.empty())
        fatal("cache model needs at least one level");
    if (levels.size() > maxLevels)
        fatal("cache model supports at most %zu levels", maxLevels);
    lvls.resize(levels.size());
    for (size_t i = 0; i < levels.size(); ++i) {
        Level &lvl = lvls[i];
        lvl.cfg = levels[i];
        if (!isPowerOfTwo(lvl.cfg.lineBytes))
            fatal("cache line size must be a power of two");
        const std::uint64_t lines = lvl.cfg.bytes / lvl.cfg.lineBytes;
        if (lvl.cfg.ways == 0 || lines % lvl.cfg.ways != 0)
            fatal("cache %s: %llu lines not divisible by %u ways",
                  lvl.cfg.name.c_str(),
                  static_cast<unsigned long long>(lines), lvl.cfg.ways);
        lvl.sets = static_cast<std::uint32_t>(lines / lvl.cfg.ways);
        if (!isPowerOfTwo(lvl.sets))
            fatal("cache %s: set count %u not a power of two",
                  lvl.cfg.name.c_str(), lvl.sets);
        lvl.lineShift = floorLog2(lvl.cfg.lineBytes);
        lvl.arr.assign(static_cast<size_t>(lvl.sets) * lvl.cfg.ways,
                       Line{});
    }
    for (Line *&hint : hints)
        hint = lvls[0].arr.data();
}

std::uint32_t
CacheModel::probe(Addr addr, unsigned tag,
                  std::uint32_t miss_extra_cycles)
{
    ++accesses;
    // One pass per level: the probe scan also selects the LRU victim
    // (first invalid way, else minimum stamp — stamps are unique), so
    // a miss installs the line without re-walking the set. Fill order
    // matches the probe order: the hit line is stamped during its
    // level's scan, then every level above the hit point is filled
    // L1-first. The hierarchy is non-inclusive: no level
    // back-invalidates another, and a hit leaves outer levels'
    // stamps alone.
    const size_t n = lvls.size();
    Line *victims[maxLevels];
    size_t hit_level = n;
    for (size_t i = 0; i < n; ++i) {
        Level &lvl = lvls[i];
        const std::uint64_t block = addr >> lvl.lineShift;
        Line *set = lvl.set(block);
        Line *victim = set;
        bool hit = false;
        for (std::uint32_t w = 0; w < lvl.cfg.ways; ++w) {
            Line &line = set[w];
            if ((line.tag == block) & (line.stamp != 0)) {
                line.stamp = ++stampCounter;
                hit = true;
                if (i == 0)
                    hints[tag] = &line;
                break;
            }
            // Min-stamp over every line doubles as invalid-first: an
            // invalid line carries stamp 0, strictly below any valid
            // stamp, and the strict compare keeps the *first* minimal
            // line — exactly the first-invalid-else-LRU victim the
            // explicit have_invalid branch used to select, minus the
            // branch in the hottest loop of the simulator.
            if (line.stamp < victim->stamp)
                victim = &line;
        }
        if (hit) {
            hit_level = i;
            break;
        }
        victims[i] = victim;
    }

    for (size_t i = 0; i < hit_level && i < n; ++i) {
        victims[i]->tag = addr >> lvls[i].lineShift;
        victims[i]->stamp = ++stampCounter;
    }
    if (hit_level != 0)
        hints[tag] = victims[0];

    if (hit_level == n) {
        ++misses;
        return memCycles + miss_extra_cycles;
    }
    ++lvls[hit_level].hits;
    return lvls[hit_level].cfg.hitCycles;
}

std::uint64_t
CacheModel::accessRun(Addr start, std::size_t stride, std::uint64_t n,
                      unsigned tag, std::uint32_t miss_extra_cycles)
{
    std::uint64_t cycles = 0;
    Level &l1 = lvls[0];
    const std::uint64_t line_bytes = l1.cfg.lineBytes;
    std::uint64_t i = 0;
    while (i < n) {
        const Addr addr = start + i * stride;
        cycles += access(addr, tag, miss_extra_cycles);
        std::uint64_t k = 1;
        if (stride < line_bytes) {
            const Addr line_end =
                (addr & ~(line_bytes - 1)) + line_bytes;
            k = std::min<std::uint64_t>(
                n - i, (line_end - addr + stride - 1) / stride);
        }
        if (k > 1) {
            // The remaining k-1 elements share the line just probed,
            // which access() left resident, most-recently-stamped and
            // hinted in L1: each would hit L1 and restamp it. Account
            // all of them at once.
            const std::uint64_t r = k - 1;
            accesses += r;
            l1.hits += r;
            stampCounter += r;
            hints[tag]->stamp = stampCounter;
            cycles += r * l1.cfg.hitCycles;
        }
        i += k;
    }
    return cycles;
}

void
CacheModel::flushAll()
{
    for (Level &lvl : lvls)
        for (Line &line : lvl.arr)
            line.stamp = 0;
}

CacheModel::State
CacheModel::saveState() const
{
    State state;
    state.stampCounter = stampCounter;
    std::vector<const Line *> valid;
    for (const Level &lvl : lvls) {
        state.lines.reserve(state.lines.size() + lvl.arr.size());
        for (size_t base = 0; base < lvl.arr.size(); base += lvl.cfg.ways) {
            valid.clear();
            for (std::uint32_t w = 0; w < lvl.cfg.ways; ++w)
                if (lvl.arr[base + w].stamp != 0)
                    valid.push_back(&lvl.arr[base + w]);
            std::sort(valid.begin(), valid.end(),
                      [](const Line *a, const Line *b) {
                          return a->stamp < b->stamp;
                      });
            state.lines.insert(state.lines.end(),
                               lvl.cfg.ways - valid.size(),
                               State::invalidTag);
            for (const Line *line : valid)
                state.lines.push_back(line->tag);
        }
    }
    return state;
}

void
CacheModel::restoreState(const State &state)
{
    auto next = state.lines.begin();
    for (Level &lvl : lvls) {
        GPSM_ASSERT(static_cast<size_t>(state.lines.end() - next) >=
                        lvl.arr.size(),
                    "cache state saved from another geometry");
        for (size_t base = 0; base < lvl.arr.size(); base += lvl.cfg.ways) {
            std::uint64_t stamp = 0;
            for (std::uint32_t w = 0; w < lvl.cfg.ways; ++w, ++next) {
                Line &line = lvl.arr[base + w];
                line.tag = *next == State::invalidTag ? 0 : *next;
                line.stamp = *next == State::invalidTag ? 0 : ++stamp;
            }
            // Saved stamps were set-unique and at most the counter.
            GPSM_ASSERT(stamp <= state.stampCounter);
        }
    }
    GPSM_ASSERT(next == state.lines.end(),
                "cache state saved from another geometry");
    stampCounter = state.stampCounter;
    for (Line *&hint : hints)
        hint = lvls[0].arr.data();
}

std::uint64_t
CacheModel::digest() const
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i, v >>= 8) {
            h ^= v & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    mix(lvls.size());
    mix(memCycles);
    mix(stampCounter);
    for (const Level &lvl : lvls) {
        mix(lvl.cfg.bytes);
        mix(lvl.cfg.ways);
        mix(lvl.cfg.lineBytes);
        mix(lvl.cfg.hitCycles);
        for (const Line &line : lvl.arr) {
            mix(line.tag);
            mix(line.stamp);
        }
    }
    return h;
}

void
CacheModel::registerStats(StatSet &stats, const std::string &prefix) const
{
    stats.registerCounter(prefix + ".accesses", &accesses,
                          "data cache probes");
    stats.registerCounter(prefix + ".memoryAccesses", &misses,
                          "probes missing every level");
    for (const Level &lvl : lvls)
        stats.registerCounter(prefix + "." + lvl.cfg.name + ".hits",
                              &lvl.hits, "hits at this level");
}

} // namespace gpsm::tlb
