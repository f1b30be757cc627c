/**
 * @file
 * Trace record-and-replay implementation.
 */

#include "core/replay.hh"

#include <mutex>
#include <set>
#include <sstream>
#include <unordered_map>

#include "core/experiment.hh"
#include "obs/profiler.hh"
#include "tlb/mmu.hh"
#include "util/logging.hh"

namespace gpsm::core
{

namespace
{

struct ReplayState
{
    std::mutex mtx;
    ReplayOptions opts;
    std::unordered_map<std::string,
                       std::shared_ptr<const RecordedTrace>>
        traces;
    /** Keys a run is currently recording. */
    std::set<std::string> recording;
    /** Keys pinned to live execution (recording overflowed). */
    std::set<std::string> pinnedLive;
    /**
     * Decode-once cache: the compiled form of each replayed stream. A
     * null mapped value pins the key to the streaming decoder (decoded
     * size over budget, or a stride the fixed-width record cannot
     * carry).
     */
    std::unordered_map<std::string,
                       std::shared_ptr<const CompiledTrace>>
        compiled;
    ReplayStats stats;
};

ReplayState &
state()
{
    static ReplayState s;
    return s;
}

} // namespace

void
setReplay(const ReplayOptions &opts)
{
    ReplayState &s = state();
    std::lock_guard<std::mutex> lock(s.mtx);
    s.opts = opts;
}

const ReplayOptions &
replayOptions()
{
    // Read without the lock: benches set options once before any
    // experiment runs.
    return state().opts;
}

ReplayStats
replayStats()
{
    ReplayState &s = state();
    std::lock_guard<std::mutex> lock(s.mtx);
    return s.stats;
}

void
resetReplayCache()
{
    ReplayState &s = state();
    std::lock_guard<std::mutex> lock(s.mtx);
    s.traces.clear();
    s.recording.clear();
    s.pinnedLive.clear();
    s.compiled.clear();
    s.stats = ReplayStats{};
}

std::string
streamFingerprint(const ExperimentConfig &cfg)
{
    std::ostringstream os;
    os << std::hexfloat;
    os << "stream-v1|" << static_cast<int>(cfg.app) << '|'
       << cfg.dataset << '|' << cfg.scaleDivisor << '|' << cfg.seed
       << '|' << static_cast<int>(cfg.reorder) << '|'
       << static_cast<int>(cfg.order) << '|' << cfg.giantProperty
       << '|' << cfg.prMaxIters << ',' << cfg.prDamping << ','
       << cfg.prEpsilon << ',' << cfg.ssspDelta << ','
       << cfg.ccMaxIters << '|' << cfg.sys.node.basePageBytes << ','
       << cfg.sys.node.hugeOrder << ',' << cfg.sys.node.giantOrder;
    return os.str();
}

std::shared_ptr<const RecordedTrace>
replayLookup(const std::string &key)
{
    ReplayState &s = state();
    std::lock_guard<std::mutex> lock(s.mtx);
    auto it = s.traces.find(key);
    if (it == s.traces.end())
        return nullptr;
    ++s.stats.replayed;
    return it->second;
}

bool
replayClaimRecording(const std::string &key)
{
    ReplayState &s = state();
    std::lock_guard<std::mutex> lock(s.mtx);
    if (s.pinnedLive.count(key) != 0 || s.recording.count(key) != 0)
        return false;
    s.recording.insert(key);
    return true;
}

void
replayPublish(const std::string &key,
              std::shared_ptr<const RecordedTrace> trace)
{
    ReplayState &s = state();
    std::lock_guard<std::mutex> lock(s.mtx);
    s.traces[key] = std::move(trace);
    s.recording.erase(key);
    ++s.stats.recorded;
}

void
replayAbandon(const std::string &key, bool pin_live)
{
    ReplayState &s = state();
    std::lock_guard<std::mutex> lock(s.mtx);
    s.recording.erase(key);
    if (pin_live) {
        s.pinnedLive.insert(key);
        ++s.stats.fallbacks;
    }
}

KernelOutcome
replayOrRun(const ExperimentConfig &cfg, tlb::Mmu &mmu,
            const std::function<KernelOutcome()> &live)
{
    if (!replayOptions().enabled)
        return live();
    const std::string key = streamFingerprint(cfg);
    if (const auto published = replayLookup(key)) {
        // Compiled when the byte budget allows, else streaming:
        // identical counters either way.
        const auto compiled = [&] {
            obs::ProfScope prof(obs::ProfPhase::ReplayDecode);
            return compiledLookup(key, *published);
        }();
        obs::ProfScope prof(obs::ProfPhase::ReplayDispatch);
        if (compiled)
            replayCompiled(*compiled, mmu);
        else
            replayTrace(*published, mmu);
        return KernelOutcome{published->kernelOutput, published->checksum};
    }
    if (!replayClaimRecording(key)) {
        noteReplayFallback();
        return live();
    }

    TraceRecorder recorder(replayOptions().maxTraceBytes);
    mmu.setAccessRecorder(&recorder);
    KernelOutcome out;
    try {
        out = live();
    } catch (...) {
        mmu.setAccessRecorder(nullptr);
        replayAbandon(key, /*pin_live=*/false);
        throw;
    }
    mmu.setAccessRecorder(nullptr);
    if (recorder.overflowed()) {
        replayAbandon(key, /*pin_live=*/true);
    } else {
        replayPublish(key, std::make_shared<RecordedTrace>(
                               recorder.take(out.output, out.checksum)));
    }
    return out;
}

void
noteReplayFallback()
{
    ReplayState &s = state();
    std::lock_guard<std::mutex> lock(s.mtx);
    ++s.stats.fallbacks;
}

TraceRecorder::TraceRecorder(std::uint64_t max_bytes)
    : maxBytes(max_bytes)
{
}

void
TraceRecorder::putHeader(unsigned tag, bool write, bool run)
{
    GPSM_ASSERT(tag < 8, "tag does not fit the record header");
    bytes.push_back(static_cast<std::uint8_t>(
        tag | (write ? 0x08 : 0) | (run ? 0x10 : 0)));
}

void
TraceRecorder::putVarint(std::uint64_t v)
{
    while (v >= 0x80) {
        bytes.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    bytes.push_back(static_cast<std::uint8_t>(v));
}

void
TraceRecorder::putDelta(std::uint64_t addr)
{
    const std::int64_t d =
        static_cast<std::int64_t>(addr - prev);
    // Zigzag: small negative deltas (back-and-forth array hops) stay
    // short.
    putVarint((static_cast<std::uint64_t>(d) << 1) ^
              static_cast<std::uint64_t>(d >> 63));
    prev = addr;
}

void
TraceRecorder::recordAccess(std::uint64_t vaddr, bool write,
                            unsigned tag)
{
    if (overflow)
        return;
    putHeader(tag, write, /*run=*/false);
    putDelta(vaddr);
    ++records;
    if (bytes.size() > maxBytes)
        overflow = true;
}

void
TraceRecorder::recordRun(std::uint64_t start, std::size_t count,
                         std::size_t stride, bool write, unsigned tag)
{
    if (overflow)
        return;
    putHeader(tag, write, /*run=*/true);
    putDelta(start);
    putVarint(count);
    putVarint(stride);
    ++records;
    if (bytes.size() > maxBytes)
        overflow = true;
}

RecordedTrace
TraceRecorder::take(std::uint64_t kernel_output, std::uint64_t checksum)
{
    GPSM_ASSERT(!overflow, "overflowed trace must not be published");
    RecordedTrace t;
    t.bytes = std::move(bytes);
    t.bytes.shrink_to_fit();
    t.records = records;
    t.kernelOutput = kernel_output;
    t.checksum = checksum;
    return t;
}

void
replayTrace(const RecordedTrace &trace, tlb::Mmu &mmu)
{
    const std::uint8_t *p = trace.bytes.data();
    const std::uint8_t *const end = p + trace.bytes.size();
    std::uint64_t prev = 0;
    std::uint64_t seen = 0;

    auto varint = [&p, end]() {
        std::uint64_t v = 0;
        unsigned shift = 0;
        for (;;) {
            GPSM_ASSERT(p < end, "truncated replay trace");
            const std::uint8_t b = *p++;
            v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
            if ((b & 0x80) == 0)
                return v;
            shift += 7;
        }
    };

    while (p < end) {
        const std::uint8_t h = *p++;
        const unsigned tag = h & 0x07;
        const bool write = (h & 0x08) != 0;
        const std::uint64_t z = varint();
        const std::uint64_t addr =
            prev + ((z >> 1) ^ (~(z & 1) + 1));
        prev = addr;
        if ((h & 0x10) != 0) {
            const std::uint64_t count = varint();
            const std::uint64_t stride = varint();
            mmu.translateRun(addr, count, stride, write, tag);
        } else {
            mmu.access(addr, write, tag);
        }
        ++seen;
    }
    GPSM_ASSERT(seen == trace.records,
                "replay trace record count mismatch");
}

namespace
{

/** Decode @p trace into @p out; false when a run stride does not fit
 *  the fixed-width record (the caller pins the streaming decoder). */
bool
compileInto(CompiledTrace &out, const RecordedTrace &trace)
{
    out.records.clear();
    out.records.reserve(trace.records);

    const std::uint8_t *p = trace.bytes.data();
    const std::uint8_t *const end = p + trace.bytes.size();
    std::uint64_t prev = 0;

    auto varint = [&p, end]() {
        std::uint64_t v = 0;
        unsigned shift = 0;
        for (;;) {
            GPSM_ASSERT(p < end, "truncated replay trace");
            const std::uint8_t b = *p++;
            v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
            if ((b & 0x80) == 0)
                return v;
            shift += 7;
        }
    };

    while (p < end) {
        const std::uint8_t h = *p++;
        const std::uint64_t z = varint();
        CompiledRecord rec;
        rec.addr = prev + ((z >> 1) ^ (~(z & 1) + 1));
        prev = rec.addr;
        rec.tag = h & 0x07;
        rec.flags = (h & 0x08) != 0 ? CompiledRecord::flagWrite : 0;
        if ((h & 0x10) != 0) {
            rec.flags |= CompiledRecord::flagRun;
            rec.count = varint();
            const std::uint64_t stride = varint();
            if (stride > UINT32_MAX)
                return false;
            rec.stride = static_cast<std::uint32_t>(stride);
        }
        out.records.push_back(rec);
    }
    GPSM_ASSERT(out.records.size() == trace.records,
                "compiled trace record count mismatch");
    return true;
}

} // namespace

CompiledTrace
compileTrace(const RecordedTrace &trace)
{
    CompiledTrace out;
    const bool ok = compileInto(out, trace);
    GPSM_ASSERT(ok, "run stride exceeds the compiled record");
    return out;
}

std::shared_ptr<const CompiledTrace>
compiledLookup(const std::string &key, const RecordedTrace &trace)
{
    ReplayState &s = state();
    std::uint64_t budget;
    {
        std::lock_guard<std::mutex> lock(s.mtx);
        auto it = s.compiled.find(key);
        if (it != s.compiled.end()) {
            if (it->second != nullptr)
                ++s.stats.compiledHits;
            return it->second;
        }
        budget = s.opts.maxTraceBytes;
    }

    // The decoded size is known before decoding: records are fixed
    // width. A stream over budget is pinned (null entry) so the size
    // math runs once, not per replay.
    const std::uint64_t decoded_bytes =
        trace.records * sizeof(CompiledRecord);
    std::shared_ptr<const CompiledTrace> compiled;
    if (decoded_bytes <= budget) {
        // Decode outside the lock: concurrent replays of one stream
        // may both decode, and the first publish wins — harmless, the
        // decoded form is a pure function of the trace.
        auto fresh = std::make_shared<CompiledTrace>();
        if (compileInto(*fresh, trace))
            compiled = std::move(fresh);
    }

    std::lock_guard<std::mutex> lock(s.mtx);
    auto it = s.compiled.find(key);
    if (it != s.compiled.end()) {
        if (it->second != nullptr)
            ++s.stats.compiledHits;
        return it->second;
    }
    s.compiled.emplace(key, compiled);
    if (compiled != nullptr)
        ++s.stats.compiled;
    else
        ++s.stats.compiledOverflows;
    return compiled;
}

void
replayCompiled(const CompiledTrace &trace, tlb::Mmu &mmu)
{
    const CompiledRecord *const recs = trace.records.data();
    const std::size_t n = trace.records.size();
    for (std::size_t i = 0; i < n; ++i) {
        // Stay ahead of the dispatch: pull the record line a few
        // entries out.
        if (i + 8 < n)
            __builtin_prefetch(&recs[i + 8]);
        const CompiledRecord &rec = recs[i];
        const bool write =
            (rec.flags & CompiledRecord::flagWrite) != 0;
        if ((rec.flags & CompiledRecord::flagRun) != 0)
            mmu.translateRun(rec.addr, rec.count, rec.stride, write,
                             rec.tag);
        else
            mmu.access(rec.addr, write, rec.tag);
    }
}

} // namespace gpsm::core
