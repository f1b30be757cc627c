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

namespace
{

/** @p mmu's cache model if a kernel's cache outcome on it is a
 *  function of the model's start state and the stream alone (a remote
 *  tier adds per-frame miss penalties), else null. */
tlb::CacheModel *
outcomeModel(tlb::Mmu &mmu)
{
    return mmu.hasRemoteNode() ? nullptr : mmu.cacheModel();
}

/** @p model's counters and @p mmu's memoryCycles as totals, in the
 *  fields a CacheOutcome holds their increments in. */
CacheOutcome
cacheTotals(const tlb::Mmu &mmu, const tlb::CacheModel &model)
{
    CacheOutcome c;
    c.accesses = model.accesses.value();
    c.misses = model.memoryAccesses();
    for (size_t i = 0; i < model.levels(); ++i)
        c.hits.push_back(model.hitsAt(i));
    c.memoryCycles = mmu.memoryCycles.value();
    return c;
}

/**
 * Dispatch @p trace through @p mmu, reusing its CacheOutcome when the
 * model starts where the recording's did and nothing reads the cache
 * mid-kernel; @return whether it was reused.
 */
bool
dispatchTrace(const RecordedTrace &trace, tlb::Mmu &mmu)
{
    tlb::CacheModel *model = outcomeModel(mmu);
    if (!trace.cache || model == nullptr || mmu.sampleHookArmed() ||
        model->digest() != trace.cache->startDigest) {
        replayCompiled(*trace.packed, mmu);
        return false;
    }
    std::unique_ptr<tlb::CacheModel> detached = mmu.detachCacheModel();
    try {
        replayCompiled(*trace.packed, mmu);
    } catch (...) {
        mmu.attachCacheModel(std::move(detached));
        throw;
    }
    const CacheOutcome &out = *trace.cache;
    detached->restoreState(out.end);
    detached->accesses += out.accesses;
    detached->misses += out.misses;
    for (size_t i = 0; i < out.hits.size(); ++i)
        detached->addHits(i, out.hits[i]);
    mmu.memoryCycles += out.memoryCycles;
    mmu.attachCacheModel(std::move(detached));
    return true;
}

void
noteCacheReused()
{
    ReplayState &s = state();
    std::lock_guard<std::mutex> lock(s.mtx);
    ++s.stats.cacheReused;
}

} // namespace

KernelOutcome
replayOrRun(const ExperimentConfig &cfg, tlb::Mmu &mmu,
            const std::function<KernelOutcome()> &live)
{
    if (!replayOptions().enabled)
        return live();
    const std::string key = streamFingerprint(cfg);
    if (const auto published = replayLookup(key)) {
        obs::ProfScope prof(obs::ProfPhase::ReplayDispatch);
        if (dispatchTrace(*published, mmu))
            noteCacheReused();
        return KernelOutcome{published->kernelOutput, published->checksum};
    }
    if (!replayClaimRecording(key)) {
        noteReplayFallback();
        return live();
    }

    const tlb::CacheModel *model = outcomeModel(mmu);
    const std::uint64_t start_digest = model ? model->digest() : 0;
    const CacheOutcome start =
        model ? cacheTotals(mmu, *model) : CacheOutcome{};
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
        return out;
    }
    auto trace = std::make_shared<RecordedTrace>(
        recorder.take(out.output, out.checksum));
    if (model) {
        CacheOutcome delta = cacheTotals(mmu, *model);
        delta.startDigest = start_digest;
        delta.end = model->saveState();
        delta.accesses -= start.accesses;
        delta.misses -= start.misses;
        for (size_t i = 0; i < delta.hits.size(); ++i)
            delta.hits[i] -= start.hits[i];
        delta.memoryCycles -= start.memoryCycles;
        trace->cache = std::move(delta);
    }
    replayPublish(key, std::move(trace));
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

std::uint32_t *
TraceRecorder::room(std::size_t n)
{
    if (stream.chunks.empty() ||
        stream.chunks.back().size() + n > CompiledTrace::chunkWords) {
        stream.chunks.emplace_back();
        stream.chunks.back().reserve(CompiledTrace::chunkWords);
    }
    std::vector<std::uint32_t> &chunk = stream.chunks.back();
    chunk.resize(chunk.size() + n);
    words += n;
    return chunk.data() + chunk.size() - n;
}

void
TraceRecorder::endRecord()
{
    ++records;
    if (words * sizeof(std::uint32_t) > maxBytes) {
        // The trace is unusable: give its memory back now rather
        // than when the live kernel finishes.
        overflow = true;
        stream = CompiledTrace{};
    }
}

namespace
{

std::uint32_t
headerWord(unsigned tag, bool write)
{
    GPSM_ASSERT(tag < 8, "tag does not fit the record header");
    return tag | (write ? 0x08u : 0u);
}

void
putWide(std::uint32_t *p, std::uint64_t v)
{
    p[0] = static_cast<std::uint32_t>(v);
    p[1] = static_cast<std::uint32_t>(v >> 32);
}

} // namespace

void
TraceRecorder::recordAccess(std::uint64_t vaddr, bool write,
                            unsigned tag)
{
    if (overflow)
        return;
    const std::uint32_t h = headerWord(tag, write);
    if ((vaddr & 3) == 0 && vaddr < (std::uint64_t{1} << 29)) {
        *room(1) = static_cast<std::uint32_t>(vaddr >> 2) << 5 | h;
    } else {
        std::uint32_t *p = room(3);
        p[0] = h | 0x10;
        putWide(p + 1, vaddr);
    }
    endRecord();
}

void
TraceRecorder::recordRun(std::uint64_t start, std::size_t count,
                         std::size_t stride, bool write, unsigned tag)
{
    if (overflow)
        return;
    std::uint32_t *p = room(7);
    p[0] = headerWord(tag, write) | 0x30;
    putWide(p + 1, start);
    putWide(p + 3, count);
    putWide(p + 5, stride);
    endRecord();
}

std::uint64_t
TraceRecorder::heldBytes() const
{
    std::uint64_t bytes = 0;
    for (const auto &c : stream.chunks)
        bytes += c.capacity() * sizeof(std::uint32_t);
    return bytes;
}

RecordedTrace
TraceRecorder::take(std::uint64_t kernel_output, std::uint64_t checksum)
{
    GPSM_ASSERT(!overflow, "overflowed trace must not be published");
    if (!stream.chunks.empty())
        stream.chunks.back().shrink_to_fit();
    RecordedTrace t;
    t.packed = std::make_shared<const CompiledTrace>(std::move(stream));
    t.records = records;
    t.kernelOutput = kernel_output;
    t.checksum = checksum;
    return t;
}

void
replayCompiled(const CompiledTrace &trace, tlb::Mmu &mmu)
{
    visitRecords(trace, mmu);
}

std::shared_ptr<const CompiledTrace>
compiledLookup(const std::string &, const RecordedTrace &trace)
{
    return trace.packed;
}

CompiledTrace
compileTrace(const RecordedTrace &trace)
{
    return *trace.packed;
}

} // namespace gpsm::core
