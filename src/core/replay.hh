/**
 * @file
 * Trace record-and-replay for sweep benches.
 *
 * A graph kernel's *virtual access stream* — the sequence of
 * (vaddr, write, tag) scalar accesses and bulk translateRun runs it
 * issues — depends only on the graph data, the kernel and its
 * parameters, and the address-space layout. It does NOT depend on TLB
 * geometry, cost models, cache configuration, THP policy, memory
 * pressure, NUMA placement or fault plans: the kernels compute
 * host-side and the MMU charges costs without returning data. Sweeps
 * over those stream-invariant dimensions therefore re-execute the same
 * kernel only to regenerate the same stream.
 *
 * With replay enabled, the first run of each distinct stream records
 * it (delta-encoded, behind the Mmu's AccessRecorder hook) together
 * with the kernel outputs; subsequent runs whose streamFingerprint()
 * matches skip the kernel and feed the recorded stream back through
 * mmu.access()/translateRun(). Because every simulated effect — TLB
 * fills, faults, promotions, periodic khugepaged/sampler hooks — is
 * driven by that stream through the very same entry points, a replayed
 * run's counters and results are byte-identical to a live one
 * (CI-gated by diffing sweep stdout + metrics directories).
 *
 * The fingerprint guard is a whitelist: any config field that could
 * perturb the stream is part of the key, so configs differing in one
 * of them never share a trace and simply fall back to live execution.
 */

#ifndef GPSM_CORE_REPLAY_HH
#define GPSM_CORE_REPLAY_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "tlb/access_recorder.hh"

namespace gpsm::tlb
{
class Mmu;
}

namespace gpsm::core
{

struct ExperimentConfig;

/** Process-wide replay switches (set once at bench startup). */
struct ReplayOptions
{
    bool enabled = false;
    /**
     * Recording aborts (and the config is pinned to live execution)
     * once the encoded trace exceeds this size; bounds sweep memory
     * on huge kernels.
     */
    std::uint64_t maxTraceBytes = 1ull << 30;
};

void setReplay(const ReplayOptions &opts);
const ReplayOptions &replayOptions();

/** Aggregate record/replay activity (reset by resetReplayCache). */
struct ReplayStats
{
    std::uint64_t recorded = 0;  ///< traces captured and published
    std::uint64_t replayed = 0;  ///< kernel executions skipped
    std::uint64_t fallbacks = 0; ///< replay enabled but ran live
    std::uint64_t compiled = 0;  ///< streams decoded once to records
    /** Replays served from an already-decoded stream (no varint work). */
    std::uint64_t compiledHits = 0;
    /** Streams whose decoded form exceeded maxTraceBytes and were
     *  pinned to the streaming decoder. */
    std::uint64_t compiledOverflows = 0;
};

ReplayStats replayStats();

/** Drop every cached trace and zero the stats (tests). */
void resetReplayCache();

/**
 * One recorded kernel-phase stream plus the outputs that cannot be
 * recomputed without re-executing the kernel host-side.
 */
struct RecordedTrace
{
    /**
     * Record format (delta/varint, DESIGN.md §5f): each record is one
     * header byte — bits 0-2 tag, bit 3 write, bit 4 run — followed by
     * the zigzag-varint delta of the (start) address against the
     * previous record's, and, for runs, varint count and stride.
     */
    std::vector<std::uint8_t> bytes;
    std::uint64_t records = 0;
    std::uint64_t kernelOutput = 0;
    std::uint64_t checksum = 0;
};

/**
 * Serialization of exactly the fields that can perturb the kernel's
 * access stream: app + kernel parameters, dataset identity (name,
 * divisor, seed, weightedness via app), reordering, array placement
 * (AllocOrder, giantProperty) and the node page geometry the vaddr
 * layout derives from. Everything else in ExperimentConfig is
 * stream-invariant (see EXPERIMENTS.md).
 */
std::string streamFingerprint(const ExperimentConfig &cfg);

/** @name Claim-based process-wide trace cache
 * Exactly one run records a given stream (single recorder, non-
 * blocking): runs that neither find a published trace nor win the
 * claim execute live without recording, like the dataset cache's
 * single-flight discipline but without waiting.
 * @{ */

/** Published trace for @p key, or null. Counts a replay when found. */
std::shared_ptr<const RecordedTrace> replayLookup(const std::string &key);

/** Try to become @p key's recorder. False: someone else is, or the
 *  key is pinned live (earlier overflow). */
bool replayClaimRecording(const std::string &key);

/** Publish the completed trace and release the claim. */
void replayPublish(const std::string &key,
                   std::shared_ptr<const RecordedTrace> trace);

/** Release the claim without publishing; @p pin_live additionally
 *  blacklists the key (trace overflowed — don't retry). */
void replayAbandon(const std::string &key, bool pin_live);

/** Count a run that had replay enabled but executed live. */
void noteReplayFallback();
/** @} */

/** What a kernel execution yields host-side. */
struct KernelOutcome
{
    std::uint64_t output = 0;   ///< reached vertices / iterations
    std::uint64_t checksum = 0; ///< checksum of the property array
};

/**
 * The kernel phase under the replay protocol. A stream published for
 * @p cfg's streamFingerprint() is fed through @p mmu in place of the
 * kernel (decoded once, then dispatched) and its recorded outputs are
 * returned. Otherwise @p live runs: behind a TraceRecorder when this
 * run wins the recorder claim, which then publishes the stream, or
 * abandons the claim on overflow (pinning the key live) or on an
 * exception (which propagates). With replay off, @p live just runs.
 */
KernelOutcome replayOrRun(const ExperimentConfig &cfg, tlb::Mmu &mmu,
                          const std::function<KernelOutcome()> &live);

/** Encodes the stream observed through the Mmu recorder hook. */
class TraceRecorder final : public tlb::AccessRecorder
{
  public:
    explicit TraceRecorder(std::uint64_t max_bytes);

    void recordAccess(std::uint64_t vaddr, bool write,
                      unsigned tag) override;
    void recordRun(std::uint64_t start, std::size_t count,
                   std::size_t stride, bool write,
                   unsigned tag) override;

    /** True once the size cap was hit; the trace is unusable. */
    bool overflowed() const { return overflow; }

    /** Finish recording, attaching the kernel outputs. */
    RecordedTrace take(std::uint64_t kernel_output,
                       std::uint64_t checksum);

  private:
    void putHeader(unsigned tag, bool write, bool run);
    void putVarint(std::uint64_t v);
    void putDelta(std::uint64_t addr);

    std::vector<std::uint8_t> bytes;
    std::uint64_t maxBytes;
    std::uint64_t records = 0;
    std::uint64_t prev = 0;
    bool overflow = false;
};

/**
 * Feed a recorded stream back through @p mmu — scalar records via
 * access(), run records via translateRun() — reproducing a live
 * kernel execution's counter evolution exactly.
 */
void replayTrace(const RecordedTrace &trace, tlb::Mmu &mmu);

/** @name Compiled replay traces
 * replayTrace() re-decodes the varint byte stream for every config in
 * a sweep. The compiled form decodes each stream ONCE per process into
 * a flat array of fixed-width records that the sweep-replay inner loop
 * dispatches with no per-config decode work, plus software prefetch of
 * upcoming records. The decoded cache lives next to the RecordedTrace
 * cache under the same per-stream maxTraceBytes budget: a stream whose
 * decoded form would exceed it is pinned to the streaming decoder
 * (counted in ReplayStats::compiledOverflows) — correctness never
 * depends on compilation, only the per-config decode cost does.
 * @{ */

/** One decoded record: 24 bytes, dispatch-ready. */
struct CompiledRecord
{
    std::uint64_t addr = 0;
    std::uint64_t count = 0;  ///< run records only
    std::uint32_t stride = 0; ///< run records only
    std::uint8_t tag = 0;
    std::uint8_t flags = 0; ///< bit 0 write, bit 1 run
    std::uint16_t pad = 0;

    static constexpr std::uint8_t flagWrite = 0x01;
    static constexpr std::uint8_t flagRun = 0x02;
};

/** A stream decoded to fixed-width records. */
struct CompiledTrace
{
    std::vector<CompiledRecord> records;

    std::uint64_t
    byteSize() const
    {
        return records.size() * sizeof(CompiledRecord);
    }
};

/**
 * Decode @p trace into fixed-width records (unconditionally — the
 * budget check lives in compiledLookup's caching layer; micro benches
 * and tests use this directly).
 */
CompiledTrace compileTrace(const RecordedTrace &trace);

/**
 * The decoded form of the stream @p key, compiling @p trace on first
 * use. Returns null — permanently, the key is pinned — when the
 * decoded size exceeds ReplayOptions::maxTraceBytes or a run record's
 * stride does not fit a CompiledRecord; callers then replay the
 * streaming way. Counts compiledHits when served from the cache.
 */
std::shared_ptr<const CompiledTrace>
compiledLookup(const std::string &key, const RecordedTrace &trace);

/**
 * Dispatch a compiled stream through @p mmu — identical entry-point
 * sequence to replayTrace() on the same stream, so counters are
 * byte-identical between the two decoders (and to the live run).
 */
void replayCompiled(const CompiledTrace &trace, tlb::Mmu &mmu);
/** @} */

} // namespace gpsm::core

#endif // GPSM_CORE_REPLAY_HH
