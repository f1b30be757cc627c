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
 * it (packed, behind the Mmu's AccessRecorder hook) together
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
     * once the packed trace exceeds this many bytes; bounds sweep
     * memory on huge kernels.
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
};

ReplayStats replayStats();

/** Drop every cached trace and zero the stats (tests). */
void resetReplayCache();

/**
 * A recorded stream in its one stored form: dispatch-ready 32-bit
 * words in fixed-size chunks (DESIGN.md §5f). Each record starts with
 * a word whose bits 0-2 are the tag and bit 3 the write flag:
 *  - bit 4 clear: a short scalar access, address = (word >> 5) << 2
 *    (4-aligned addresses below 2^29, which graph kernels on
 *    footprints under 512 MiB issue throughout);
 *  - bit 4 set, bit 5 clear: a long scalar access, followed by the
 *    64-bit address in two words (low half first);
 *  - bits 4 and 5 set: a translateRun record, followed by the 64-bit
 *    start, count and stride.
 * A record never straddles two chunks.
 */
struct CompiledTrace
{
    /** Words per chunk: 1 MiB. */
    static constexpr std::size_t chunkWords = std::size_t{1} << 18;

    std::vector<std::vector<std::uint32_t>> chunks;

    /** Packed bytes: 4 per stored word (the slack a chunk leaves when
     *  the next multi-word record does not fit is not counted). */
    std::uint64_t
    byteSize() const
    {
        std::uint64_t words = 0;
        for (const auto &c : chunks)
            words += c.size();
        return words * sizeof(std::uint32_t);
    }
};

/**
 * One recorded kernel-phase stream plus the outputs that cannot be
 * recomputed without re-executing the kernel host-side.
 */
struct RecordedTrace
{
    /** Always empty: the stream lives in @ref packed. Kept, with
     *  compiledLookup() and compileTrace(), for perfbench's stage
     *  driver, which sizes held traces as bytes + compiled bytes. */
    std::vector<std::uint8_t> bytes;
    std::shared_ptr<const CompiledTrace> packed;
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
 * kernel and its recorded outputs are returned. Otherwise @p live
 * runs: behind a TraceRecorder when this run wins the recorder claim,
 * which then publishes the stream, or abandons the claim on overflow
 * (pinning the key live) or on an exception (which propagates). With
 * replay off, @p live just runs.
 */
KernelOutcome replayOrRun(const ExperimentConfig &cfg, tlb::Mmu &mmu,
                          const std::function<KernelOutcome()> &live);

/** Packs the stream observed through the Mmu recorder hook. */
class TraceRecorder final : public tlb::AccessRecorder
{
  public:
    explicit TraceRecorder(std::uint64_t max_bytes);

    void recordAccess(std::uint64_t vaddr, bool write,
                      unsigned tag) override;
    void recordRun(std::uint64_t start, std::size_t count,
                   std::size_t stride, bool write,
                   unsigned tag) override;

    /** True once the size cap was hit; the trace is unusable and its
     *  partial stream already freed. */
    bool overflowed() const { return overflow; }

    /** Bytes of chunk storage held right now (0 once overflowed). */
    std::uint64_t heldBytes() const;

    /** Finish recording, attaching the kernel outputs. */
    RecordedTrace take(std::uint64_t kernel_output,
                       std::uint64_t checksum);

  private:
    /** Room for @p n more words in the current chunk, sealing it and
     *  opening the next when they do not fit. */
    std::uint32_t *room(std::size_t n);
    /** Count the record just appended; on exceeding the budget,
     *  free the stream and mark the recording overflowed. */
    void endRecord();

    CompiledTrace stream;
    std::uint64_t maxBytes;
    std::uint64_t words = 0;
    std::uint64_t records = 0;
    bool overflow = false;
};

/**
 * Decode @p trace in record order, calling v.access(addr, write, tag)
 * for each scalar record and v.translateRun(start, count, stride,
 * write, tag) for each run record — the Mmu's own entry points, so
 * replayCompiled() is this loop with the Mmu as the visitor.
 */
template <class Visitor>
void
visitRecords(const CompiledTrace &trace, Visitor &v)
{
    auto wide = [](const std::uint32_t *p) {
        return std::uint64_t{p[0]} | std::uint64_t{p[1]} << 32;
    };
    for (const auto &chunk : trace.chunks) {
        const std::uint32_t *p = chunk.data();
        const std::uint32_t *const end = p + chunk.size();
        while (p < end) {
            const std::uint32_t w = *p++;
            const unsigned tag = w & 0x07;
            const bool write = (w & 0x08) != 0;
            if ((w & 0x10) == 0) {
                v.access(std::uint64_t{w >> 5} << 2, write, tag);
            } else if ((w & 0x20) == 0) {
                v.access(wide(p), write, tag);
                p += 2;
            } else {
                v.translateRun(wide(p), wide(p + 2), wide(p + 4), write,
                               tag);
                p += 6;
            }
        }
    }
}

/**
 * Feed a recorded stream back through @p mmu — scalar records via
 * access(), run records via translateRun() — reproducing a live
 * kernel execution's counter evolution exactly.
 */
void replayCompiled(const CompiledTrace &trace, tlb::Mmu &mmu);

/** The packed stream of @p trace, shared with no copy. */
std::shared_ptr<const CompiledTrace>
compiledLookup(const std::string &key, const RecordedTrace &trace);

/** A private copy of @p trace's packed stream. */
CompiledTrace compileTrace(const RecordedTrace &trace);

} // namespace gpsm::core

#endif // GPSM_CORE_REPLAY_HH
