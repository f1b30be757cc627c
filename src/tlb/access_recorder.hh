/**
 * @file
 * Narrow access-recording hook for the MMU, in the style of
 * obs::TraceHook: when a recorder is installed, every traced access
 * the kernels issue is reported to it — scalar accesses one by one,
 * bulk translateRun calls as a single run record (the
 * per-element boundary accesses the bulk path issues internally are
 * suppressed, so a recorded stream mirrors the *call* sequence, not
 * the translation mechanics). With no recorder installed the hot path
 * pays one null-pointer test.
 *
 * This header is dependency-free so core/ can implement a recorder
 * without pulling in the whole TLB stack; the replay engine's
 * core::TraceRecorder is the only implementor (core::replayCompiled
 * feeds a recorded stream back through the same Mmu entry points).
 */

#ifndef GPSM_TLB_ACCESS_RECORDER_HH
#define GPSM_TLB_ACCESS_RECORDER_HH

#include <cstddef>
#include <cstdint>

namespace gpsm::tlb
{

/**
 * Receiver for the virtual access stream. Implementations must not
 * issue traced accesses of their own (the recorder is invoked from
 * inside the MMU access path).
 */
class AccessRecorder
{
  public:
    virtual ~AccessRecorder() = default;

    /** One scalar traced access. */
    virtual void recordAccess(std::uint64_t vaddr, bool write,
                              unsigned tag) = 0;

    /** One bulk strided run (translateRun call). */
    virtual void recordRun(std::uint64_t start, std::size_t count,
                           std::size_t stride, bool write,
                           unsigned tag) = 0;
};

} // namespace gpsm::tlb

#endif // GPSM_TLB_ACCESS_RECORDER_HH
