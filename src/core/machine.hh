/**
 * @file
 * SimMachine: one fully assembled simulated machine (memory node, swap,
 * page cache, address space, MMU/TLBs, khugepaged) under one stat set.
 */

#ifndef GPSM_CORE_MACHINE_HH
#define GPSM_CORE_MACHINE_HH

#include <memory>

#include "core/system_config.hh"
#include "mem/addr_space_cache.hh"
#include "mem/memory_node.hh"
#include "mem/swap_device.hh"
#include "obs/hooks.hh"
#include "tlb/mmu.hh"
#include "util/stats.hh"
#include "vm/address_space.hh"
#include "vm/khugepaged.hh"
#include "vm/thp_config.hh"

namespace gpsm::core
{

/**
 * Composition root for one simulated machine running one application
 * address space.
 *
 * Construction order (and therefore teardown order) matters: the
 * memory node outlives every client. Arrays (SimArray) created against
 * this machine must be destroyed before it.
 */
class SimMachine
{
  public:
    SimMachine(const SystemConfig &config, const vm::ThpConfig &thp);

    SimMachine(const SimMachine &) = delete;
    SimMachine &operator=(const SimMachine &) = delete;

    mem::MemoryNode &node() { return *memNode; }
    /** The remote node, or nullptr on a single-node machine. */
    mem::MemoryNode *remoteNode() { return memNode1.get(); }
    mem::SwapDevice &swapDevice() { return *swap; }
    /** The machine-wide address-space (file) cache. */
    mem::AddressSpaceCache &fileCache() { return *cache; }

    /**
     * Stage @p bytes of input-file data read from storage into the
     * page cache (paper §4.3). The pages are clean, single-use data in
     * one file object of the machine-wide cache, so they compete with
     * out-of-core file mappings under the same eviction policy and
     * reclaim path. Unless the cache is bypassed (direct I/O) or
     * placed remotely (tmpfs on the other node), they consume exactly
     * the free memory that huge-page allocation needed. Best effort,
     * like readahead under pressure: staging stops without escalation
     * when no free frame is left, and each call starts on a fresh page.
     *
     * @return Bytes actually staged (exact, final page clamped).
     */
    std::uint64_t stageInputFiles(std::uint64_t bytes);

    /** Exact bytes of staged input-file data still resident. */
    std::uint64_t stagedInputBytes() const
    {
        return cache->residentBytesOf(stagingFile);
    }
    vm::AddressSpace &space() { return *addressSpace; }
    tlb::Mmu &mmu() { return *mmuUnit; }
    StatSet &stats() { return statSet; }
    /** The trace fan-out, wired into the address space and every
     *  memory node at construction. Observers attached here must
     *  outlive the machine. */
    obs::TraceFanout &trace() { return traceFanout; }
    const SystemConfig &config() const { return sysConfig; }

    /**
     * Run one khugepaged wakeup with the configured page budget; the
     * copy/compaction work is charged to backgroundCycles (a daemon,
     * not the application — §2.3.1) and the TLB is synchronized.
     * Honors ThpConfig::khugepagedHotFirst (access-tracking policy).
     *
     * @return regions promoted.
     */
    std::uint64_t runKhugepaged();

    /**
     * Arrange for khugepaged to wake up every @p interval_accesses
     * traced accesses, modeling the daemon running concurrently with
     * the application instead of only between phases.
     */
    void enableKhugepagedDuringExecution(
        std::uint64_t interval_accesses);

  private:
    SystemConfig sysConfig;
    /** Declared before the components so it outlives them. */
    obs::TraceFanout traceFanout;

    std::unique_ptr<mem::MemoryNode> memNode;
    /** Second NUMA node; null unless config.numaEnabled(). */
    std::unique_ptr<mem::MemoryNode> memNode1;
    std::unique_ptr<mem::SwapDevice> swap;
    std::unique_ptr<mem::AddressSpaceCache> cache;
    /** File object holding staged input data, and its next page. */
    mem::FileId stagingFile = mem::invalidFile;
    std::uint64_t stagingNextPage = 0;
    std::unique_ptr<vm::AddressSpace> addressSpace;
    std::unique_ptr<tlb::Mmu> mmuUnit;
    std::unique_ptr<vm::Khugepaged> khuge;

    Counter bgCycles;
    StatSet statSet;
};

} // namespace gpsm::core

#endif // GPSM_CORE_MACHINE_HH
