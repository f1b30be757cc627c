/**
 * @file
 * SimMachine implementation.
 */

#include "core/machine.hh"

#include "util/logging.hh"

namespace gpsm::core
{

SimMachine::SimMachine(const SystemConfig &config,
                       const vm::ThpConfig &thp)
    : sysConfig(config), statSet("machine")
{
    memNode = std::make_unique<mem::MemoryNode>(config.node);
    if (config.numaEnabled()) {
        if (config.node1.basePageBytes != config.node.basePageBytes ||
            config.node1.hugeOrder != config.node.hugeOrder)
            fatal("node 1 page geometry must match node 0");
        memNode1 = std::make_unique<mem::MemoryNode>(
            config.node1, mem::remoteNodeFrameBase);
    }
    swap = std::make_unique<mem::SwapDevice>(config.swapBytes,
                                             config.node.basePageBytes);
    cache = std::make_unique<mem::AddressSpaceCache>(
        *memNode, config.fileCacheEviction);
    stagingFile = cache->createFile("input-files");
    vm::NumaPolicy numa;
    numa.remoteNode = memNode1.get();
    numa.placement = config.numaPlacement;
    numa.migrateOnPromote = config.numaMigrateOnPromote;
    addressSpace =
        std::make_unique<vm::AddressSpace>(*memNode, *swap, thp, numa);
    memNode->setTraceHook(&traceFanout);
    if (memNode1 != nullptr)
        memNode1->setTraceHook(&traceFanout);
    addressSpace->setTraceHook(&traceFanout);

    tlb::Tlb l1("dtlb",
                {config.l1Base, config.l1Huge, config.l1Giant});
    tlb::Tlb l2 = tlb::Tlb::makeUnified("stlb", config.stlbEntries,
                                        config.stlbWays);
    std::unique_ptr<tlb::CacheModel> cache_model;
    if (config.enableCache) {
        cache_model = std::make_unique<tlb::CacheModel>(
            config.cacheLevels, config.memoryCycles);
    }
    mmuUnit = std::make_unique<tlb::Mmu>(*addressSpace, std::move(l1),
                                         std::move(l2), config.costs,
                                         std::move(cache_model));
    khuge = std::make_unique<vm::Khugepaged>(*addressSpace);
    if (thp.khugepagedHotFirst)
        mmuUnit->enableHeatTracking(true);

    memNode->registerStats(statSet, "node");
    if (memNode1 != nullptr) {
        // "node1." keys exist only on two-node machines, keeping
        // single-node stat dumps byte-identical to the pre-NUMA build.
        memNode1->registerStats(statSet, "node1");
    }
    addressSpace->registerStats(statSet, "space");
    mmuUnit->registerStats(statSet, "mmu");
    mmuUnit->l1().registerStats(statSet);
    mmuUnit->l2().registerStats(statSet);
    if (mmuUnit->cacheModel() != nullptr)
        mmuUnit->cacheModel()->registerStats(statSet, "cache");
    statSet.registerCounter("machine.backgroundCycles", &bgCycles,
                            "khugepaged daemon cycles (not app time)");
    statSet.registerCounter("pagecache.pagesCached", &cache->pagesCached,
                            "file pages cached during loads");
    statSet.registerCounter("pagecache.pagesDropped",
                            &cache->pagesDropped,
                            "page-cache pages reclaimed or dropped");
    if (config.fileBackedCsr) {
        // Out-of-core keys exist only when CSR storage is
        // file-backed, keeping in-core stat dumps byte-identical.
        statSet.registerCounter("pagecache.storageReads",
                                &cache->storageReads,
                                "file pages filled from storage");
        statSet.registerCounter("pagecache.writebacks",
                                &cache->writebacks,
                                "dirty file pages written back");
        statSet.registerCounter("pagecache.evictions", &cache->evictions,
                                "file pages evicted under pressure");
    }
    statSet.registerCounter("swapdev.pagesOut", &swap->pagesOut,
                            "swap slots written");
    statSet.registerCounter("swapdev.pagesIn", &swap->pagesIn,
                            "swap slots released (read back / unmapped)");
    statSet.registerCounter("khugepaged.regionsScanned",
                            &khuge->regionsScanned,
                            "huge regions examined by khugepaged");
    statSet.registerCounter("khugepaged.regionsPromoted",
                            &khuge->regionsPromoted,
                            "huge regions collapsed by khugepaged");
}

std::uint64_t
SimMachine::stageInputFiles(std::uint64_t bytes)
{
    const mem::AddressSpaceCache::PopulateResult res =
        cache->populate(stagingFile, stagingNextPage, bytes);
    stagingNextPage += res.pages;
    return res.bytes;
}

std::uint64_t
SimMachine::runKhugepaged()
{
    const vm::ThpConfig &thp = addressSpace->thpConfig();
    if (!thp.khugepagedEnabled)
        return 0;
    vm::Khugepaged::ScanResult res;
    if (thp.khugepagedHotFirst) {
        res = khuge->scanHotFirst(thp.khugepagedScanPages,
                                  mmuUnit->regionHeat());
        // Fresh heat for the next wakeup (HawkEye decays its access
        // map between scans).
        mmuUnit->clearHeat();
    } else {
        res = khuge->scan(thp.khugepagedScanPages);
    }

    const tlb::CostModel &costs = sysConfig.costs;
    std::uint64_t cycles = 0;
    cycles += res.copiedPages * costs.migrateCyclesPerPage;
    cycles += res.regionsScanned * 200; // scan bookkeeping
    bgCycles += cycles;

    mmuUnit->syncTlb();
    return res.promoted;
}

void
SimMachine::enableKhugepagedDuringExecution(
    std::uint64_t interval_accesses)
{
    mmuUnit->setPeriodicHook(interval_accesses,
                             [this]() { runKhugepaged(); });
}

} // namespace gpsm::core
