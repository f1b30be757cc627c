/**
 * @file
 * AddressSpace implementation.
 */

#include "vm/address_space.hh"

#include <algorithm>

#include "util/bitops.hh"
#include "util/logging.hh"

namespace gpsm::vm
{

const char *
thpModeName(ThpMode mode)
{
    switch (mode) {
      case ThpMode::Never: return "never";
      case ThpMode::Madvise: return "madvise";
      case ThpMode::Always: return "always";
    }
    return "?";
}

AddressSpace::AddressSpace(mem::MemoryNode &mem_node,
                           mem::SwapDevice &swap_dev,
                           const ThpConfig &thp_config)
    : AddressSpace(mem_node, swap_dev, thp_config, NumaPolicy{})
{
}

AddressSpace::AddressSpace(mem::MemoryNode &mem_node,
                           mem::SwapDevice &swap_dev,
                           const ThpConfig &thp_config,
                           const NumaPolicy &numa)
    : node(mem_node), swap(swap_dev), thp(thp_config),
      pageBytes(node.basePageBytes()), hugeOrd(node.hugeOrder()),
      pt(node.hugeOrder(), node.giantOrder()),
      nextMmapBase(node.hugePageBytes() * 16)
{
    clientId = node.registerClient(this);
    remote = numa.remoteNode;
    placement = numa.placement;
    migrateOnPromote = numa.migrateOnPromote;
    if (remote != nullptr) {
        if (remote->basePageBytes() != node.basePageBytes() ||
            remote->hugeOrder() != node.hugeOrder())
            fatal("remote node page geometry differs from node 0");
        if (remote->frameBase() != mem::remoteNodeFrameBase)
            fatal("remote node must be built with remoteNodeFrameBase");
        remoteClientId = remote->registerClient(this);
    } else if (placement != mem::NumaPlacement::FirstTouch ||
               migrateOnPromote) {
        fatal("NUMA placement policy '%s' requires a remote node",
              mem::numaPlacementName(placement));
    }
}

AddressSpace::~AddressSpace()
{
    // Free every frame still mapped so node-level tests can assert
    // full reclamation.
    while (!regions.empty())
        munmap(regions.begin()->first);
}

Addr
AddressSpace::mmap(std::uint64_t length, const std::string &name)
{
    if (length == 0)
        fatal("mmap of zero length ('%s')", name.c_str());
    const std::uint64_t huge = hugePageBytes();
    length = alignUp(length, pageBytes);

    Vma vma;
    vma.start = nextMmapBase;
    vma.end = vma.start + length;
    vma.name = name;
    // Guard gap keeps adjacent VMAs out of each other's huge regions.
    nextMmapBase = alignUp(vma.end, huge) + huge;

    Addr start = vma.start;
    regions.emplace(start, std::move(vma));
    return start;
}

Addr
AddressSpace::mmapFile(std::uint64_t length, const std::string &name,
                       mem::AddressSpaceCache &cache, mem::FileId file)
{
    const Addr start = mmap(length, name);
    Vma *vma = findVmaMutable(start);
    vma->fileCache = &cache;
    vma->fileId = file;
    fileLo = std::min(fileLo, vma->start);
    fileHi = std::max(fileHi, vma->end);
    return start;
}

Addr
AddressSpace::mmapGiant(std::uint64_t length, const std::string &name)
{
    const std::uint64_t giant = node.giantPageBytes();
    if (node.giantOrder() == 0)
        fatal("mmapGiant('%s'): node has no giant-page support",
              name.c_str());
    length = alignUp(length, giant);
    // Giant VMAs must be giant-aligned; bump the allocator cursor.
    nextMmapBase = alignUp(nextMmapBase, giant);
    const Addr start = mmap(length, name);
    GPSM_ASSERT(isAligned(start, giant));
    Vma *vma = findVmaMutable(start);

    for (Addr a = start; a < start + length; a += giant) {
        mem::FrameNum head = node.allocGiantPage();
        if (head == mem::invalidFrame)
            fatal("giant-page pool exhausted mapping '%s' (%llu of "
                  "%llu pages free)",
                  name.c_str(),
                  static_cast<unsigned long long>(
                      node.giantPagesFree()),
                  static_cast<unsigned long long>(
                      node.giantPagesTotal()));
        pt.mapGiant(vpnOf(a), head);
        ++vma->giantPages;
    }
    return start;
}

void
AddressSpace::munmap(Addr start)
{
    auto it = regions.find(start);
    if (it == regions.end())
        fatal("munmap of unknown region 0x%llx",
              static_cast<unsigned long long>(start));
    Vma &vma = it->second;

    // File-backed VMAs: the cache owns the frames. Destroy the file
    // (discarding dirty contents, munmap without msync, and releasing
    // the FileObject slot for reuse — each SimArray creates its own
    // file, so long-lived services must not accumulate dead ones);
    // every PTE is cleared through unmapFilePage on the way, so the
    // sweep below finds nothing left to free. The flushAll pushed at
    // the end covers the TLB, so per-page invalidations are
    // suppressed.
    const bool wasFileBacked = vma.fileCache != nullptr;
    if (wasFileBacked)
        vma.fileCache->destroyFile(vma.fileId, /*invalidateTlb=*/false);

    const std::uint64_t span = 1ull << hugeOrd;
    std::uint64_t v = vpnOf(vma.start);
    const std::uint64_t vend = vpnOf(vma.end - 1) + 1;
    while (v < vend) {
        PageTable::Translation t = pt.lookup(v);
        if (!t.valid) {
            ++v;
            continue;
        }
        if (t.size == PageSizeClass::Giant) {
            node.freeGiantPage(t.pte.frame);
            pt.unmapGiant(v);
            v = pt.giantVpnOf(v) + (1ull << node.giantOrder());
        } else if (t.size == PageSizeClass::Huge) {
            nodeOf(t.pte.frame).free(t.pte.frame);
            pt.unmapHuge(v);
            v = pt.hugeVpnOf(v) + span;
        } else if (t.pte.present) {
            rmap.erase(t.pte.frame);
            nodeOf(t.pte.frame).free(t.pte.frame);
            pt.unmapBase(v);
            ++v;
        } else {
            GPSM_ASSERT(t.pte.swapped);
            swap.freeSlot(t.pte.swapSlot);
            pt.unmapBase(v);
            ++v;
        }
    }
    pendingInvalidations.push_back(TlbInvalidation{true, 0,
                                                   PageSizeClass::Base});
    regions.erase(it);
    // Shrink the file hull so present-path touches in the dead range
    // stop paying the VMA lookup (and a machine whose last file
    // mapping is gone returns to the one always-false compare).
    if (wasFileBacked)
        recomputeFileHull();
}

void
AddressSpace::recomputeFileHull()
{
    fileLo = ~0ull;
    fileHi = 0;
    for (const auto &[start, vma] : regions) {
        (void)start;
        if (vma.fileCache == nullptr)
            continue;
        fileLo = std::min(fileLo, vma.start);
        fileHi = std::max(fileHi, vma.end);
    }
}

void
AddressSpace::addInterval(std::vector<std::pair<Addr, Addr>> &set, Addr a,
                          Addr b)
{
    GPSM_ASSERT(a < b);
    set.emplace_back(a, b);
    std::sort(set.begin(), set.end());
    // Merge overlapping / adjacent intervals.
    std::vector<std::pair<Addr, Addr>> merged;
    for (const auto &iv : set) {
        if (!merged.empty() && iv.first <= merged.back().second)
            merged.back().second = std::max(merged.back().second,
                                            iv.second);
        else
            merged.push_back(iv);
    }
    set = std::move(merged);
}

bool
AddressSpace::coveredBy(const std::vector<std::pair<Addr, Addr>> &set,
                        Addr a, Addr b)
{
    for (const auto &[lo, hi] : set)
        if (a >= lo && b <= hi)
            return true;
    return false;
}

bool
AddressSpace::intersects(const std::vector<std::pair<Addr, Addr>> &set,
                         Addr a, Addr b)
{
    for (const auto &[lo, hi] : set)
        if (a < hi && lo < b)
            return true;
    return false;
}

void
AddressSpace::madviseHuge(Addr start, std::uint64_t length)
{
    Vma *vma = findVmaMutable(start);
    if (vma == nullptr || start + length > vma->end)
        fatal("madviseHuge range outside any VMA");
    if (length == 0)
        return;
    addInterval(vma->hugeAdvised, start, start + length);
}

void
AddressSpace::madviseNoHuge(Addr start, std::uint64_t length)
{
    Vma *vma = findVmaMutable(start);
    if (vma == nullptr || start + length > vma->end)
        fatal("madviseNoHuge range outside any VMA");
    if (length == 0)
        return;
    addInterval(vma->hugeForbidden, start, start + length);
}

const Vma *
AddressSpace::findVma(Addr vaddr) const
{
    auto it = regions.upper_bound(vaddr);
    if (it == regions.begin())
        return nullptr;
    --it;
    return it->second.contains(vaddr) ? &it->second : nullptr;
}

Vma *
AddressSpace::findVmaMutable(Addr vaddr)
{
    return const_cast<Vma *>(findVma(vaddr));
}

std::vector<const Vma *>
AddressSpace::vmas() const
{
    std::vector<const Vma *> out;
    out.reserve(regions.size());
    for (const auto &[start, vma] : regions) {
        (void)start;
        out.push_back(&vma);
    }
    return out;
}

bool
AddressSpace::hugeEligible(Addr vaddr) const
{
    const Vma *vma = findVma(vaddr);
    if (vma == nullptr)
        return false;
    const std::uint64_t huge = hugePageBytes();
    const Addr hstart = alignDown(vaddr, huge);
    const Addr hend = hstart + huge;
    if (vma->fileCache != nullptr)
        return false; // file mappings are never THP-backed
    if (hstart < vma->start || hend > vma->end)
        return false;
    if (intersects(vma->hugeForbidden, hstart, hend))
        return false;
    switch (thp.mode) {
      case ThpMode::Never:
        return false;
      case ThpMode::Always:
        return true;
      case ThpMode::Madvise:
        return coveredBy(vma->hugeAdvised, hstart, hend);
    }
    return false;
}

bool
AddressSpace::regionEmpty(std::uint64_t huge_vpn) const
{
    return pt.regionEmpty(huge_vpn);
}

TouchInfo
AddressSpace::touch(Addr vaddr, bool write)
{
    const std::uint64_t vpn = vpnOf(vaddr);
    PageTable::Translation t = pt.lookup(vpn);

    if (t.valid && t.pte.present) {
        TouchInfo info;
        info.frame = t.pte.frame;
        info.size = t.size;
        // Resident file pages feed the replacement policy at TLB-walk
        // granularity (and latch Dirty on writes). The hull check is
        // one always-false compare on machines with no file mappings.
        if (vaddr >= fileLo && vaddr < fileHi) {
            const Vma *vma = findVma(vaddr);
            if (vma != nullptr && vma->fileCache != nullptr) {
                vma->fileCache->notePageAccess(
                    vma->fileId, (vaddr - vma->start) / pageBytes,
                    write);
            }
        }
        return info;
    }
    return handleFault(vaddr, t, write);
}

mem::MemoryNode &
AddressSpace::preferredNode(std::uint64_t vpn)
{
    if (remote == nullptr)
        return node;
    switch (placement) {
      case mem::NumaPlacement::FirstTouch:
      case mem::NumaPlacement::PreferredLocal:
        return node;
      case mem::NumaPlacement::RemoteOnly:
        return *remote;
      case mem::NumaPlacement::Interleave:
        // Alternate whole huge regions between the nodes so a region
        // stays collapsible on one node (numactl -i at THP
        // granularity).
        return (pt.hugeVpnOf(vpn) >> hugeOrd) & 1 ? *remote : node;
    }
    return node;
}

mem::AllocOutcome
AddressSpace::allocBase(std::uint64_t vpn, bool &spilled)
{
    spilled = false;
    mem::MemoryNode::Request req;
    req.order = 0;
    req.mt = mem::Migratetype::Movable;
    req.mayReclaim = true;
    req.maySwap = true;
    if (remote == nullptr) {
        // Single-node machine: the original one-call path, untouched.
        req.client = clientId;
        return node.allocate(req);
    }

    mem::MemoryNode &pref = preferredNode(vpn);
    if (placement == mem::NumaPlacement::FirstTouch ||
        placement == mem::NumaPlacement::RemoteOnly) {
        // Strict binding: all escalation (reclaim, swap) happens on
        // the bound node, never on the other one.
        req.client = clientFor(pref);
        return pref.allocate(req);
    }

    // PreferredLocal / Interleave: exhaust both nodes' free memory
    // before swapping on the preferred node, the way Linux walks the
    // whole zonelist before reclaiming in anger.
    mem::MemoryNode &other = &pref == &node ? *remote : node;
    req.maySwap = false;
    req.client = clientFor(pref);
    mem::AllocOutcome out = pref.allocate(req);
    if (out.success)
        return out;
    req.client = clientFor(other);
    mem::AllocOutcome spill = other.allocate(req);
    if (spill.success) {
        spilled = true;
        spill.reclaimedPages += out.reclaimedPages;
        return spill;
    }
    req.maySwap = true;
    req.client = clientFor(pref);
    mem::AllocOutcome last = pref.allocate(req);
    last.reclaimedPages += out.reclaimedPages + spill.reclaimedPages;
    return last;
}

TouchInfo
AddressSpace::handleFault(Addr vaddr, const PageTable::Translation &cur,
                          bool write)
{
    TouchInfo info;
    info.pageFault = true;

    Vma *vma = findVmaMutable(vaddr);
    if (vma == nullptr)
        panic("segfault: access to unmapped address 0x%llx",
              static_cast<unsigned long long>(vaddr));

    const std::uint64_t vpn = vpnOf(vaddr);

    // File-backed fault: the cache allocates (evicting under pressure,
    // writing dirty pages back) and reports what the storage did. File
    // pages never enter the swap path, so this precedes the swap
    // branch; they are also never huge-backed.
    if (vma->fileCache != nullptr) {
        GPSM_ASSERT(!cur.valid || !cur.pte.swapped,
                    "file page marked swapped");
        const mem::FileFaultResult fr = vma->fileCache->faultPage(
            vma->fileId, (vaddr - vma->start) / pageBytes, write, vpn,
            this);
        if (!fr.success)
            fatal("out of memory faulting file page 0x%llx ('%s')",
                  static_cast<unsigned long long>(vaddr),
                  vma->name.c_str());
        pt.mapBase(vpn, fr.frame);
        ++vma->presentBasePages;
        ++minorFaults;
        info.frame = fr.frame;
        info.size = PageSizeClass::Base;
        info.reclaimedPages = fr.reclaimedPages;
        info.swappedOutPages = fr.swappedPages;
        info.fileReadPages = fr.storageRead ? 1 : 0;
        info.writebackPages = fr.writebackPages;
        return info;
    }

    // Major fault: page lives in swap.
    if (cur.valid && cur.pte.swapped) {
        bool spilled = false;
        mem::AllocOutcome out = allocBase(vpn, spilled);
        if (!out.success)
            fatal("out of memory swapping in page 0x%llx",
                  static_cast<unsigned long long>(vaddr));
        info.reclaimedPages = out.reclaimedPages;
        info.swappedOutPages = out.swappedPages;
        swap.freeSlot(cur.pte.swapSlot);
        pt.restoreSwapped(vpn, out.frame);
        rmap.emplace(out.frame, vpn);
        nodeOf(out.frame).noteSwappable(out.frame);
        --vma->swappedBasePages;
        ++vma->presentBasePages;
        ++majorFaults;
        ++swapInPages;
        info.frame = out.frame;
        info.size = PageSizeClass::Base;
        info.majorFault = true;
        info.remote = mem::nodeOfFrame(out.frame) == 1;
        if (info.remote)
            ++remotePlacedPages;
        if (spilled)
            ++spilledPages;
        return info;
    }

    // Fresh fault: maybe satisfy with a huge page.
    const std::uint64_t huge_vpn = pt.hugeVpnOf(vpn);
    const bool eligible = hugeEligible(vaddr);
    if (eligible && regionEmpty(huge_vpn)) {
        const Addr hstart = alignDown(vaddr, hugePageBytes());
        bool may_compact = false;
        switch (thp.defrag) {
          case ThpDefrag::Never:
            may_compact = false;
            break;
          case ThpDefrag::Always:
            may_compact = true;
            break;
          case ThpDefrag::Madvise:
            may_compact = coveredBy(vma->hugeAdvised, hstart,
                                    hstart + hugePageBytes());
            break;
        }

        // Huge allocations bind to the policy node with no cross-node
        // fallback (__GFP_THISNODE): a huge page never straddles or
        // silently migrates nodes, matching Linux's THP fault path.
        mem::MemoryNode &target = preferredNode(vpn);
        mem::MemoryNode::Request req;
        req.order = hugeOrd;
        req.mt = mem::Migratetype::Movable;
        req.client = clientFor(target);
        req.mayReclaim = thp.reclaimForHuge;
        req.mayCompact = may_compact;
        req.maySwap = false;
        mem::AllocOutcome out = target.allocate(req);
        info.migratedPages += out.migratedPages;
        info.reclaimedPages += out.reclaimedPages;
        info.compactionFailures += out.compactionFailures;

        // Graceful degradation: a failure may be a transient window
        // (fault injection, or a hog releasing memory momentarily), so
        // optionally wait it out with bounded, backoff-charged retries
        // before the permanent base-page fallback.
        for (unsigned attempt = 0;
             !out.success && attempt < thp.hugeFaultRetries; ++attempt) {
            ++info.hugeAllocRetries;
            ++hugeRetries;
            out = target.allocate(req);
            info.migratedPages += out.migratedPages;
            info.reclaimedPages += out.reclaimedPages;
            info.compactionFailures += out.compactionFailures;
        }
        if (out.success) {
            pt.mapHuge(huge_vpn, out.frame);
            ++vma->hugePages;
            ++hugeFaults;
            info.frame = out.frame;
            info.size = PageSizeClass::Huge;
            info.hugeFault = true;
            info.remote = mem::nodeOfFrame(out.frame) == 1;
            if (info.remote)
                remotePlacedPages += 1ull << hugeOrd;
            return info;
        }
        ++hugeFallbacks;
    }

    // Base-page fault.
    bool spilled = false;
    mem::AllocOutcome out = allocBase(vpn, spilled);
    if (!out.success)
        fatal("out of memory: node exhausted and swap full (footprint "
              "%llu bytes)",
              static_cast<unsigned long long>(footprintBytes()));
    info.reclaimedPages += out.reclaimedPages;
    info.swappedOutPages += out.swappedPages;
    pt.mapBase(vpn, out.frame);
    rmap.emplace(out.frame, vpn);
    nodeOf(out.frame).noteSwappable(out.frame);
    ++vma->presentBasePages;
    ++minorFaults;
    info.frame = out.frame;
    info.size = PageSizeClass::Base;
    info.remote = mem::nodeOfFrame(out.frame) == 1;
    if (info.remote)
        ++remotePlacedPages;
    if (spilled)
        ++spilledPages;
    return info;
}

PageTable::Translation
AddressSpace::translate(Addr vaddr) const
{
    return pt.lookup(vpnOf(vaddr));
}

AddressSpace::PromoteResult
AddressSpace::promote(Addr vaddr)
{
    PromoteResult res;
    Vma *vma = findVmaMutable(vaddr);
    if (vma == nullptr || !hugeEligible(vaddr))
        return res;

    const std::uint64_t huge_vpn = pt.hugeVpnOf(vpnOf(vaddr));
    if (pt.lookup(huge_vpn).valid &&
        pt.lookup(huge_vpn).size == PageSizeClass::Huge) {
        return res; // already huge
    }

    // Collect candidate base pages; bail out on swapped entries
    // (khugepaged's max_ptes_swap behaviour, simplified to zero).
    const std::uint64_t span = 1ull << hugeOrd;
    std::vector<std::uint64_t> present;
    for (std::uint64_t v = huge_vpn; v < huge_vpn + span; ++v) {
        PageTable::Translation t = pt.lookup(v);
        if (!t.valid)
            continue;
        if (t.pte.swapped)
            return res;
        present.push_back(v);
    }
    if (present.size() < thp.khugepagedMinPresent)
        return res;

    // Collapse target node: local when migrate-on-promote is set
    // (AutoNUMA-style pull), otherwise wherever the majority of the
    // region's base pages already live — a collapse should not move
    // data across the interconnect unasked.
    mem::MemoryNode *target = &node;
    if (remote != nullptr && !migrateOnPromote) {
        std::uint64_t remote_pages = 0;
        for (std::uint64_t v : present) {
            if (mem::nodeOfFrame(pt.lookup(v).pte.frame) == 1)
                ++remote_pages;
        }
        if (remote_pages * 2 > present.size())
            target = remote;
    }

    mem::MemoryNode::Request req;
    req.order = hugeOrd;
    req.mt = mem::Migratetype::Movable;
    req.client = clientFor(*target);
    req.mayReclaim = thp.reclaimForHuge;
    req.mayCompact = thp.defrag != ThpDefrag::Never;
    req.maySwap = false;
    mem::AllocOutcome out = target->allocate(req);
    res.migratedPages = out.migratedPages;
    res.reclaimedPages = out.reclaimedPages;
    if (!out.success)
        return res;

    // Copy and retire the old base pages.
    std::uint64_t moved = 0;
    for (std::uint64_t v : present) {
        PageTable::Translation t = pt.lookup(v);
        rmap.erase(t.pte.frame);
        if (mem::nodeOfFrame(t.pte.frame) !=
            mem::nodeOfFrame(out.frame)) {
            ++moved;
        }
        nodeOf(t.pte.frame).free(t.pte.frame);
        pt.unmapBase(v);
    }
    if (remote != nullptr)
        promoteMovedPages += moved;
    vma->presentBasePages -= present.size();
    for (std::uint64_t v : present) {
        pendingInvalidations.push_back(
            TlbInvalidation{false, v, PageSizeClass::Base});
    }
    pt.mapHuge(huge_vpn, out.frame);
    ++vma->hugePages;
    ++promotions;
    if (traceHook != nullptr)
        traceHook->traceEvent(obs::TraceKind::Promotion,
                              present.size(), vma->name.c_str());
    promotionCopiedPages += present.size();
    res.copiedPages = present.size();
    res.success = true;
    return res;
}

void
AddressSpace::demote(Addr vaddr)
{
    const std::uint64_t vpn = vpnOf(vaddr);
    PageTable::Translation t = pt.lookup(vpn);
    if (!t.valid || t.size != PageSizeClass::Huge)
        fatal("demote of non-huge-mapped address 0x%llx",
              static_cast<unsigned long long>(vaddr));
    Vma *vma = findVmaMutable(vaddr);
    GPSM_ASSERT(vma != nullptr);

    // Physically split the huge block so frames free independently.
    // The block is contiguous within one node, so all split frames
    // stay with the node that owns the head.
    mem::MemoryNode &owner = nodeOf(t.pte.frame);
    mem::BuddyAllocator &buddy = owner.buddy();
    const mem::FrameNum head = t.pte.frame;
    const std::uint64_t span = 1ull << hugeOrd;
    for (unsigned order = hugeOrd; order > 0; --order)
        for (mem::FrameNum f = head; f < head + span; f += 1ull << order)
            buddy.splitAllocated(f);

    const std::uint64_t huge_vpn = pt.hugeVpnOf(vpn);
    pt.demoteToBase(vpn);
    for (std::uint64_t i = 0; i < span; ++i) {
        rmap.emplace(head + i, huge_vpn + i);
        owner.noteSwappable(head + i);
    }
    --vma->hugePages;
    vma->presentBasePages += span;
    ++demotions;
    if (traceHook != nullptr)
        traceHook->traceEvent(obs::TraceKind::Demotion, span,
                              vma->name.c_str());
    pendingInvalidations.push_back(
        TlbInvalidation{false, huge_vpn, PageSizeClass::Huge});
}

std::uint64_t
AddressSpace::hugeBackedBytes() const
{
    std::uint64_t pages = 0;
    for (const auto &[start, vma] : regions) {
        (void)start;
        pages += vma.hugePages;
    }
    return pages * hugePageBytes();
}

std::uint64_t
AddressSpace::giantBackedBytes() const
{
    std::uint64_t pages = 0;
    for (const auto &[start, vma] : regions) {
        (void)start;
        pages += vma.giantPages;
    }
    return pages * node.giantPageBytes();
}

std::uint64_t
AddressSpace::footprintBytes() const
{
    std::uint64_t bytes = 0;
    for (const auto &[start, vma] : regions) {
        (void)start;
        bytes += (vma.presentBasePages + vma.swappedBasePages) * pageBytes;
        bytes += vma.hugePages * hugePageBytes();
        bytes += vma.giantPages * node.giantPageBytes();
    }
    return bytes;
}

std::vector<TlbInvalidation>
AddressSpace::drainInvalidations()
{
    std::vector<TlbInvalidation> out;
    out.swap(pendingInvalidations);
    return out;
}

void
AddressSpace::migratePage(mem::FrameNum from, mem::FrameNum to)
{
    auto it = rmap.find(from);
    GPSM_ASSERT(it != rmap.end(),
                "migration of a frame this space does not own");
    const std::uint64_t vpn = it->second;
    rmap.erase(it);
    pt.retargetBase(vpn, to);
    rmap.emplace(to, vpn);
    nodeOf(to).noteSwappable(to);
    pendingInvalidations.push_back(
        TlbInvalidation{false, vpn, PageSizeClass::Base});
}

void
AddressSpace::unmapFilePage(std::uint64_t vpn, bool invalidateTlb)
{
    Vma *vma = findVmaMutable(vpn * pageBytes);
    GPSM_ASSERT(vma != nullptr && vma->fileCache != nullptr,
                "unmapFilePage outside a file-backed VMA");
    pt.unmapBase(vpn);
    --vma->presentBasePages;
    if (invalidateTlb) {
        pendingInvalidations.push_back(
            TlbInvalidation{false, vpn, PageSizeClass::Base});
    }
}

void
AddressSpace::retargetFilePage(std::uint64_t vpn, mem::FrameNum to)
{
    pt.retargetBase(vpn, to);
    pendingInvalidations.push_back(
        TlbInvalidation{false, vpn, PageSizeClass::Base});
}

bool
AddressSpace::evictPage(mem::FrameNum frame)
{
    auto it = rmap.find(frame);
    if (it == rmap.end())
        return false;
    const std::uint64_t slot = swap.allocSlot();
    if (slot == ~0ull)
        return false; // swap device full
    const std::uint64_t vpn = it->second;
    Vma *vma = findVmaMutable(vpn * pageBytes);
    GPSM_ASSERT(vma != nullptr);
    pt.markSwapped(vpn, slot);
    rmap.erase(it);
    nodeOf(frame).free(frame);
    --vma->presentBasePages;
    ++vma->swappedBasePages;
    ++swapOutPages;
    pendingInvalidations.push_back(
        TlbInvalidation{false, vpn, PageSizeClass::Base});
    return true;
}

void
AddressSpace::registerStats(StatSet &stats,
                            const std::string &prefix) const
{
    stats.registerCounter(prefix + ".minorFaults", &minorFaults,
                          "base-page demand faults");
    stats.registerCounter(prefix + ".hugeFaults", &hugeFaults,
                          "faults satisfied with a huge page");
    stats.registerCounter(prefix + ".majorFaults", &majorFaults,
                          "faults served from swap");
    stats.registerCounter(prefix + ".hugeFallbacks", &hugeFallbacks,
                          "huge-eligible faults that fell back to base "
                          "pages");
    stats.registerCounter(prefix + ".hugeRetries", &hugeRetries,
                          "bounded huge-allocation retries taken on "
                          "the fault path before fallback");
    stats.registerCounter(prefix + ".promotions", &promotions,
                          "khugepaged collapses");
    stats.registerCounter(prefix + ".demotions", &demotions,
                          "huge pages split back to base pages");
    stats.registerCounter(prefix + ".promotionCopiedPages",
                          &promotionCopiedPages,
                          "base pages copied during collapses");
    stats.registerCounter(prefix + ".swapInPages", &swapInPages,
                          "pages read back from swap");
    stats.registerCounter(prefix + ".swapOutPages", &swapOutPages,
                          "pages written to swap");
    if (remote != nullptr) {
        // Registered only on a two-node machine so single-node stat
        // dumps (and the metrics documents built from them) keep their
        // exact pre-NUMA key set.
        stats.registerCounter(prefix + ".remotePlacedPages",
                              &remotePlacedPages,
                              "base-page units placed on the remote "
                              "node at fault time");
        stats.registerCounter(prefix + ".spilledPages", &spilledPages,
                              "placements that fell back to the "
                              "non-preferred node");
        stats.registerCounter(prefix + ".promoteMovedPages",
                              &promoteMovedPages,
                              "pages that changed node during "
                              "khugepaged collapse");
    }
}

} // namespace gpsm::vm
