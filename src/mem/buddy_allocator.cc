/**
 * @file
 * BuddyAllocator implementation.
 *
 * Every mutation is O(1) in block size: head-only metadata writes,
 * one pair-bitmap flip, and counter updates. The only loops left on
 * the allocation path are over *orders* (split descent, coalesce
 * ascent), never over a block's body frames.
 */

#include "mem/buddy_allocator.hh"

#include <algorithm>
#include <sstream>

#include "util/bitops.hh"
#include "util/logging.hh"

namespace gpsm::mem
{

const char *
numaPlacementName(NumaPlacement p)
{
    switch (p) {
      case NumaPlacement::FirstTouch: return "first-touch";
      case NumaPlacement::Interleave: return "interleave";
      case NumaPlacement::PreferredLocal: return "preferred-local";
      case NumaPlacement::RemoteOnly: return "remote-only";
    }
    return "?";
}

BuddyAllocator::BuddyAllocator(std::uint64_t frames, unsigned max_order,
                               FrameNum frame_base)
    : nframes(frames), fbase(frame_base), maxOrd(max_order)
{
    if (frames == 0)
        fatal("buddy allocator needs at least one frame");
    if (max_order > 30)
        fatal("buddy max order %u unreasonably large", max_order);
    // The base must not perturb alignment or buddy-XOR math at any
    // representable order (remoteNodeFrameBase = 2^32 satisfies this
    // for every node smaller than 2^32 frames).
    if (frame_base != 0 &&
        (!isAligned(frame_base, 1ull << 31) || frames > frame_base)) {
        fatal("buddy frame base %llu incompatible with %llu frames",
              static_cast<unsigned long long>(frame_base),
              static_cast<unsigned long long>(frames));
    }

    meta.resize(nframes);
    freeListHead.assign(maxOrd + 1, invalidFrame);
    nextFree.assign(nframes, invalidFrame);
    prevFree.assign(nframes, invalidFrame);
    freeCount.assign(maxOrd + 1, 0);
    pairBits.resize(maxOrd + 1);
    for (unsigned o = 0; o <= maxOrd; ++o)
        pairBits[o].assign((((nframes - 1) >> (o + 1)) >> 6) + 1, 0);
    regionInfo.assign(((nframes - 1) >> maxOrd) + 1, RegionCounts{});

    // Carve the frame range into maximal aligned free blocks.
    FrameNum f = 0;
    while (f < nframes) {
        unsigned order = maxOrd;
        // Largest order that keeps the block aligned and in range.
        while (order > 0 &&
               (!isAligned(f, 1ull << order) ||
                f + (1ull << order) > nframes)) {
            --order;
        }
        attachFree(f, order);
        f += 1ull << order;
    }
}

void
BuddyAllocator::attachFree(FrameNum head, unsigned order)
{
    meta[head].state = State::FreeHead;
    meta[head].order = static_cast<std::uint8_t>(order);

    nextFree[head] = freeListHead[order];
    prevFree[head] = invalidFrame;
    if (freeListHead[order] != invalidFrame)
        prevFree[freeListHead[order]] = head;
    freeListHead[order] = head;

    nfree += 1ull << order;
    ++freeCount[order];
    regionInfo[head >> maxOrd].freeFrames += 1ull << order;
    togglePairBit(head, order);
}

void
BuddyAllocator::detachFree(FrameNum head, unsigned order)
{
    GPSM_ASSERT(meta[head].state == State::FreeHead &&
                meta[head].order == order);
    FrameNum nxt = nextFree[head];
    FrameNum prv = prevFree[head];
    if (prv != invalidFrame)
        nextFree[prv] = nxt;
    else
        freeListHead[order] = nxt;
    if (nxt != invalidFrame)
        prevFree[nxt] = prv;
    nextFree[head] = prevFree[head] = invalidFrame;

    nfree -= 1ull << order;
    --freeCount[order];
    regionInfo[head >> maxOrd].freeFrames -= 1ull << order;
    togglePairBit(head, order);
}

void
BuddyAllocator::markAllocated(FrameNum head, unsigned order, Migratetype mt,
                              std::uint16_t client)
{
    meta[head].state = State::AllocHead;
    meta[head].order = static_cast<std::uint8_t>(order);
    meta[head].mt = mt;
    meta[head].client = client;

    RegionCounts &rc = regionInfo[head >> maxOrd];
    switch (mt) {
      case Migratetype::Movable:
        rc.movableFrames += 1ull << order;
        if (order == maxOrd)
            ++rc.movableHugeBlocks;
        break;
      case Migratetype::Unmovable:
        rc.unmovableFrames += 1ull << order;
        break;
      case Migratetype::Pinned:
        rc.pinnedFrames += 1ull << order;
        break;
    }
}

void
BuddyAllocator::unaccountAllocated(FrameNum head, unsigned order,
                                   Migratetype mt)
{
    RegionCounts &rc = regionInfo[head >> maxOrd];
    switch (mt) {
      case Migratetype::Movable:
        rc.movableFrames -= 1ull << order;
        if (order == maxOrd)
            --rc.movableHugeBlocks;
        break;
      case Migratetype::Unmovable:
        rc.unmovableFrames -= 1ull << order;
        break;
      case Migratetype::Pinned:
        rc.pinnedFrames -= 1ull << order;
        break;
    }
}

BuddyAllocator::BlockInfo
BuddyAllocator::blockAt(FrameNum local) const
{
    // Blocks partition the frame range, so exactly one (head, order)
    // pair with head = local & ~(2^order - 1) carries head metadata
    // recording that order. Descend from maxOrd; stale matches are
    // impossible because losing a merge resets the loser to Body.
    for (unsigned o = maxOrd;; --o) {
        const FrameNum h = local & ~((1ull << o) - 1);
        if (h + (1ull << o) <= nframes) {
            const Frame &fr = meta[h];
            if (fr.state != State::Body && fr.order == o)
                return {h, o, fr.state == State::FreeHead};
        }
        if (o == 0)
            break;
    }
    panic("frame %llu not covered by any block",
          static_cast<unsigned long long>(local));
}

FrameNum
BuddyAllocator::allocate(unsigned order, Migratetype mt,
                         std::uint16_t client)
{
    ++allocCalls;
    GPSM_ASSERT(order <= maxOrd);

    unsigned have = order;
    while (have <= maxOrd && freeListHead[have] == invalidFrame)
        ++have;
    if (have > maxOrd) {
        ++allocFailures;
        return invalidFrame;
    }

    FrameNum head = freeListHead[have];
    detachFree(head, have);

    // Split down to the requested order, freeing the upper halves.
    while (have > order) {
        --have;
        ++splits;
        attachFree(head + (1ull << have), have);
    }

    markAllocated(head, order, mt, client);
    return head + fbase;
}

bool
BuddyAllocator::allocateExact(FrameNum head, unsigned order, Migratetype mt,
                              std::uint16_t client)
{
    ++allocCalls;
    GPSM_ASSERT(order <= maxOrd && isAligned(head, 1ull << order));
    if (head < fbase) {
        ++allocFailures;
        return false;
    }
    head -= fbase;
    if (head + (1ull << order) > nframes) {
        ++allocFailures;
        return false;
    }

    // Eager coalescing guarantees a fully free aligned range is covered
    // by exactly one free block of order >= requested. Find it by
    // order descent instead of walking body frames.
    BlockInfo b = blockAt(head);
    if (!b.free) {
        ++allocFailures;
        return false;
    }
    FrameNum h0 = b.head;
    unsigned o0 = b.order;
    if (h0 + (1ull << o0) < head + (1ull << order)) {
        // Containing free block too small: range not fully free.
        ++allocFailures;
        return false;
    }

    detachFree(h0, o0);
    // Targeted split: repeatedly halve the block containing the target,
    // freeing the non-containing half.
    while (o0 > order) {
        --o0;
        ++splits;
        FrameNum low = h0;
        FrameNum high = h0 + (1ull << o0);
        if (head >= high) {
            attachFree(low, o0);
            h0 = high;
        } else {
            attachFree(high, o0);
            h0 = low;
        }
    }
    GPSM_ASSERT(h0 == head);
    markAllocated(head, order, mt, client);
    return true;
}

void
BuddyAllocator::free(FrameNum head)
{
    if (!inRange(head) || meta[head - fbase].state != State::AllocHead)
        panic("free of non-head frame %llu",
              static_cast<unsigned long long>(head));
    head -= fbase;

    unsigned order = meta[head].order;
    unaccountAllocated(head, order, meta[head].mt);

    // Coalesce with free buddies as far as possible. The pair bit is
    // the whole test: this block is not on a free list, so a set
    // parity bit means the buddy is — same decision the old metadata
    // probe made, in one bit read.
    while (order < maxOrd) {
        FrameNum buddy = buddyOf(head, order);
        if (buddy + (1ull << order) > nframes)
            break;
        if (!pairBitSet(head, order))
            break;
        detachFree(buddy, order);
        ++merges;
        // The losing head becomes an interior frame of the merged
        // block; reset it so head-state reads are never stale.
        meta[std::max(head, buddy)].state = State::Body;
        head = std::min(head, buddy);
        ++order;
    }
    attachFree(head, order);
}

void
BuddyAllocator::splitAllocated(FrameNum head)
{
    if (!inRange(head) || meta[head - fbase].state != State::AllocHead)
        panic("splitAllocated of non-head frame %llu",
              static_cast<unsigned long long>(head));
    head -= fbase;
    unsigned order = meta[head].order;
    GPSM_ASSERT(order >= 1, "cannot split an order-0 block");

    const Migratetype mt = meta[head].mt;
    const std::uint16_t client = meta[head].client;
    if (mt == Migratetype::Movable && order == maxOrd)
        --regionInfo[head >> maxOrd].movableHugeBlocks;

    --order;
    ++splits;
    meta[head].order = static_cast<std::uint8_t>(order);

    FrameNum high = head + (1ull << order);
    meta[high].state = State::AllocHead;
    meta[high].order = static_cast<std::uint8_t>(order);
    meta[high].mt = mt;
    meta[high].client = client;
}

std::uint64_t
BuddyAllocator::freeBlocksAt(unsigned order) const
{
    GPSM_ASSERT(order <= maxOrd);
    return freeCount[order];
}

std::uint64_t
BuddyAllocator::freeBlocksAtLeast(unsigned order) const
{
    std::uint64_t n = 0;
    for (unsigned o = order; o <= maxOrd; ++o)
        n += freeCount[o];
    return n;
}

int
BuddyAllocator::largestFreeOrder() const
{
    for (int o = static_cast<int>(maxOrd); o >= 0; --o)
        if (freeCount[static_cast<unsigned>(o)] != 0)
            return o;
    return -1;
}

bool
BuddyAllocator::isAllocated(FrameNum frame) const
{
    if (!inRange(frame))
        return false;
    frame -= fbase;
    if (meta[frame].state != State::Body)
        return meta[frame].state == State::AllocHead;
    return !blockAt(frame).free;
}

bool
BuddyAllocator::isAllocatedHead(FrameNum frame) const
{
    if (!inRange(frame))
        return false;
    return meta[frame - fbase].state == State::AllocHead;
}

unsigned
BuddyAllocator::orderOf(FrameNum frame) const
{
    GPSM_ASSERT(inRange(frame) &&
                meta[frame - fbase].state == State::AllocHead);
    return meta[frame - fbase].order;
}

Migratetype
BuddyAllocator::migratetypeOf(FrameNum frame) const
{
    GPSM_ASSERT(inRange(frame) &&
                meta[frame - fbase].state == State::AllocHead);
    return meta[frame - fbase].mt;
}

std::uint16_t
BuddyAllocator::clientOf(FrameNum frame) const
{
    GPSM_ASSERT(inRange(frame) &&
                meta[frame - fbase].state == State::AllocHead);
    return meta[frame - fbase].client;
}

FrameNum
BuddyAllocator::headOf(FrameNum frame) const
{
    GPSM_ASSERT(inRange(frame));
    const BlockInfo b = blockAt(frame - fbase);
    return b.free ? invalidFrame : b.head + fbase;
}

BuddyAllocator::BlockInfo
BuddyAllocator::blockOf(FrameNum frame) const
{
    GPSM_ASSERT(inRange(frame));
    BlockInfo b = blockAt(frame - fbase);
    b.head += fbase;
    return b;
}

const BuddyAllocator::RegionCounts &
BuddyAllocator::regionCounts(std::uint64_t region_index) const
{
    GPSM_ASSERT(region_index < regions());
    return regionInfo[region_index];
}

BuddyAllocator::RegionSummary
BuddyAllocator::summarizeRegion(FrameNum region_head) const
{
    RegionSummary s;
    summarizeRegion(region_head, s);
    return s;
}

void
BuddyAllocator::summarizeRegion(FrameNum region_head,
                                RegionSummary &out) const
{
    const std::uint64_t region_size = 1ull << maxOrd;
    GPSM_ASSERT(inRange(region_head));
    region_head -= fbase;
    GPSM_ASSERT(isAligned(region_head, region_size) &&
                region_head + region_size <= nframes);

    const RegionCounts &rc = regionInfo[region_head >> maxOrd];
    out.freeFrames = rc.freeFrames;
    out.movableFrames = rc.movableFrames;
    out.unmovableFrames = rc.unmovableFrames;
    out.pinnedFrames = rc.pinnedFrames;
    out.movableHeads.clear();
    if (rc.movableFrames == 0)
        return;

    // Blocks never straddle maxOrd regions, so every step of this walk
    // lands on a head frame.
    FrameNum f = region_head;
    const FrameNum end = region_head + region_size;
    while (f < end) {
        const Frame &fr = meta[f];
        GPSM_ASSERT(fr.state != State::Body,
                    "region walk hit a body frame");
        if (fr.state == State::AllocHead &&
            fr.mt == Migratetype::Movable) {
            out.movableHeads.push_back(f + fbase);
        }
        f += 1ull << fr.order;
    }
}

double
BuddyAllocator::fragmentationLevel() const
{
    if (nfree == 0)
        return 0.0;
    const std::uint64_t huge_free = freeCount[maxOrd] * (1ull << maxOrd);
    return 1.0 - static_cast<double>(huge_free) /
                     static_cast<double>(nfree);
}

void
BuddyAllocator::checkInvariants() const
{
    std::uint64_t free_count = 0;
    std::vector<std::uint64_t> free_blocks(maxOrd + 1, 0);
    std::vector<std::vector<std::uint64_t>> expect_bits(maxOrd + 1);
    for (unsigned o = 0; o <= maxOrd; ++o)
        expect_bits[o].assign(pairBits[o].size(), 0);
    std::vector<RegionCounts> expect_regions(regionInfo.size(),
                                             RegionCounts{});

    FrameNum f = 0;
    while (f < nframes) {
        const Frame &fr = meta[f];
        if (fr.state == State::Body)
            panic("frame %llu: body frame where head expected",
                  static_cast<unsigned long long>(f));
        const std::uint64_t block = 1ull << fr.order;
        if (!isAligned(f, block))
            panic("frame %llu: misaligned order-%u block",
                  static_cast<unsigned long long>(f), unsigned(fr.order));
        if (f + block > nframes)
            panic("frame %llu: block overruns node",
                  static_cast<unsigned long long>(f));
        for (std::uint64_t i = 1; i < block; ++i) {
            if (meta[f + i].state != State::Body)
                panic("frame %llu: stale head state inside block %llu",
                      static_cast<unsigned long long>(f + i),
                      static_cast<unsigned long long>(f));
        }
        RegionCounts &er = expect_regions[f >> maxOrd];
        if (fr.state == State::FreeHead) {
            free_count += block;
            ++free_blocks[fr.order];
            er.freeFrames += block;
            const std::uint64_t idx = f >> (fr.order + 1);
            expect_bits[fr.order][idx >> 6] ^= 1ull << (idx & 63);
            // Eager coalescing: the buddy must not also be a free block
            // of the same order.
            FrameNum buddy = f ^ block;
            if (buddy + block <= nframes &&
                meta[buddy].state == State::FreeHead &&
                meta[buddy].order == fr.order && fr.order < maxOrd) {
                panic("frames %llu/%llu: uncoalesced free buddies",
                      static_cast<unsigned long long>(f),
                      static_cast<unsigned long long>(buddy));
            }
        } else {
            switch (fr.mt) {
              case Migratetype::Movable:
                er.movableFrames += block;
                if (fr.order == maxOrd)
                    ++er.movableHugeBlocks;
                break;
              case Migratetype::Unmovable:
                er.unmovableFrames += block;
                break;
              case Migratetype::Pinned:
                er.pinnedFrames += block;
                break;
            }
        }
        f += block;
    }
    if (free_count != nfree)
        panic("free frame accounting mismatch: walked %llu, counter %llu",
              static_cast<unsigned long long>(free_count),
              static_cast<unsigned long long>(nfree));

    // Free lists must reference exactly the FreeHead frames, and the
    // cached per-order counters must match the list walks (the walk
    // survives only here, as a cross-check).
    std::uint64_t listed = 0;
    for (unsigned o = 0; o <= maxOrd; ++o) {
        std::uint64_t walked = 0;
        for (FrameNum h = freeListHead[o]; h != invalidFrame;
             h = nextFree[h]) {
            if (meta[h].state != State::FreeHead || meta[h].order != o)
                panic("free list %u contains non-free frame %llu", o,
                      static_cast<unsigned long long>(h));
            ++walked;
            listed += 1ull << o;
        }
        if (walked != freeCount[o])
            panic("order %u free counter %llu != list length %llu", o,
                  static_cast<unsigned long long>(freeCount[o]),
                  static_cast<unsigned long long>(walked));
        if (walked != free_blocks[o])
            panic("order %u free list misses heads", o);
        if (expect_bits[o] != pairBits[o])
            panic("order %u pair bitmap out of sync", o);
    }
    if (listed != nfree)
        panic("free list coverage mismatch");

    for (std::size_t r = 0; r < regionInfo.size(); ++r) {
        const RegionCounts &have = regionInfo[r];
        const RegionCounts &want = expect_regions[r];
        if (have.freeFrames != want.freeFrames ||
            have.movableFrames != want.movableFrames ||
            have.unmovableFrames != want.unmovableFrames ||
            have.pinnedFrames != want.pinnedFrames ||
            have.movableHugeBlocks != want.movableHugeBlocks) {
            panic("region %llu counters out of sync",
                  static_cast<unsigned long long>(r));
        }
    }
}

std::string
BuddyAllocator::dumpFreeLists() const
{
    std::ostringstream os;
    for (unsigned o = 0; o <= maxOrd; ++o)
        os << "order " << o << ": " << freeCount[o]
           << " free blocks\n";
    return os.str();
}

} // namespace gpsm::mem
