/**
 * @file
 * Randomized whole-stack stress tests: long sequences of address-space
 * operations (touch, madvise, promote, demote, munmap, pressure,
 * fragmentation) must preserve cross-layer invariants — page-table /
 * buddy / rmap consistency, frame conservation, and TLB coherence.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "mem/addr_space_cache.hh"
#include "mem/fragmenter.hh"
#include "mem/memhog.hh"
#include "mem/memory_node.hh"
#include "mem/swap_device.hh"
#include "tlb/mmu.hh"
#include "util/bitops.hh"
#include "util/rng.hh"
#include "util/units.hh"
#include "vm/address_space.hh"
#include "vm/khugepaged.hh"

using namespace gpsm;
using namespace gpsm::mem;
using namespace gpsm::vm;

namespace
{

constexpr std::uint64_t pageB = 4_KiB;
constexpr unsigned hugeOrd = 6;
constexpr std::uint64_t hugeB = pageB << hugeOrd;

MemoryNode::Params
nodeParams(std::uint64_t bytes)
{
    MemoryNode::Params p;
    p.bytes = bytes;
    p.basePageBytes = pageB;
    p.hugeOrder = hugeOrd;
    return p;
}

/**
 * Walk the page table and assert:
 * - every present PTE's frame is an allocated block of the right
 *   order in the buddy;
 * - no frame is referenced by two PTEs;
 * - per-VMA counters equal the walked truth;
 * - footprint accounting is consistent.
 */
void
checkConsistency(AddressSpace &space, MemoryNode &node)
{
    const PageTable &pt = space.pageTable();
    BuddyAllocator &buddy = node.buddy();

    std::map<FrameNum, std::uint64_t> frame_owner;
    std::uint64_t present = 0;
    std::uint64_t swapped = 0;
    std::uint64_t huge = 0;

    pt.forEachBase([&](std::uint64_t vpn, const Pte &pte) {
        if (pte.present) {
            ++present;
            ASSERT_TRUE(buddy.isAllocatedHead(pte.frame))
                << "vpn " << vpn;
            ASSERT_EQ(buddy.orderOf(pte.frame), 0u);
            ASSERT_TRUE(
                frame_owner.emplace(pte.frame, vpn).second)
                << "frame " << pte.frame << " double-mapped";
        } else {
            ASSERT_TRUE(pte.swapped);
            ++swapped;
        }
    });
    pt.forEachHuge([&](std::uint64_t vpn, const Pte &pte) {
        ASSERT_TRUE(pte.present);
        ++huge;
        ASSERT_TRUE(buddy.isAllocatedHead(pte.frame)) << vpn;
        ASSERT_EQ(buddy.orderOf(pte.frame), hugeOrd);
        ASSERT_TRUE(frame_owner.emplace(pte.frame, vpn).second);
    });

    std::uint64_t vma_present = 0;
    std::uint64_t vma_swapped = 0;
    std::uint64_t vma_huge = 0;
    for (const Vma *vma : space.vmas()) {
        vma_present += vma->presentBasePages;
        vma_swapped += vma->swappedBasePages;
        vma_huge += vma->hugePages;
    }
    ASSERT_EQ(vma_present, present);
    ASSERT_EQ(vma_swapped, swapped);
    ASSERT_EQ(vma_huge, huge);
    ASSERT_EQ(space.footprintBytes(),
              (present + swapped) * pageB + huge * hugeB);
    ASSERT_EQ(space.hugeBackedBytes(), huge * hugeB);

    buddy.checkInvariants();
}

} // namespace

class StressSeeds : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(StressSeeds, AddressSpaceRandomOps)
{
    Rng rng(GetParam());
    MemoryNode node(nodeParams(8_MiB));
    SwapDevice swap(8_MiB, pageB);
    ThpConfig thp = ThpConfig::madvise();
    AddressSpace space(node, swap, thp);

    std::vector<Addr> vmas;
    std::vector<std::uint64_t> vma_len;

    for (int step = 0; step < 12000; ++step) {
        const auto action = rng.below(100);
        if (action < 8 && vmas.size() < 12) {
            const std::uint64_t len =
                (1 + rng.below(6)) * hugeB / 2; // 0.5x-3x huge
            vmas.push_back(space.mmap(len, "v"));
            vma_len.push_back(len);
        } else if (action < 12 && !vmas.empty()) {
            const size_t i = rng.below(vmas.size());
            space.munmap(vmas[i]);
            vmas.erase(vmas.begin() + static_cast<long>(i));
            vma_len.erase(vma_len.begin() + static_cast<long>(i));
        } else if (action < 70 && !vmas.empty()) {
            const size_t i = rng.below(vmas.size());
            const Addr a = vmas[i] + rng.below(vma_len[i]);
            space.touch(a, rng.chance(0.5));
        } else if (action < 80 && !vmas.empty()) {
            const size_t i = rng.below(vmas.size());
            const std::uint64_t off =
                alignDown(rng.below(vma_len[i]), pageB);
            const std::uint64_t len = std::min<std::uint64_t>(
                vma_len[i] - off,
                (1 + rng.below(4)) * hugeB / 2);
            if (len > 0) {
                if (rng.chance(0.8))
                    space.madviseHuge(vmas[i] + off, len);
                else
                    space.madviseNoHuge(vmas[i] + off, len);
            }
        } else if (action < 88 && !vmas.empty()) {
            const size_t i = rng.below(vmas.size());
            space.promote(vmas[i] + rng.below(vma_len[i]));
        } else if (action < 92 && !vmas.empty()) {
            const size_t i = rng.below(vmas.size());
            const Addr a = vmas[i] + rng.below(vma_len[i]);
            auto t = space.translate(a);
            if (t.valid && t.size == PageSizeClass::Huge)
                space.demote(a);
        } else {
            (void)space.drainInvalidations();
        }

        if (step % 500 == 0)
            checkConsistency(space, node);
    }
    checkConsistency(space, node);

    // Teardown releases every frame.
    while (!vmas.empty()) {
        space.munmap(vmas.back());
        vmas.pop_back();
    }
    EXPECT_EQ(node.freeBytes(), node.totalBytes());
    EXPECT_EQ(swap.usedSlots(), 0u);
}

TEST_P(StressSeeds, PressuredMachineWithMmu)
{
    // Same idea with an MMU in the loop, a tight node, fragmentation
    // and khugepaged — every subsystem interacting.
    Rng rng(GetParam() ^ 0xfeed);
    MemoryNode node(nodeParams(4_MiB));
    SwapDevice swap(16_MiB, pageB);
    ThpConfig thp = ThpConfig::always();
    AddressSpace space(node, swap, thp);
    AddressSpaceCache cache(node);
    const FileId staged = cache.createFile("input-files");
    Khugepaged daemon(space);

    cache.populate(staged, 0, 1_MiB);
    Fragmenter frag(node);
    frag.fragment(0.25);

    tlb::Mmu mmu(space,
                 tlb::Tlb("dtlb", {tlb::TlbGeometry{16, 4},
                                   tlb::TlbGeometry{8, 4}}),
                 tlb::Tlb::makeUnified("stlb", 64, 8),
                 tlb::CostModel{}, nullptr);

    // One VMA larger than the node: guarantees swap traffic.
    const std::uint64_t len = 6_MiB;
    const Addr base = space.mmap(len, "big");

    for (int step = 0; step < 60000; ++step) {
        // Skewed access pattern (hot prefix).
        const std::uint64_t off =
            rng.chance(0.7) ? rng.below(len / 8)
                            : rng.below(len);
        mmu.access(base + alignDown(off, 8), rng.chance(0.3));
        if (step % 4096 == 0)
            daemon.scan(512);
        if (step % 5000 == 0)
            checkConsistency(space, node);
    }
    checkConsistency(space, node);
    EXPECT_GT(mmu.totalCycles(), 0u);
    EXPECT_GT(space.swapOutPages.value(), 0u); // pressure was real

    space.munmap(base);
    cache.dropFile(staged);
    frag.release();
    EXPECT_EQ(node.freeBytes(), node.totalBytes());
}

INSTANTIATE_TEST_SUITE_P(Seeds, StressSeeds,
                         ::testing::Values(101, 202, 303, 404, 505));
