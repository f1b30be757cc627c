/**
 * @file
 * RadixTree tests: the sparse file-page index under AddressSpaceCache.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <vector>

#include "util/radix_tree.hh"

using namespace gpsm;
using gpsm::util::RadixTree;

TEST(RadixTree, EmptyTree)
{
    RadixTree<int> t;
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.find(0), nullptr);
    EXPECT_EQ(t.find(12345), nullptr);
    EXPECT_FALSE(t.erase(0));
}

TEST(RadixTree, InsertFindErase)
{
    RadixTree<int> t;
    t.insert(0, 10);
    t.insert(63, 20);
    t.insert(64, 30); // forces height growth past one node
    ASSERT_NE(t.find(0), nullptr);
    EXPECT_EQ(*t.find(0), 10);
    EXPECT_EQ(*t.find(63), 20);
    EXPECT_EQ(*t.find(64), 30);
    EXPECT_EQ(t.find(1), nullptr);
    EXPECT_EQ(t.size(), 3u);

    EXPECT_TRUE(t.erase(63));
    EXPECT_EQ(t.find(63), nullptr);
    EXPECT_FALSE(t.erase(63));
    EXPECT_EQ(t.size(), 2u);
    // Untouched entries survive the erase and the node pruning.
    EXPECT_EQ(*t.find(0), 10);
    EXPECT_EQ(*t.find(64), 30);
}

TEST(RadixTree, EraseAfterGrowthThroughEmptyRoot)
{
    // Regression: when the first insert lands past index 63, grow()
    // used to link the freshly created (still empty) root under the
    // new top with occupied == 0. Later inserts descending through
    // that uncounted child never incremented the parent, so an erase
    // elsewhere could prune a subtree that still held live entries.
    RadixTree<int> t;
    t.insert(64, 1);   // empty root linked under a new top (height 1)
    t.insert(5, 2);    // descends through the formerly-empty child
    t.insert(5000, 3); // grows again (height 2)
    ASSERT_TRUE(t.erase(64));
    EXPECT_EQ(t.size(), 2u);
    ASSERT_NE(t.find(5), nullptr); // was lost (subtree wrongly pruned)
    EXPECT_EQ(*t.find(5), 2);
    ASSERT_NE(t.find(5000), nullptr);
    EXPECT_EQ(*t.find(5000), 3);

    std::vector<std::uint64_t> seen;
    t.forEach([&](std::uint64_t idx, const int &) {
        seen.push_back(idx);
    });
    EXPECT_EQ(seen, (std::vector<std::uint64_t>{5, 5000}));

    // Drain fully: every entry must still be individually reachable.
    EXPECT_TRUE(t.erase(5));
    EXPECT_TRUE(t.erase(5000));
    EXPECT_TRUE(t.empty());
}

TEST(RadixTree, FirstInsertBeyondOneLevel)
{
    // First-ever insert forces multiple growth steps at once: no
    // intermediate empty node may survive linked into the tree.
    RadixTree<int> t;
    t.insert(1ull << 30, 9);
    t.insert(0, 1);
    t.insert(7, 2);
    ASSERT_TRUE(t.erase(1ull << 30));
    EXPECT_EQ(t.size(), 2u);
    ASSERT_NE(t.find(0), nullptr);
    ASSERT_NE(t.find(7), nullptr);
    EXPECT_TRUE(t.erase(0));
    EXPECT_TRUE(t.erase(7));
    EXPECT_TRUE(t.empty());
}

TEST(RadixTree, SparseHighIndices)
{
    // File offsets are sparse and can be large: height must grow on
    // demand without disturbing existing entries.
    RadixTree<std::uint64_t> t;
    const std::uint64_t keys[] = {0, 1, 1ull << 12, 1ull << 24,
                                  (1ull << 40) - 1};
    for (std::uint64_t k : keys)
        t.insert(k, k + 7);
    for (std::uint64_t k : keys) {
        ASSERT_NE(t.find(k), nullptr) << "key " << k;
        EXPECT_EQ(*t.find(k), k + 7);
    }
    EXPECT_EQ(t.size(), std::size(keys));
}

TEST(RadixTree, ForEachIsInIndexOrder)
{
    RadixTree<int> t;
    t.insert(500, 3);
    t.insert(2, 1);
    t.insert(70000, 4);
    t.insert(65, 2);
    std::vector<std::uint64_t> seen;
    t.forEach([&](std::uint64_t idx, const int &v) {
        seen.push_back(idx);
        EXPECT_EQ(v, static_cast<int>(seen.size()));
    });
    EXPECT_EQ(seen,
              (std::vector<std::uint64_t>{2, 65, 500, 70000}));
}

TEST(RadixTree, PointerStabilityAcrossGrowth)
{
    // Values are heap-allocated: a pointer taken before the tree grows
    // its height must stay valid (CachedPage descriptors are held by
    // pointer across unrelated inserts).
    RadixTree<int> t;
    t.insert(3, 42);
    int *p = t.find(3);
    ASSERT_NE(p, nullptr);
    for (std::uint64_t k = 1; k < (1ull << 30); k <<= 3)
        t.insert(k + 100, 0);
    EXPECT_EQ(t.find(3), p);
    EXPECT_EQ(*p, 42);
}

TEST(RadixTree, RandomizedAgainstStdMap)
{
    RadixTree<std::uint64_t> t;
    std::map<std::uint64_t, std::uint64_t> ref;
    std::mt19937_64 rng(7);
    for (int i = 0; i < 4000; ++i) {
        const std::uint64_t key = rng() % 5000;
        if (rng() % 3 == 0) {
            EXPECT_EQ(t.erase(key), ref.erase(key) == 1);
        } else if (ref.find(key) == ref.end()) {
            t.insert(key, i);
            ref[key] = static_cast<std::uint64_t>(i);
        }
        ASSERT_EQ(t.size(), ref.size());
    }
    for (const auto &[k, v] : ref) {
        ASSERT_NE(t.find(k), nullptr);
        EXPECT_EQ(*t.find(k), v);
    }
    std::size_t walked = 0;
    std::uint64_t prev = 0;
    t.forEach([&](std::uint64_t idx, const std::uint64_t &v) {
        if (walked != 0) {
            EXPECT_GT(idx, prev);
        }
        prev = idx;
        ++walked;
        EXPECT_EQ(ref.at(idx), v);
    });
    EXPECT_EQ(walked, ref.size());

    t.clear();
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.find(1), nullptr);
}
