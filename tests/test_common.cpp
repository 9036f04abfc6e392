/**
 * @file
 * Tests for the common substrate: bit helpers, RNG determinism, the
 * flat key table, the stats containers, and the report table
 * formatter.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "common/bitops.hpp"
#include "common/key_index.hpp"
#include "common/rng.hpp"
#include "power/report.hpp"

namespace warpcomp {
namespace {

TEST(Bitops, Popcount)
{
    EXPECT_EQ(popcount(0u), 0u);
    EXPECT_EQ(popcount(kFullMask), 32u);
    EXPECT_EQ(popcount(0x5u), 2u);
}

TEST(Bitops, LowestLane)
{
    EXPECT_EQ(lowestLane(1u), 0u);
    EXPECT_EQ(lowestLane(0x80000000u), 31u);
    EXPECT_EQ(lowestLane(0b1100u), 2u);
}

TEST(Bitops, LaneActive)
{
    EXPECT_TRUE(laneActive(0x4u, 2));
    EXPECT_FALSE(laneActive(0x4u, 1));
}

TEST(Bitops, FirstLanes)
{
    EXPECT_EQ(firstLanes(0), 0u);
    EXPECT_EQ(firstLanes(1), 1u);
    EXPECT_EQ(firstLanes(5), 0x1Fu);
    EXPECT_EQ(firstLanes(32), kFullMask);
    EXPECT_EQ(firstLanes(40), kFullMask);
}

TEST(Bitops, CeilDiv)
{
    EXPECT_EQ(ceilDiv(0u, 4u), 0u);
    EXPECT_EQ(ceilDiv(1u, 4u), 1u);
    EXPECT_EQ(ceilDiv(4u, 4u), 1u);
    EXPECT_EQ(ceilDiv(5u, 4u), 2u);
}

TEST(Bitops, FitsSigned)
{
    EXPECT_TRUE(fitsSigned(0, 1));
    EXPECT_TRUE(fitsSigned(127, 1));
    EXPECT_FALSE(fitsSigned(128, 1));
    EXPECT_TRUE(fitsSigned(-128, 1));
    EXPECT_FALSE(fitsSigned(-129, 1));
    EXPECT_TRUE(fitsSigned(32767, 2));
    EXPECT_FALSE(fitsSigned(32768, 2));
    EXPECT_TRUE(fitsSigned(INT64_MAX, 8));
    EXPECT_TRUE(fitsSigned(INT64_MIN, 8));
}

TEST(Rng, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer)
{
    Rng a(1), b(2);
    EXPECT_NE(a.next(), b.next());
}

TEST(Rng, RangeBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const i32 v = rng.nextRange(-5, 9);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 9);
    }
}

TEST(Rng, RangeCoversExtremes)
{
    Rng rng(11);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 5000; ++i) {
        const i32 v = rng.nextRange(0, 3);
        saw_lo = saw_lo || v == 0;
        saw_hi = saw_hi || v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(KeyIndex, IndicesFollowFirstSeenOrder)
{
    KeyIndex index;
    EXPECT_EQ(index.size(), 0u);
    EXPECT_TRUE(index.sortedIndices().empty());
    EXPECT_EQ(index.intern(42), 0u);
    EXPECT_EQ(index.intern(~u64{0}), 1u);
    EXPECT_EQ(index.intern(0), 2u);
    EXPECT_EQ(index.intern(42), 0u);
    EXPECT_EQ(index.intern(0), 2u);
    EXPECT_EQ(index.size(), 3u);
    EXPECT_EQ(index.keys(), (std::vector<u64>{42, ~u64{0}, 0}));
    EXPECT_EQ(index.sortedIndices(), (std::vector<u32>{2, 0, 1}));
}

TEST(KeyIndex, GrowsAndKeepsEveryIndex)
{
    // Far past the initial slots, in a scrambled order, with every key
    // looked up again after all the growth.
    constexpr u64 kKeys = 20 * KeyIndex::kInitialSlots + 3;
    KeyIndex index;
    auto key_of = [](u64 i) { return (i * 0x9E3779B97F4A7C15ull) >> 7; };
    for (u64 i = 0; i < kKeys; ++i)
        ASSERT_EQ(index.intern(key_of(i)), i);
    for (u64 i = 0; i < kKeys; ++i)
        ASSERT_EQ(index.intern(key_of(i)), i);
    ASSERT_EQ(index.size(), kKeys);

    const std::vector<u32> order = index.sortedIndices();
    ASSERT_EQ(order.size(), kKeys);
    for (std::size_t i = 1; i < order.size(); ++i)
        ASSERT_LT(index.keys()[order[i - 1]], index.keys()[order[i]]);
}

TEST(KeyIndex, CollidingKeysStayDistinct)
{
    // Keys whose hash picks the same slot of a new table, found by
    // search, so every insert after the first probes past the others.
    const u64 mask = KeyIndex::kInitialSlots - 1;
    const u64 slot = KeyIndex::hash(7) & mask;
    std::vector<u64> keys;
    for (u64 k = 0; keys.size() < 24; ++k)
        if ((KeyIndex::hash(k) & mask) == slot)
            keys.push_back(k);
    KeyIndex index;
    for (std::size_t i = 0; i < keys.size(); ++i)
        EXPECT_EQ(index.intern(keys[i]), i);
    for (std::size_t i = keys.size(); i-- > 0;)
        EXPECT_EQ(index.intern(keys[i]), i);
    EXPECT_EQ(index.size(), keys.size());
    std::vector<u64> sorted;
    for (const u32 i : index.sortedIndices())
        sorted.push_back(index.keys()[i]);
    EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
}

TEST(Report, TableAlignment)
{
    TextTable t({"bench", "a", "b"});
    t.addRow({"x", "1.0", "2.0"});
    t.addRow("y", {3.25, 4.5}, 2);
    std::ostringstream os;
    t.print(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("bench"), std::string::npos);
    EXPECT_NE(s.find("3.25"), std::string::npos);
    EXPECT_NE(s.find("4.50"), std::string::npos);
}

TEST(Report, Formatters)
{
    EXPECT_EQ(fmtDouble(1.23456, 2), "1.23");
    EXPECT_EQ(fmtPercent(0.256, 1), "25.6%");
}

} // namespace
} // namespace warpcomp
