/**
 * @file
 * Tests for the compression-scheme plumbing: candidate sets, range
 * indicators, and the indicator <-> bank/byte mappings the arbiter
 * relies on.
 */

#include <gtest/gtest.h>

#include "compress/schemes.hpp"

namespace warpcomp {
namespace {

TEST(Schemes, CandidateSets)
{
    EXPECT_TRUE(schemeCandidates(CompressionScheme::None).empty());
    EXPECT_EQ(schemeCandidates(CompressionScheme::Warped).size(), 3u);
    EXPECT_EQ(schemeCandidates(CompressionScheme::Fixed40).size(), 1u);
    EXPECT_EQ(schemeCandidates(CompressionScheme::Fixed41).size(), 1u);
    EXPECT_EQ(schemeCandidates(CompressionScheme::Fixed42).size(), 1u);
    EXPECT_EQ(schemeCandidates(CompressionScheme::FullBdi).size(), 7u);
}

TEST(Schemes, FixedCandidatesMatchName)
{
    EXPECT_EQ(schemeCandidates(CompressionScheme::Fixed40)[0],
              (BdiParams{4, 0}));
    EXPECT_EQ(schemeCandidates(CompressionScheme::Fixed41)[0],
              (BdiParams{4, 1}));
    EXPECT_EQ(schemeCandidates(CompressionScheme::Fixed42)[0],
              (BdiParams{4, 2}));
}

TEST(Schemes, IndicatorBanks)
{
    EXPECT_EQ(indicatorBanks(RangeIndicator::Base40), 1u);
    EXPECT_EQ(indicatorBanks(RangeIndicator::Base41), 3u);
    EXPECT_EQ(indicatorBanks(RangeIndicator::Base42), 5u);
    EXPECT_EQ(indicatorBanks(RangeIndicator::Uncompressed), 8u);
}

TEST(Schemes, IndicatorBytes)
{
    EXPECT_EQ(indicatorBytes(RangeIndicator::Base40), 4u);
    EXPECT_EQ(indicatorBytes(RangeIndicator::Base41), 35u);
    EXPECT_EQ(indicatorBytes(RangeIndicator::Base42), 66u);
    EXPECT_EQ(indicatorBytes(RangeIndicator::Uncompressed), 128u);
}

TEST(Schemes, IndicatorBytesFitInIndicatedBanks)
{
    for (RangeIndicator ind :
         {RangeIndicator::Base40, RangeIndicator::Base41,
          RangeIndicator::Base42, RangeIndicator::Uncompressed}) {
        EXPECT_EQ(banksForBytes(indicatorBytes(ind)),
                  indicatorBanks(ind));
    }
}

TEST(Schemes, IndicatorForEncodings)
{
    const auto choose = [](const WarpRegValue &v) {
        return bdiChoose(regBytes(v), warpedCandidates(),
                         scanLanes(v).fits4);
    };
    WarpRegValue same{};
    same.fill(9);
    EXPECT_EQ(indicatorFor(choose(same)), RangeIndicator::Base40);

    WarpRegValue stride{};
    for (u32 i = 0; i < kWarpSize; ++i)
        stride[i] = 100 + i;
    EXPECT_EQ(indicatorFor(choose(stride)), RangeIndicator::Base41);

    WarpRegValue wide{};
    for (u32 i = 0; i < kWarpSize; ++i)
        wide[i] = 100 + 500 * i;
    EXPECT_EQ(indicatorFor(choose(wide)), RangeIndicator::Base42);

    WarpRegValue rnd{};
    for (u32 i = 0; i < kWarpSize; ++i)
        rnd[i] = i * 0x9E3779B9u;
    EXPECT_EQ(indicatorFor(choose(rnd)), RangeIndicator::Uncompressed);
}

TEST(Schemes, Names)
{
    EXPECT_EQ(schemeName(CompressionScheme::None), "baseline");
    EXPECT_EQ(schemeName(CompressionScheme::Warped),
              "warped-compression");
    EXPECT_EQ(schemeName(CompressionScheme::Fixed40), "<4,0>");
}

} // namespace
} // namespace warpcomp
