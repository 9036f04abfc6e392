/**
 * @file
 * Property/fuzz tests for the BDI codec: >=10k xorshift-seeded random
 * 128-byte warp registers round-tripped through every parameterization
 * the warped scheme uses (<4,0> <4,1> <4,2> + uncompressed fallback)
 * and through the full design-space candidate list. The properties are
 * the paper's correctness obligations: decompress(compress(x)) == x,
 * encoded size never exceeds the 128-byte input, and the encoded size
 * always equals Eq. (1) for the chosen parameters. The codec's fits
 * scan, at both base widths, and its candidate selection are checked
 * against the scalar reference bdiCompressible on the same corpus, on
 * a base-8 shaped corpus and on hand-picked overflow and wrap edges.
 */

#include <gtest/gtest.h>

#include <array>
#include <algorithm>
#include <climits>
#include <cstring>
#include <optional>
#include <vector>

#include "analysis/similarity.hpp"
#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "compress/bdi.hpp"

namespace warpcomp {
namespace {

constexpr u32 kFuzzCases = 12'000;

/**
 * Mixed-entropy register generator. Pure uniform bytes almost never
 * compress, which would leave the compressed paths unexercised, so the
 * generator cycles through value shapes the paper identifies: all
 * lanes equal, base + small delta, base + medium delta, lane-id
 * affine, and full-entropy random.
 */
WarpRegValue
randomRegister(Rng &rng, u32 shape)
{
    WarpRegValue v{};
    switch (shape % 5) {
    case 0: {                                   // scalar: all lanes equal
        const u32 x = static_cast<u32>(rng.next());
        v.fill(x);
        break;
    }
    case 1: {                                   // <4,1>-shaped deltas
        const u32 base = static_cast<u32>(rng.next());
        for (u32 &lane : v)
            lane = base + static_cast<u32>(rng.nextRange(-128, 127));
        break;
    }
    case 2: {                                   // <4,2>-shaped deltas
        const u32 base = static_cast<u32>(rng.next());
        for (u32 &lane : v)
            lane = base + static_cast<u32>(rng.nextRange(-32768, 32767));
        break;
    }
    case 3: {                                   // affine in the lane id
        const u32 base = static_cast<u32>(rng.next());
        const u32 stride = rng.nextU32(1u << 16);
        for (u32 i = 0; i < kWarpSize; ++i)
            v[i] = base + i * stride;
        break;
    }
    default:                                    // full entropy
        for (u32 &lane : v)
            lane = static_cast<u32>(rng.next());
        break;
    }
    // Randomly poison one lane so near-compressible edge cases (one
    // outlier breaking an otherwise uniform register) are common.
    if (rng.nextBool(0.25))
        v[rng.nextU32(kWarpSize)] = static_cast<u32>(rng.next());
    return v;
}

/**
 * Registers shaped for the 8-byte base: sixteen 64-bit chunks, a random
 * base plus deltas sized for <8,0> <8,1> <8,2> <8,4> or full entropy,
 * with the same one-chunk poisoning as randomRegister.
 */
WarpRegValue
randomChunks64(Rng &rng, u32 shape)
{
    constexpr u32 kChunks = kWarpRegBytes / 8;
    static constexpr i32 kSpan[] = {0, 127, 32767, INT32_MAX};
    u64 chunks[kChunks];
    const u64 base = rng.next();
    for (u64 &c : chunks) {
        c = shape % 5 == 4
            ? rng.next()
            : base + static_cast<u64>(static_cast<i64>(
                  rng.nextRange(-kSpan[shape % 5], kSpan[shape % 5])));
    }
    if (rng.nextBool(0.25))
        chunks[rng.nextU32(kChunks)] = rng.next();
    std::array<u8, kWarpRegBytes> raw{};
    std::memcpy(raw.data(), chunks, kWarpRegBytes);
    return fromBytes(raw);
}

TEST(BdiFuzz, RoundTripWarpedCandidates)
{
    Rng rng(0xF0221u);
    u64 compressed_hits = 0;
    for (u32 i = 0; i < kFuzzCases; ++i) {
        const WarpRegValue v = randomRegister(rng, i);
        const auto raw = toBytes(v);
        const BdiEncoded enc = bdiCompress(raw, warpedCandidates());

        ASSERT_LE(enc.sizeBytes(), kWarpRegBytes)
            << "case " << i << ": encoding expanded the register";
        if (enc.compressed) {
            ++compressed_hits;
            ASSERT_EQ(enc.sizeBytes(), bdiCompressedSize(enc.params))
                << "case " << i << ": size disagrees with Eq. (1)";
        } else {
            ASSERT_EQ(enc.sizeBytes(), kWarpRegBytes);
        }

        const auto back = bdiDecompress(enc);
        ASSERT_TRUE(back == raw) << "case " << i << ": round-trip lost "
                                 << "data (shape " << i % 5 << ")";
        ASSERT_TRUE(fromBytes(back) == v);
    }
    // The generator must actually exercise the compressed paths.
    EXPECT_GT(compressed_hits, kFuzzCases / 4);
    EXPECT_LT(compressed_hits, kFuzzCases);
}

TEST(BdiFuzz, RoundTripEverySingleParameterization)
{
    // Force each candidate individually (span of one) so every <X,Y>
    // decode path is hit, not just the one the selector prefers.
    Rng rng(0xF0222u);
    for (u32 i = 0; i < kFuzzCases / 4; ++i) {
        const WarpRegValue v = randomRegister(rng, i);
        const auto raw = toBytes(v);
        for (const BdiParams &p : fullBdiCandidates()) {
            const BdiEncoded enc = bdiCompress(raw, {&p, 1});
            ASSERT_LE(enc.sizeBytes(), kWarpRegBytes);
            EXPECT_EQ(enc.compressed, bdiCompressible(raw, p));
            const auto back = bdiDecompress(enc);
            ASSERT_TRUE(back == raw)
                << "case " << i << ": <" << p.baseBytes << ","
                << p.deltaBytes << "> round-trip lost data";
        }
    }
}

/** Brute-force selection over the scalar reference: the first
 *  smallest candidate bdiCompressible accepts, if smaller than raw. */
std::optional<BdiParams>
referencePick(std::span<const u8> raw, std::span<const BdiParams> cands)
{
    std::optional<BdiParams> pick;
    u32 pick_size = kWarpRegBytes;
    for (const BdiParams &p : cands) {
        if (bdiCompressedSize(p) < pick_size && bdiCompressible(raw, p)) {
            pick = p;
            pick_size = bdiCompressedSize(p);
        }
    }
    return pick;
}

TEST(BdiFuzz, SelectorAgreesWithExplorer)
{
    // bdiCompress and the Fig 5 explorer share one selection loop, so
    // each is checked against the brute-force reference pick, over
    // both candidate lists and both register shapes.
    Rng rng(0xF0223u);
    for (u32 i = 0; i < kFuzzCases / 4; ++i) {
        for (const WarpRegValue &v :
             {randomRegister(rng, i), randomChunks64(rng, i)}) {
            const auto raw = toBytes(v);
            for (auto cands : {warpedCandidates(), fullBdiCandidates()}) {
                const auto want = referencePick(raw, cands);
                const BdiEncoded enc = bdiCompress(raw, cands);
                ASSERT_EQ(enc.compressed, want.has_value()) << "case " << i;
                if (want.has_value()) {
                    EXPECT_EQ(enc.params, *want) << "case " << i;
                }
                EXPECT_EQ(bdiBestParams(raw, cands), want) << "case " << i;
            }
        }
    }
}

/**
 * Check scanLanes(v) against the reference definitions: bdiCompressible
 * for <4,0> <4,1> <4,2>, the same i64 delta test for <4,4> (which
 * bdiCompressible rejects as a parameter pair, delta == base), and
 * classifyDistance over every successive lane pair. The base-8 fits,
 * seen through single-candidate compress and explorer calls, are
 * checked against bdiCompressible for <8,0> <8,1> <8,2> <8,4>. Also
 * checks that both compress entry points and both similarity paths
 * agree.
 */
void
expectScanMatchesReference(const WarpRegValue &v, const char *what,
                           u32 index)
{
    const LaneScan scan = scanLanes(v);
    const auto raw = toBytes(v);
    const auto lane = [&v](u32 i) {
        return static_cast<i64>(static_cast<i32>(v[i]));
    };

    EXPECT_EQ(scan.fits4.zero, bdiCompressible(raw, {4, 0}))
        << what << " " << index;
    EXPECT_EQ(scan.fits4.one, bdiCompressible(raw, {4, 1}))
        << what << " " << index;
    EXPECT_EQ(scan.fits4.two, bdiCompressible(raw, {4, 2}))
        << what << " " << index;
    bool fits4 = true;
    for (u32 i = 1; i < kWarpSize; ++i)
        fits4 = fits4 && fitsSigned(lane(i) - lane(0), 4);
    EXPECT_EQ(scan.fits4.four, fits4) << what << " " << index;

    u32 bins[kNumDistanceBins] = {};
    for (u32 i = 1; i < kWarpSize; ++i)
        ++bins[static_cast<u32>(classifyDistance(lane(i) - lane(i - 1)))];
    for (u32 b = 0; b < kNumDistanceBins; ++b)
        EXPECT_EQ(scan.bins[b], bins[b])
            << what << " " << index << ": bin " << b;

    for (u32 d : {0u, 1u, 2u, 4u}) {
        const BdiParams p{8, d};
        const bool fits = bdiCompressible(raw, p);
        EXPECT_EQ(bdiCompress(raw, {&p, 1}).compressed, fits)
            << what << " " << index << ": <8," << d << ">";
        EXPECT_EQ(bdiBestParams(raw, {&p, 1}).has_value(), fits)
            << what << " " << index << ": <8," << d << ">";
    }

    const BdiEncoded lazy = bdiCompress(raw, warpedCandidates());
    const BdiEncoded given =
        bdiCompress(raw, warpedCandidates(), scan.fits4);
    EXPECT_EQ(lazy.compressed, given.compressed) << what << " " << index;
    EXPECT_TRUE(lazy.bytes == given.bytes) << what << " " << index;

    SimilarityBins full, scanned;
    full.record(v, kFullMask, false);
    scanned.recordScanned(scan, false);
    for (u32 b = 0; b < kNumDistanceBins; ++b) {
        const auto bin = static_cast<DistanceBin>(b);
        EXPECT_EQ(full.count(kNonDivergent, bin), bins[b])
            << what << " " << index << ": bin " << b;
        EXPECT_EQ(scanned.count(kNonDivergent, bin), bins[b])
            << what << " " << index << ": bin " << b;
    }
}

TEST(LaneScan, MatchesReferenceOnRandomImages)
{
    Rng rng(0xF0225u);
    for (u32 i = 0; i < kFuzzCases; ++i)
        expectScanMatchesReference(randomRegister(rng, i), "case", i);
}

TEST(LaneScan, MatchesReferenceOnOverflowEdges)
{
    // Lane values where the u32 wrap and the signed-overflow flag must
    // cooperate: extreme bases, deltas on both sides of the 1- and
    // 2-byte and Fig 2 thresholds, and INT32_MIN beside INT32_MAX.
    const i64 bases[] = {0, 1, -1, 127, -128, 32767, -32768,
                         INT32_MAX, INT32_MIN, INT32_MAX - 100,
                         INT32_MIN + 100};
    const i64 deltas[] = {0, 1, -1, 127, -127, 128, -128, 129, -129,
                          32767, -32767, 32768, -32768, 32769, -32769,
                          INT32_MAX, INT32_MIN, i64{UINT32_MAX}};
    std::vector<WarpRegValue> cases;
    for (i64 base : bases) {
        const u32 b = static_cast<u32>(base);
        WarpRegValue v{};
        v.fill(b);
        cases.push_back(v);                     // all lanes equal
        for (i64 delta : deltas) {
            const u32 o = static_cast<u32>(base + delta);
            // One outlier at the first, a middle and the last lane.
            for (u32 at : {1u, 16u, 31u}) {
                v.fill(b);
                v[at] = o;
                cases.push_back(v);
            }
            // Alternating: every successive pair is +-delta.
            for (u32 i = 0; i < kWarpSize; ++i)
                v[i] = i % 2 == 0 ? b : o;
            cases.push_back(v);
            // A ramp of delta steps (wraps for large deltas).
            for (u32 i = 0; i < kWarpSize; ++i)
                v[i] = b + static_cast<u32>(delta) * i;
            cases.push_back(v);
        }
    }
    WarpRegValue v{};
    for (u32 i = 0; i < kWarpSize; ++i)
        v[i] = i % 2 == 0 ? static_cast<u32>(INT32_MIN)
                          : static_cast<u32>(INT32_MAX);
    cases.push_back(v);
    v.fill(static_cast<u32>(INT32_MAX));
    v[0] = static_cast<u32>(INT32_MIN);
    cases.push_back(v);
    v.fill(static_cast<u32>(INT32_MIN));
    v[0] = static_cast<u32>(INT32_MAX);
    cases.push_back(v);

    for (u32 i = 0; i < cases.size(); ++i)
        expectScanMatchesReference(cases[i], "edge", i);
}

TEST(LaneScan, MatchesReferenceOnBase8Images)
{
    Rng rng(0xF0226u);
    for (u32 i = 0; i < kFuzzCases / 4; ++i)
        expectScanMatchesReference(randomChunks64(rng, i), "case", i);
}

TEST(LaneScan, MatchesReferenceOnBase8WrapEdges)
{
    // 64-bit chunks where only the modular delta fits: INT64_MIN beside
    // INT64_MAX (a wrapped difference of 1), and deltas on both sides
    // of the 1-, 2- and 4-byte limits from extreme bases.
    const i64 bases[] = {0, -1, INT64_MAX, INT64_MIN, INT64_MAX - 100,
                         INT64_MIN + 100, INT32_MAX, INT32_MIN};
    const i64 deltas[] = {0, 1, -1, 127, -128, 128, -129, 32767, -32768,
                          32768, -32769, INT32_MAX, INT32_MIN,
                          i64{INT32_MAX} + 1, i64{INT32_MIN} - 1,
                          INT64_MAX, INT64_MIN};
    constexpr u32 kChunks = kWarpRegBytes / 8;
    const auto image = [](const u64 (&chunks)[kChunks]) {
        std::array<u8, kWarpRegBytes> raw{};
        std::memcpy(raw.data(), chunks, kWarpRegBytes);
        return fromBytes(raw);
    };
    u32 n = 0;
    for (i64 base : bases) {
        const u64 b = static_cast<u64>(base);
        for (i64 delta : deltas) {
            const u64 o = b + static_cast<u64>(delta);
            u64 chunks[kChunks];
            // One outlier at the first, a middle and the last chunk.
            for (u32 at : {1u, 8u, kChunks - 1}) {
                std::fill(chunks, chunks + kChunks, b);
                chunks[at] = o;
                expectScanMatchesReference(image(chunks), "edge", n++);
            }
            // Every chunk after the base is the outlier.
            std::fill(chunks, chunks + kChunks, o);
            chunks[0] = b;
            expectScanMatchesReference(image(chunks), "edge", n++);
        }
    }
    // INT64_MAX then INT64_MIN: the true difference overflows i64, the
    // modular one is 1, so <8,1> fits and <8,0> does not.
    u64 chunks[kChunks];
    std::fill(chunks, chunks + kChunks, u64{1} << 63);
    chunks[0] = (u64{1} << 63) - 1;
    const WarpRegValue v = image(chunks);
    expectScanMatchesReference(v, "edge", n++);
    const BdiParams p80{8, 0}, p81{8, 1};
    EXPECT_FALSE(bdiCompress(toBytes(v), {&p80, 1}).compressed);
    EXPECT_TRUE(bdiCompress(toBytes(v), {&p81, 1}).compressed);
}

TEST(LaneScan, OverflowedDeltasAreWideAndRandom)
{
    // INT32_MIN next to INT32_MAX wraps to a u32 difference of 1; the
    // overflow flag must still report it as not fitting anything and
    // binned as random.
    WarpRegValue v{};
    v.fill(static_cast<u32>(INT32_MAX));
    v[1] = static_cast<u32>(INT32_MIN);
    const LaneScan scan = scanLanes(v);
    EXPECT_FALSE(scan.fits4.zero);
    EXPECT_FALSE(scan.fits4.one);
    EXPECT_FALSE(scan.fits4.two);
    EXPECT_FALSE(scan.fits4.four);
    EXPECT_EQ(scan.bins[0], kWarpSize - 3);
    EXPECT_EQ(scan.bins[3], 2u);
}

TEST(BdiFuzz, DeterministicAcrossRuns)
{
    // The fuzz corpus itself is seed-stable: two generators with the
    // same seed produce identical cases, so failures are replayable.
    Rng a(0xF0224u);
    Rng b(0xF0224u);
    for (u32 i = 0; i < 1000; ++i)
        ASSERT_TRUE(randomRegister(a, i) == randomRegister(b, i));
}

} // namespace
} // namespace warpcomp
