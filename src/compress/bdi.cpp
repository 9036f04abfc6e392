#include "compress/bdi.hpp"

#include <cstring>
#include <type_traits>

#include "common/bitops.hpp"
#include "common/log.hpp"

namespace warpcomp {

namespace {

/** Load a little-endian chunk of 1/2/4/8 bytes as a signed value
 *  (this and chunkDelta serve only the bdiCompressible reference). */
i64
loadChunk(std::span<const u8> data, u32 index, u32 chunk_bytes)
{
    u64 raw = 0;
    std::memcpy(&raw, data.data() + index * chunk_bytes, chunk_bytes);
    // Sign-extend from chunk_bytes * 8 bits.
    const u32 bits = chunk_bytes * 8;
    if (bits < 64) {
        const u64 sign = u64{1} << (bits - 1);
        raw = (raw ^ sign) - sign;
    }
    return static_cast<i64>(raw);
}

/** Chunk @p index minus @p base, modulo 2^64 like a hardware
 *  subtractor: only 8-byte chunks can wrap, and decompression's
 *  modular add restores them exactly. */
i64
chunkDelta(std::span<const u8> data, u32 index, u32 chunk_bytes, i64 base)
{
    return static_cast<i64>(
        static_cast<u64>(loadChunk(data, index, chunk_bytes)) -
        static_cast<u64>(base));
}

/**
 * The one fits scan, over the 128-byte image read as chunks of the base
 * width U (u32 for <4,Y>, u64 for <8,Y>). Every candidate sharing the
 * base is answered at once: delta d = chunk i - chunk 0 fits Y bytes
 * iff d + 2^(8Y-1) has no bit at or above 8Y.
 *
 * Base 8 subtracts modulo 2^64, as the codec stores it. Base 4 keeps
 * the exact i64 difference of the i32 lanes: a - b wraps in u32, and
 * the true difference left the i32 range iff a and b differ in sign and
 * the wrapped result differs in sign from a (bit 31 of
 * (a ^ b) & (a ^ (a - b))); an overflowed delta is nonzero and fits no
 * width. kBins (base 4 only) also counts the Fig 2 successive-lane
 * distances into @p bins in DistanceBin order. The accumulators are ORs
 * and sums, never early exits, so the loop vectorizes on baseline SSE2.
 * Chunk 0 is paired with itself (a zero delta and a zero distance,
 * which every fit and the zero bin absorb), so there is no remainder.
 */
template <typename U, bool kBins>
DeltaFits
laneKernel(const U *chunks, u32 *bins)
{
    static_assert(sizeof(U) == 4 || sizeof(U) == 8);
    static_assert(!kBins || sizeof(U) == 4, "Fig 2 bins are per lane");
    constexpr u32 kChunks = kWarpRegBytes / sizeof(U);
    U prev[kChunks];
    prev[0] = chunks[0];
    std::memcpy(prev + 1, chunks, (kChunks - 1) * sizeof(U));

    const U base = chunks[0];
    U nonzero_or = 0;   // OR of chunk i - chunk 0
    U span1 = 0;        // OR of the deltas biased by 2^7, 2^15 and
    U span2 = 0;        // 2^31: a fit leaves no bit at or above the
    U span4 = 0;        // width (always so for 4-byte deltas of base 4)
    U ovf = 0;          // base 4, bit 31: some delta overflowed i32
    u32 nonzero = 0, over128 = 0, over32k = 0;
    for (u32 i = 0; i < kChunks; ++i) {
        const U a = chunks[i];
        const U d = a - base;
        nonzero_or |= d;
        span1 |= d + U{0x80};
        span2 |= d + U{0x8000};
        span4 |= d + U{0x80000000};
        if constexpr (sizeof(U) == 4)
            ovf |= (a ^ base) & (a ^ d);
        if constexpr (kBins) {
            const u32 e = a - prev[i];
            const u32 e_ovf = ((a ^ prev[i]) & (a ^ e)) >> 31;
            nonzero += static_cast<u32>(e != 0);
            over128 += e_ovf | static_cast<u32>(e + 128u > 256u);
            over32k += e_ovf | static_cast<u32>(e + 32768u > 65536u);
        }
    }
    const bool wide = (ovf >> 31) != 0;
    DeltaFits f;
    f.zero = nonzero_or == 0;
    f.one = !wide && (span1 & ~U{0xFF}) == 0;
    f.two = !wide && (span2 & ~U{0xFFFF}) == 0;
    f.four = !wide && (span4 & ~U{0xFFFFFFFF}) == 0;
    if constexpr (kBins) {
        bins[0] = (kWarpSize - 1) - nonzero;
        bins[1] = nonzero - over128;
        bins[2] = over128 - over32k;
        bins[3] = over32k;
    }
    return f;
}

/** The fits of @p data, a 128-byte image, for base width U. */
template <typename U>
DeltaFits
scanAs(std::span<const u8> data)
{
    WC_ASSERT(data.size() == kWarpRegBytes,
              "register compression operates on 128-byte warp registers");
    U chunks[kWarpRegBytes / sizeof(U)];
    std::memcpy(chunks, data.data(), kWarpRegBytes);
    return laneKernel<U, false>(chunks, nullptr);
}

/** Encode @p data with base width U: the base chunk, then each chunk
 *  minus the base (modulo the width) as its low @p delta_bytes bytes,
 *  little-endian. */
template <typename U>
void
encodeAs(std::span<const u8> data, u32 delta_bytes, BdiByteBuf &out)
{
    constexpr u32 kChunks = kWarpRegBytes / sizeof(U);
    U c[kChunks];
    std::memcpy(c, data.data(), kWarpRegBytes);
    out.resize(sizeof(U) + delta_bytes * (kChunks - 1));
    std::memcpy(out.data(), c, sizeof(U));
    u8 *p = out.data() + sizeof(U);
    const auto deltas = [&](auto width) {
        using D = decltype(width);
        for (u32 i = 1; i < kChunks; ++i) {
            const D d = static_cast<D>(c[i] - c[0]);
            std::memcpy(p + (i - 1) * sizeof(D), &d, sizeof(D));
        }
    };
    switch (delta_bytes) {
      case 0: break;
      case 1: deltas(u8{}); break;
      case 2: deltas(u16{}); break;
      case 4: deltas(u32{}); break;
      default: WC_PANIC("unsupported delta width " << delta_bytes);
    }
}

/** Invert encodeAs<U>: sign-extend each delta and add it back to the
 *  base modulo the width. */
template <typename U>
std::array<u8, kWarpRegBytes>
decodeAs(const BdiEncoded &enc)
{
    constexpr u32 kChunks = kWarpRegBytes / sizeof(U);
    U c[kChunks];
    std::memcpy(c, enc.bytes.data(), sizeof(U));
    const u8 *p = enc.bytes.data() + sizeof(U);
    const auto deltas = [&](auto width) {
        using D = decltype(width);
        for (u32 i = 1; i < kChunks; ++i) {
            D d = 0;
            std::memcpy(&d, p + (i - 1) * sizeof(D), sizeof(D));
            c[i] = c[0] +
                static_cast<U>(static_cast<std::make_signed_t<D>>(d));
        }
    };
    switch (enc.params.deltaBytes) {
      case 0:
        for (u32 i = 1; i < kChunks; ++i)
            c[i] = c[0];
        break;
      case 1: deltas(u8{}); break;
      case 2: deltas(u16{}); break;
      case 4: deltas(u32{}); break;
      default:
        WC_PANIC("unsupported delta width " << enc.params.deltaBytes);
    }
    std::array<u8, kWarpRegBytes> out{};
    std::memcpy(out.data(), c, kWarpRegBytes);
    return out;
}

/**
 * The one selection loop: the smallest-footprint candidate that fits
 * (ties to the earlier one), or nullptr when none is smaller than the
 * raw register. @p fits4 are the base-4 fits; base 8 is scanned on
 * first use, once for all its candidates.
 */
const BdiParams *
choose(std::span<const u8> data, std::span<const BdiParams> candidates,
       const DeltaFits &fits4)
{
    const BdiParams *best = nullptr;
    u32 best_size = kWarpRegBytes;
    std::optional<DeltaFits> fits8;
    for (const BdiParams &p : candidates) {
        WC_ASSERT(p.baseBytes == 4 || p.baseBytes == 8,
                  "unsupported base size " << p.baseBytes);
        const u32 size = bdiCompressedSize(p);
        if (size >= best_size)
            continue;
        if (p.baseBytes == 8 && !fits8)
            fits8 = scanAs<u64>(data);
        if ((p.baseBytes == 4 ? fits4 : *fits8).fits(p.deltaBytes)) {
            best = &p;
            best_size = size;
        }
    }
    return best;
}

constexpr BdiParams kFullCandidates[] = {
    {4, 0}, {4, 1}, {4, 2}, {8, 0}, {8, 1}, {8, 2}, {8, 4},
};

constexpr BdiParams kWarpedCandidates[] = {
    {4, 0}, {4, 1}, {4, 2},
};

} // namespace

std::span<const BdiParams>
fullBdiCandidates()
{
    return kFullCandidates;
}

std::span<const BdiParams>
warpedCandidates()
{
    return kWarpedCandidates;
}

std::array<u8, kWarpRegBytes>
toBytes(const WarpRegValue &value)
{
    std::array<u8, kWarpRegBytes> out{};
    std::memcpy(out.data(), value.data(), kWarpRegBytes);
    return out;
}

WarpRegValue
fromBytes(std::span<const u8> bytes)
{
    WC_ASSERT(bytes.size() == kWarpRegBytes, "warp register image must be "
              << kWarpRegBytes << " bytes, got " << bytes.size());
    WarpRegValue v{};
    std::memcpy(v.data(), bytes.data(), kWarpRegBytes);
    return v;
}

bool
bdiCompressible(std::span<const u8> data, BdiParams params)
{
    WC_ASSERT(data.size() % params.baseBytes == 0,
              "data not a multiple of the chunk size");
    WC_ASSERT(params.baseBytes == 1 || params.baseBytes == 2 ||
              params.baseBytes == 4 || params.baseBytes == 8,
              "unsupported base size " << params.baseBytes);
    WC_ASSERT(params.deltaBytes < params.baseBytes,
              "delta must be narrower than the base");

    const u32 chunks = static_cast<u32>(data.size()) / params.baseBytes;
    const i64 base = loadChunk(data, 0, params.baseBytes);
    for (u32 i = 1; i < chunks; ++i) {
        const i64 delta = chunkDelta(data, i, params.baseBytes, base);
        if (params.deltaBytes == 0) {
            if (delta != 0)
                return false;
        } else if (!fitsSigned(delta, params.deltaBytes)) {
            return false;
        }
    }
    return true;
}

bool
DeltaFits::fits(u32 delta_bytes) const
{
    switch (delta_bytes) {
      case 0: return zero;
      case 1: return one;
      case 2: return two;
      case 4: return four;
      default: WC_PANIC("unscanned delta width " << delta_bytes);
    }
}

LaneScan
scanLanes(const WarpRegValue &value)
{
    LaneScan scan;
    scan.fits4 = laneKernel<u32, true>(value.data(), scan.bins);
    return scan;
}

BdiEncoded
bdiCompress(std::span<const u8> data, std::span<const BdiParams> candidates)
{
    return bdiCompress(data, candidates, scanAs<u32>(data));
}

BdiChoice
bdiChoose(std::span<const u8> data, std::span<const BdiParams> candidates,
          const DeltaFits &fits4)
{
    WC_ASSERT(data.size() == kWarpRegBytes,
              "register compression operates on 128-byte warp registers");
    const BdiParams *best = choose(data, candidates, fits4);
    if (best == nullptr)
        return {};
    return {*best, true, bdiCompressedSize(*best)};
}

BdiEncoded
bdiCompress(std::span<const u8> data, std::span<const BdiParams> candidates,
            const DeltaFits &fits4)
{
    const BdiChoice choice = bdiChoose(data, candidates, fits4);
    BdiEncoded enc;
    enc.params = choice.params;
    enc.compressed = choice.compressed;
    if (!choice.compressed)
        enc.bytes.assign(data);
    else if (choice.params.baseBytes == 4)
        encodeAs<u32>(data, choice.params.deltaBytes, enc.bytes);
    else
        encodeAs<u64>(data, choice.params.deltaBytes, enc.bytes);
    return enc;
}

std::array<u8, kWarpRegBytes>
bdiDecompress(const BdiEncoded &enc)
{
    if (enc.compressed)
        return enc.params.baseBytes == 4 ? decodeAs<u32>(enc)
                                         : decodeAs<u64>(enc);
    WC_ASSERT(enc.bytes.size() == kWarpRegBytes,
              "uncompressed payload must be 128 bytes");
    std::array<u8, kWarpRegBytes> out{};
    std::memcpy(out.data(), enc.bytes.data(), kWarpRegBytes);
    return out;
}

std::optional<BdiParams>
bdiBestParams(std::span<const u8> data, std::span<const BdiParams> candidates)
{
    const BdiParams *best = choose(data, candidates, scanAs<u32>(data));
    if (best == nullptr)
        return std::nullopt;
    return *best;
}

} // namespace warpcomp
