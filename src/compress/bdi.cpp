#include "compress/bdi.hpp"

#include <cstring>

#include "common/bitops.hpp"
#include "common/log.hpp"

namespace warpcomp {

namespace {

/** Load a little-endian chunk of 1/2/4/8 bytes as a signed value. */
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

/** Store the low @p bytes bytes of @p value little-endian. */
void
storeBytes(BdiByteBuf &out, i64 value, u32 bytes)
{
    u64 raw = static_cast<u64>(value);
    for (u32 i = 0; i < bytes; ++i) {
        out.push_back(static_cast<u8>(raw & 0xFF));
        raw >>= 8;
    }
}

/** Generic fits scan for @p base_bytes chunks (base 4 uses the
 *  vectorized scanLanes instead). */
DeltaFits
scanDeltas(std::span<const u8> data, u32 base_bytes)
{
    DeltaFits f;
    const u32 chunks = static_cast<u32>(data.size()) / base_bytes;
    const i64 base = loadChunk(data, 0, base_bytes);
    for (u32 i = 1; i < chunks; ++i) {
        const i64 d = chunkDelta(data, i, base_bytes, base);
        f.zero = f.zero && d == 0;
        f.one = f.one && fitsSigned(d, 1);
        f.two = f.two && fitsSigned(d, 2);
        if (!fitsSigned(d, 4)) {
            // Nested ranges: nothing narrower can fit either.
            f = {false, false, false, false};
            break;
        }
    }
    return f;
}

/** Encode the base-4 candidates (<4,0> <4,1> <4,2>) with one flat pass
 *  writing the payload in place. Byte-identical to the generic
 *  storeBytes loop: deltas store their low little-endian bytes. */
void
encodeBase4(std::span<const u8> data, u32 delta_bytes, BdiByteBuf &out)
{
    u32 lanes[kWarpSize];
    std::memcpy(lanes, data.data(), kWarpRegBytes);
    const i64 base = static_cast<i32>(lanes[0]);
    out.resize(4 + delta_bytes * (kWarpSize - 1));
    u8 *p = out.data();
    std::memcpy(p, &lanes[0], 4);
    p += 4;
    if (delta_bytes == 1) {
        for (u32 i = 1; i < kWarpSize; ++i)
            p[i - 1] = static_cast<u8>(
                static_cast<i32>(lanes[i]) - base);
    } else if (delta_bytes == 2) {
        for (u32 i = 1; i < kWarpSize; ++i) {
            const u16 d = static_cast<u16>(
                static_cast<i32>(lanes[i]) - base);
            std::memcpy(p + 2 * (i - 1), &d, 2);
        }
    }
}

/** Decode a base-4 encoding into the 128-byte image with flat loops. */
void
decodeBase4(const BdiEncoded &enc, std::array<u8, kWarpRegBytes> &out)
{
    u32 lanes[kWarpSize];
    u32 base_raw = 0;
    std::memcpy(&base_raw, enc.bytes.data(), 4);
    const i64 base = static_cast<i32>(base_raw);
    lanes[0] = base_raw;
    const u8 *d = enc.bytes.data() + 4;
    switch (enc.params.deltaBytes) {
      case 0:
        for (u32 i = 1; i < kWarpSize; ++i)
            lanes[i] = base_raw;
        break;
      case 1:
        for (u32 i = 1; i < kWarpSize; ++i)
            lanes[i] = static_cast<u32>(
                base + static_cast<i8>(d[i - 1]));
        break;
      case 2:
        for (u32 i = 1; i < kWarpSize; ++i) {
            u16 raw = 0;
            std::memcpy(&raw, d + 2 * (i - 1), 2);
            lanes[i] = static_cast<u32>(
                base + static_cast<i16>(raw));
        }
        break;
      default:
        WC_PANIC("unsupported base-4 delta width "
                 << enc.params.deltaBytes);
    }
    std::memcpy(out.data(), lanes, kWarpRegBytes);
}

/**
 * The lane kernel behind scanLanes. kBins = false leaves out the Fig 2
 * half (LaneScan::bins stays zero) for callers that only encode.
 *
 * Signed 32-bit differences in u32 arithmetic: a - b wraps, and the
 * true (i64) difference left the i32 range iff a and b differ in sign
 * and the wrapped result differs in sign from a (bit 31 of
 * (a ^ b) & (a ^ (a - b))). An overflowed difference is nonzero and
 * wider than every threshold below. The accumulators are ORs and sums
 * of per-lane values, never early exits, so the loop vectorizes on
 * baseline SSE2. Lane 0 is paired with itself (a zero delta and a zero
 * distance, which every fit and the zero bin absorb), so the loop runs
 * all 32 lanes with no scalar remainder.
 */
template <bool kBins>
LaneScan
laneKernel(const u32 *lanes)
{
    u32 prev[kWarpSize];
    prev[0] = lanes[0];
    std::memcpy(prev + 1, lanes, (kWarpSize - 1) * sizeof(u32));

    const u32 base = lanes[0];
    u32 base_nonzero = 0;   // OR of lane i - lane 0
    u32 base_span1 = 0;     // OR of the deltas biased by 2^7 ...
    u32 base_span2 = 0;     // ... and by 2^15: a fit leaves no high bit
    u32 base_ovf = 0;       // bit 31: some delta overflowed i32
    u32 nonzero = 0, over128 = 0, over32k = 0;
    for (u32 i = 0; i < kWarpSize; ++i) {
        const u32 a = lanes[i];
        const u32 d = a - base;
        base_nonzero |= d;
        base_span1 |= d + 0x80u;
        base_span2 |= d + 0x8000u;
        base_ovf |= (a ^ base) & (a ^ d);
        if constexpr (kBins) {
            const u32 e = a - prev[i];
            const u32 e_ovf = ((a ^ prev[i]) & (a ^ e)) >> 31;
            nonzero += static_cast<u32>(e != 0);
            over128 += e_ovf | static_cast<u32>(e + 128u > 256u);
            over32k += e_ovf | static_cast<u32>(e + 32768u > 65536u);
        }
    }
    const bool ovf = (base_ovf >> 31) != 0;
    LaneScan scan;
    scan.fits4.zero = base_nonzero == 0;
    scan.fits4.one = !ovf && (base_span1 & ~0xFFu) == 0;
    scan.fits4.two = !ovf && (base_span2 & ~0xFFFFu) == 0;
    scan.fits4.four = !ovf;
    if constexpr (kBins) {
        scan.bins[0] = (kWarpSize - 1) - nonzero;
        scan.bins[1] = nonzero - over128;
        scan.bins[2] = over128 - over32k;
        scan.bins[3] = over32k;
    }
    return scan;
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
    return laneKernel<true>(value.data());
}

BdiEncoded
bdiCompress(std::span<const u8> data, std::span<const BdiParams> candidates)
{
    WC_ASSERT(data.size() == kWarpRegBytes,
              "register compression operates on 128-byte warp registers");
    u32 lanes[kWarpSize];
    std::memcpy(lanes, data.data(), kWarpRegBytes);
    return bdiCompress(data, candidates, laneKernel<false>(lanes).fits4);
}

BdiEncoded
bdiCompress(std::span<const u8> data, std::span<const BdiParams> candidates,
            const DeltaFits &fits4)
{
    WC_ASSERT(data.size() == kWarpRegBytes,
              "register compression operates on 128-byte warp registers");

    const BdiParams *best = nullptr;
    u32 best_size = kWarpRegBytes;
    // Base 8 is scanned lazily, once for all its candidates.
    std::optional<DeltaFits> fits8;
    for (const BdiParams &p : candidates) {
        const u32 size = bdiCompressedSize(p);
        if (size >= best_size)
            continue;
        bool ok;
        const bool scannable =
            p.deltaBytes == 0 || p.deltaBytes == 1 ||
            p.deltaBytes == 2 || p.deltaBytes == 4;
        if (p.baseBytes == 4 && scannable) {
            ok = fits4.fits(p.deltaBytes);
        } else if (p.baseBytes == 8 && scannable) {
            if (!fits8)
                fits8 = scanDeltas(data, 8);
            ok = fits8->fits(p.deltaBytes);
        } else {
            ok = bdiCompressible(data, p);
        }
        if (ok) {
            best = &p;
            best_size = size;
        }
    }

    BdiEncoded enc;
    if (best == nullptr) {
        enc.compressed = false;
        enc.bytes.assign(data);
        return enc;
    }

    enc.compressed = true;
    enc.params = *best;
    if (best->baseBytes == 4 && best->deltaBytes <= 2) {
        // The warped candidates (<4,0> <4,1> <4,2>) take the flat
        // lane-wise path over the contiguous 32x4B image.
        encodeBase4(data, best->deltaBytes, enc.bytes);
        WC_ASSERT(enc.bytes.size() == best_size,
                  "compressed size mismatch");
        return enc;
    }
    const u32 chunks = kWarpRegBytes / best->baseBytes;
    const i64 base = loadChunk(data, 0, best->baseBytes);
    storeBytes(enc.bytes, base, best->baseBytes);
    for (u32 i = 1; i < chunks; ++i) {
        const i64 delta = chunkDelta(data, i, best->baseBytes, base);
        storeBytes(enc.bytes, delta, best->deltaBytes);
    }
    WC_ASSERT(enc.bytes.size() == best_size, "compressed size mismatch");
    return enc;
}

std::array<u8, kWarpRegBytes>
bdiDecompress(const BdiEncoded &enc)
{
    std::array<u8, kWarpRegBytes> out{};
    if (!enc.compressed) {
        WC_ASSERT(enc.bytes.size() == kWarpRegBytes,
                  "uncompressed payload must be 128 bytes");
        std::memcpy(out.data(), enc.bytes.data(), kWarpRegBytes);
        return out;
    }

    const BdiParams p = enc.params;
    if (p.baseBytes == 4 && p.deltaBytes <= 2) {
        decodeBase4(enc, out);
        return out;
    }
    const u32 chunks = kWarpRegBytes / p.baseBytes;
    const std::span<const u8> payload(enc.bytes.data(), enc.sizeBytes());
    const i64 base = loadChunk(payload, 0, p.baseBytes);
    // Base chunk.
    u64 raw = static_cast<u64>(base);
    std::memcpy(out.data(), &raw, p.baseBytes);
    // Delta chunks.
    for (u32 i = 1; i < chunks; ++i) {
        i64 delta = 0;
        if (p.deltaBytes > 0)
            delta = loadChunk(payload.subspan(p.baseBytes), i - 1,
                              p.deltaBytes);
        raw = static_cast<u64>(base) + static_cast<u64>(delta);
        std::memcpy(out.data() + i * p.baseBytes, &raw, p.baseBytes);
    }
    return out;
}

std::optional<BdiParams>
bdiBestParams(std::span<const u8> data, std::span<const BdiParams> candidates)
{
    const BdiParams *best = nullptr;
    u32 best_size = ~0u;
    for (const BdiParams &p : candidates) {
        const u32 size = bdiCompressedSize(
            p, static_cast<u32>(data.size()));
        if (size < best_size && size < data.size() &&
            bdiCompressible(data, p)) {
            best = &p;
            best_size = size;
        }
    }
    if (best == nullptr)
        return std::nullopt;
    return *best;
}

} // namespace warpcomp
