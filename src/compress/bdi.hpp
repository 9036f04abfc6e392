/**
 * @file
 * Base-delta-immediate (BDI) codec for 128-byte warp registers (Sec. 4).
 *
 * The data is split into chunks of `baseBytes`; the first chunk is the
 * base and every chunk is stored as a signed delta of `deltaBytes` bytes
 * against it. `deltaBytes == 0` is the special all-chunks-equal case.
 * A register compresses under <X,Y> iff every delta fits in Y bytes.
 * Deltas are exact differences, except that 8-byte chunks subtract
 * modulo 2^64 as a 64-bit hardware subtractor would (decode adds back
 * modulo 2^64, so the round trip is exact either way). Bases 4 and 8
 * are supported, the only ones a candidate list names; one codec,
 * templated over the chunk width, serves both.
 *
 * The compressed length follows Eq. (1) of the paper:
 *   Lcomp = Lbase + Ldelta * (Linput / Lbase - 1)
 */

#ifndef WARPCOMP_COMPRESS_BDI_HPP
#define WARPCOMP_COMPRESS_BDI_HPP

#include <array>
#include <cassert>
#include <cstring>
#include <optional>
#include <span>

#include "common/types.hpp"

namespace warpcomp {

/** A warp register's functional value: one 32-bit word per lane. */
using WarpRegValue = std::array<u32, kWarpSize>;

/** One <base,delta> parameter choice, in bytes. */
struct BdiParams
{
    u32 baseBytes = 4;
    u32 deltaBytes = 0;

    bool operator==(const BdiParams &) const = default;
};

/** The seven candidates the paper's design-space explorer considers. */
std::span<const BdiParams> fullBdiCandidates();

/** The three fixed choices warped-compression uses: <4,0> <4,1> <4,2>. */
std::span<const BdiParams> warpedCandidates();

/** Compressed length in bytes per Eq. (1); input defaults to 128 B. */
constexpr u32
bdiCompressedSize(BdiParams p, u32 input_bytes = kWarpRegBytes)
{
    return p.baseBytes + p.deltaBytes * (input_bytes / p.baseBytes - 1);
}

/** Register banks (16-B each) needed to hold @p bytes. */
constexpr u32
banksForBytes(u32 bytes)
{
    return (bytes + kBankEntryBytes - 1) / kBankEntryBytes;
}

/** Serialize a warp register value to its 128-byte memory image. */
std::array<u8, kWarpRegBytes> toBytes(const WarpRegValue &value);

/** The same image viewed in place, without the copy toBytes makes. */
inline std::span<const u8, kWarpRegBytes>
regBytes(const WarpRegValue &value)
{
    return std::span<const u8, kWarpRegBytes>(
        reinterpret_cast<const u8 *>(value.data()), kWarpRegBytes);
}

/** Rebuild a warp register value from its 128-byte image. */
WarpRegValue fromBytes(std::span<const u8> bytes);

/** True when @p data compresses under @p params: the scalar,
 *  one-candidate-at-a-time reference definition the tests check the
 *  codec's fits scan against (any base of 1, 2, 4 or 8 bytes). */
bool bdiCompressible(std::span<const u8> data, BdiParams params);

/**
 * Which delta widths fit for one base size. The fits are nested
 * (zero ⊂ 1B ⊂ 2B ⊂ 4B), so one scan of the data answers every
 * candidate sharing the base size.
 */
struct DeltaFits
{
    bool zero = true;
    bool one = true;
    bool two = true;
    bool four = true;

    /** @p delta_bytes must be 0, 1, 2 or 4. */
    bool fits(u32 delta_bytes) const;
};

/**
 * One pass over the 32 lanes of a warp register, values read as signed
 * 32-bit integers. The paper's observation is that a register's lanes
 * are close in value; both per-write questions about that closeness
 * come out of this single pass:
 *  - base-4 BDI: do the deltas lane i - lane 0 fit in 0/1/2/4 bytes
 *    (the <4,Y> candidates, bdiCompressible semantics);
 *  - Fig 2: how the 31 successive-lane distances lane i - lane i-1
 *    fall into the zero / <=128 / <=2^15 / larger bins
 *    (classifyDistance semantics).
 */
struct LaneScan
{
    DeltaFits fits4;
    /** Successive-lane distance counts in DistanceBin order (zero,
     *  small, mid, random); they sum to kWarpSize - 1. */
    u32 bins[4] = {};
};

/** Scan @p value; see LaneScan. This is the base-4 instance of the
 *  codec's fits scan with the Fig 2 bins compiled in: branch-free u32
 *  arithmetic with an explicit signed-overflow flag, so it vectorizes. */
LaneScan scanLanes(const WarpRegValue &value);

/**
 * Fixed-capacity byte buffer for one encoded register. An encoding is
 * never larger than the 128-byte input, so the payload lives inline and
 * moving a BdiEncoded through the pipeline performs no heap allocation.
 */
class BdiByteBuf
{
  public:
    BdiByteBuf() = default;

    u8 *data() { return data_.data(); }
    const u8 *data() const { return data_.data(); }
    u32 size() const { return size_; }

    /** Set the logical size; the encoder then writes the payload in
     *  place through data(). */
    void
    resize(u32 size)
    {
        assert(size <= kWarpRegBytes);
        size_ = size;
    }

    /** Replace the contents with @p src. */
    void
    assign(std::span<const u8> src)
    {
        assert(src.size() <= kWarpRegBytes);
        size_ = static_cast<u32>(src.size());
        std::memcpy(data_.data(), src.data(), src.size());
    }

    u8 &operator[](std::size_t i) { return data_[i]; }
    const u8 &operator[](std::size_t i) const { return data_[i]; }

    bool
    operator==(const BdiByteBuf &other) const
    {
        return size_ == other.size_ &&
            std::memcmp(data_.data(), other.data_.data(), size_) == 0;
    }

  private:
    std::array<u8, kWarpRegBytes> data_{};
    u32 size_ = 0;
};

/**
 * A compression decision without its bytes: the candidate chosen and
 * the stored size, all the bank allocation and arbitration need. The
 * bytes are a pure function of the register value and the decision,
 * so the simulator re-derives them (bdiCompress) where it needs them.
 */
struct BdiChoice
{
    /** Parameters chosen; meaningless when !compressed. */
    BdiParams params{};
    bool compressed = false;
    /** bdiCompressedSize(params) when compressed, else 128. */
    u32 sizeBytes = kWarpRegBytes;
};

/** Result of attempting compression on a warp register. */
struct BdiEncoded
{
    /** Parameters used; meaningless when !compressed. */
    BdiParams params{};
    bool compressed = false;
    /** Compressed bytes (size == bdiCompressedSize(params)) when
     *  compressed, else the raw 128-byte image. Stored inline: no heap
     *  allocation per encode or per move through the pipeline. */
    BdiByteBuf bytes;

    u32 sizeBytes() const { return bytes.size(); }
    u32 banks() const { return banksForBytes(sizeBytes()); }
};

/**
 * The decision bdiCompress makes for the 128-byte image @p data: the
 * smallest-footprint candidate that fits (ties broken toward the
 * earlier candidate), or uncompressed. Every candidate must have base 4
 * or 8 and a delta of 0, 1, 2 or 4 bytes; @p fits4 must be
 * scanLanes(...).fits4 of the same image.
 */
BdiChoice bdiChoose(std::span<const u8> data,
                    std::span<const BdiParams> candidates,
                    const DeltaFits &fits4);

/** Compress the 128-byte image @p data as bdiChoose decides. */
BdiEncoded bdiCompress(std::span<const u8> data,
                       std::span<const BdiParams> candidates);

/** bdiCompress with the base-4 fits already known: @p fits4 must be
 *  scanLanes(...).fits4 of the same image. */
BdiEncoded bdiCompress(std::span<const u8> data,
                       std::span<const BdiParams> candidates,
                       const DeltaFits &fits4);

/** Invert bdiCompress; always returns the original 128 bytes. */
std::array<u8, kWarpRegBytes> bdiDecompress(const BdiEncoded &enc);

/**
 * The original-BDI explorer used for Fig 5: among @p candidates, the
 * pair bdiCompress would choose for the 128-byte image @p data, or
 * nullopt when nothing fits. It selects without encoding, scanning each
 * base width at most once.
 */
std::optional<BdiParams> bdiBestParams(std::span<const u8> data,
                                       std::span<const BdiParams> candidates);

} // namespace warpcomp

#endif // WARPCOMP_COMPRESS_BDI_HPP
