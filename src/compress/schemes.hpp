/**
 * @file
 * Named compression schemes used across the evaluation: the dynamic
 * warped-compression scheme, the single-choice static variants from the
 * Sec. 6.6 design-space exploration, and the full-BDI explorer.
 */

#ifndef WARPCOMP_COMPRESS_SCHEMES_HPP
#define WARPCOMP_COMPRESS_SCHEMES_HPP

#include <span>
#include <string>

#include "common/log.hpp"
#include "compress/bdi.hpp"

namespace warpcomp {

/** Compression scheme selector. */
enum class CompressionScheme : u8 {
    None,       ///< baseline: registers always uncompressed
    Warped,     ///< dynamic choice among <4,0> <4,1> <4,2> (default)
    Fixed40,    ///< static <4,0> only (the scalarization comparator)
    Fixed41,    ///< static <4,1> only
    Fixed42,    ///< static <4,2> only
    FullBdi     ///< all seven candidates (original-BDI explorer)
};

/** Candidate parameter list for a scheme (empty for None). */
std::span<const BdiParams> schemeCandidates(CompressionScheme scheme);

/**
 * The bytes a register bank stripe holds for a register of value
 * @p value: its encoding under @p scheme when it is stored
 * @p compressed, else the raw image. A pure function of the value, so
 * the register file keeps no copy of them.
 */
BdiEncoded storedImage(const WarpRegValue &value, bool compressed,
                       CompressionScheme scheme);

/** Human-readable scheme name. */
std::string schemeName(CompressionScheme scheme);

/** Stable identifiers for serialization (the config spec's `scheme`
 *  tokens), in enum order; unlike schemeName these round-trip. */
inline constexpr const char *kSchemeIds[] = {
    "None", "Warped", "Fixed40", "Fixed41", "Fixed42", "FullBdi"};

/**
 * The 2-bit compression-range indicator the bank arbiter stores per warp
 * register (Sec. 4): which of the three choices compressed the register,
 * or uncompressed.
 */
enum class RangeIndicator : u8 {
    Base40 = 0,         ///< <4,0>: 1 bank
    Base41 = 1,         ///< <4,1>: 3 banks
    Base42 = 2,         ///< <4,2>: 5 banks
    Uncompressed = 3    ///< 8 banks
};

/** Payload bytes stored for a range-indicator value (4/35/66/128). */
inline u32
indicatorBytes(RangeIndicator ind)
{
    switch (ind) {
      case RangeIndicator::Base40: return bdiCompressedSize({4, 0});
      case RangeIndicator::Base41: return bdiCompressedSize({4, 1});
      case RangeIndicator::Base42: return bdiCompressedSize({4, 2});
      case RangeIndicator::Uncompressed: return kWarpRegBytes;
      default: WC_PANIC("unknown range indicator");
    }
}

/** Banks occupied for a range-indicator value (1/3/5/8). */
inline u32
indicatorBanks(RangeIndicator ind)
{
    return banksForBytes(indicatorBytes(ind));
}

/** Indicator for a compression outcome under the Warped scheme. */
inline RangeIndicator
indicatorFor(const BdiChoice &choice)
{
    if (!choice.compressed)
        return RangeIndicator::Uncompressed;
    if (choice.params == BdiParams{4, 0})
        return RangeIndicator::Base40;
    if (choice.params == BdiParams{4, 1})
        return RangeIndicator::Base41;
    if (choice.params == BdiParams{4, 2})
        return RangeIndicator::Base42;
    // Non-warped parameter (e.g. an <8,Y> from the FullBdi explorer):
    // represent by footprint only; the indicator is a warped-scheme
    // concept and the closest bucket is uncompressed.
    return RangeIndicator::Uncompressed;
}

} // namespace warpcomp

#endif // WARPCOMP_COMPRESS_SCHEMES_HPP
