/**
 * @file
 * Value-similarity characterization (Sec. 3): arithmetic distances
 * between successive thread registers of each written warp register,
 * binned into zero / 128 / 32K / random, attributed to divergent vs
 * non-divergent execution phases. Also the compression-ratio
 * accumulator behind Fig 8 / Fig 15.
 */

#ifndef WARPCOMP_ANALYSIS_SIMILARITY_HPP
#define WARPCOMP_ANALYSIS_SIMILARITY_HPP

#include "common/log.hpp"
#include "common/types.hpp"
#include "compress/bdi.hpp"

namespace warpcomp {

/** Fig 2 bins. */
enum class DistanceBin : u8 {
    Zero = 0,       ///< successive registers identical
    Small128 = 1,   ///< |distance| <= 128
    Mid32K = 2,     ///< |distance| <= 2^15
    Random = 3      ///< anything larger
};

inline constexpr u32 kNumDistanceBins = 4;

/** Execution phase index used throughout the stats. */
enum Phase : u32 { kNonDivergent = 0, kDivergent = 1 };

/** Classify one arithmetic distance. */
DistanceBin classifyDistance(i64 distance);

/** Accumulates Fig 2's per-write distance bins. */
class SimilarityBins
{
  public:
    /**
     * Record one register write: distances between successive written
     * lanes (values interpreted as signed 32-bit integers).
     *
     * @param value full 32-lane register content after the write
     * @param written lanes actually written
     * @param divergent attribution phase
     */
    void record(const WarpRegValue &value, LaneMask written,
                bool divergent);

    /** Record one full-mask write whose lanes were already scanned:
     *  same effect as record(value, kFullMask, divergent) for the
     *  value @p scan came from. */
    void
    recordScanned(const LaneScan &scan, bool divergent)
    {
        u64 *bins = bins_[divergent ? kDivergent : kNonDivergent];
        for (u32 b = 0; b < kNumDistanceBins; ++b)
            bins[b] += scan.bins[b];
    }

    u64 count(Phase phase, DistanceBin bin) const;
    u64 total(Phase phase) const;
    /** Bin share within one phase; 0 when the phase saw no distances. */
    double fraction(Phase phase, DistanceBin bin) const;

    void merge(const SimilarityBins &other);

  private:
    u64 bins_[2][kNumDistanceBins] = {};
};

/** Accumulates compression ratios per phase (Fig 8 / Fig 15). */
class RatioAccum
{
  public:
    /** Record one write compressed to @p compressed_bytes. */
    void
    record(u32 compressed_bytes, bool divergent)
    {
        WC_ASSERT(compressed_bytes > 0 && compressed_bytes <= kWarpRegBytes,
                  "bad compressed size " << compressed_bytes);
        const u32 phase = divergent ? kDivergent : kNonDivergent;
        origBytes_[phase] += kWarpRegBytes;
        compBytes_[phase] += compressed_bytes;
        ++writes_[phase];
    }

    /** originalBytes / compressedBytes for the phase (1.0 when empty). */
    double ratio(Phase phase) const;
    /** Ratio across both phases. */
    double overallRatio() const;
    u64 writes(Phase phase) const { return writes_[phase]; }

    void merge(const RatioAccum &other);

  private:
    u64 origBytes_[2] = {};
    u64 compBytes_[2] = {};
    u64 writes_[2] = {};
};

} // namespace warpcomp

#endif // WARPCOMP_ANALYSIS_SIMILARITY_HPP
