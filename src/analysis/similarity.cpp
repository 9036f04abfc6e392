#include "analysis/similarity.hpp"

#include "common/bitops.hpp"
#include "common/log.hpp"

namespace warpcomp {

DistanceBin
classifyDistance(i64 distance)
{
    const i64 mag = distance < 0 ? -distance : distance;
    if (mag == 0)
        return DistanceBin::Zero;
    if (mag <= 128)
        return DistanceBin::Small128;
    if (mag <= (i64{1} << 15))
        return DistanceBin::Mid32K;
    return DistanceBin::Random;
}

void
SimilarityBins::record(const WarpRegValue &value, LaneMask written,
                       bool divergent)
{
    // Full warp write — the overwhelmingly common case: all 31
    // successive pairs contribute, counted by the fused lane kernel.
    if (written == kFullMask) {
        recordScanned(scanLanes(value), divergent);
        return;
    }
    // Distances between successive *written* lanes: skipped (inactive)
    // lanes do not contribute pairs, mirroring the paper's "successive
    // thread registers written".
    u64 *bins = bins_[divergent ? kDivergent : kNonDivergent];
    i32 prev = 0;
    bool have_prev = false;
    for (u32 lane = 0; lane < kWarpSize; ++lane) {
        if (!laneActive(written, lane))
            continue;
        const i32 cur = static_cast<i32>(value[lane]);
        if (have_prev) {
            const i64 d = static_cast<i64>(cur) - static_cast<i64>(prev);
            ++bins[static_cast<u32>(classifyDistance(d))];
        }
        prev = cur;
        have_prev = true;
    }
}

u64
SimilarityBins::count(Phase phase, DistanceBin bin) const
{
    return bins_[phase][static_cast<u32>(bin)];
}

u64
SimilarityBins::total(Phase phase) const
{
    u64 sum = 0;
    for (u32 b = 0; b < kNumDistanceBins; ++b)
        sum += bins_[phase][b];
    return sum;
}

double
SimilarityBins::fraction(Phase phase, DistanceBin bin) const
{
    const u64 t = total(phase);
    return t == 0 ? 0.0
                  : static_cast<double>(count(phase, bin)) /
                        static_cast<double>(t);
}

void
SimilarityBins::merge(const SimilarityBins &other)
{
    for (u32 p = 0; p < 2; ++p) {
        for (u32 b = 0; b < kNumDistanceBins; ++b)
            bins_[p][b] += other.bins_[p][b];
    }
}

double
RatioAccum::ratio(Phase phase) const
{
    if (compBytes_[phase] == 0)
        return 1.0;
    return static_cast<double>(origBytes_[phase]) /
        static_cast<double>(compBytes_[phase]);
}

double
RatioAccum::overallRatio() const
{
    const u64 orig = origBytes_[0] + origBytes_[1];
    const u64 comp = compBytes_[0] + compBytes_[1];
    if (comp == 0)
        return 1.0;
    return static_cast<double>(orig) / static_cast<double>(comp);
}

void
RatioAccum::merge(const RatioAccum &other)
{
    for (u32 p = 0; p < 2; ++p) {
        origBytes_[p] += other.origBytes_[p];
        compBytes_[p] += other.compBytes_[p];
        writes_[p] += other.writes_[p];
    }
}

} // namespace warpcomp
