/**
 * @file
 * Timing/occupancy model for the compressor and decompressor unit pools
 * (Sec. 5.1). Each unit is a pipelined collection of 32 subtractors plus
 * sign-extension comparators: initiation interval of one warp register
 * per cycle per unit, configurable result latency.
 */

#ifndef WARPCOMP_COMPRESS_UNIT_HPP
#define WARPCOMP_COMPRESS_UNIT_HPP

#include <optional>

#include "common/types.hpp"

namespace warpcomp {

/**
 * A pool of identical pipelined units. At most `count` operations may
 * start per cycle; each finishes `latency` cycles later.
 */
class UnitPool
{
  public:
    /**
     * @param count number of units in the pool
     * @param latency cycles from issue to result
     */
    UnitPool(u32 count, u32 latency);

    /**
     * Try to start an operation at @p now. Returns the completion cycle,
     * or nullopt when every unit already accepted an operation this
     * cycle. A zero-latency pool is supported: the returned completion
     * cycle is then @p now itself (an unambiguous value, unlike the old
     * `0` sentinel, which a `decompressLatency = 0` sweep could forge).
     */
    std::optional<Cycle>
    tryIssue(Cycle now)
    {
        if (lastCycle_ != now) {
            lastCycle_ = now;
            issuedThisCycle_ = 0;
        }
        if (issuedThisCycle_ >= count_)
            return std::nullopt;
        ++issuedThisCycle_;
        ++activations_;
        return now + latency_;
    }

    /** True when another operation can still start at @p now. */
    bool
    canIssue(Cycle now) const
    {
        return lastCycle_ != now || issuedThisCycle_ < count_;
    }

    u32 count() const { return count_; }
    u32 latency() const { return latency_; }

    /** Total operations issued (== unit activations for energy). */
    u64 activations() const { return activations_; }

  private:
    u32 count_;
    u32 latency_;
    Cycle lastCycle_ = ~Cycle{0};
    u32 issuedThisCycle_ = 0;
    u64 activations_ = 0;
};

} // namespace warpcomp

#endif // WARPCOMP_COMPRESS_UNIT_HPP
