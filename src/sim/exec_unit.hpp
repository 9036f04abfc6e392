/**
 * @file
 * Execution-unit dispatch: per-cycle issue limits for the SIMT clusters
 * and the memory pipeline, plus result-latency computation.
 */

#ifndef WARPCOMP_SIM_EXEC_UNIT_HPP
#define WARPCOMP_SIM_EXEC_UNIT_HPP

#include "common/log.hpp"
#include "common/types.hpp"
#include "isa/opcode.hpp"
#include "mem/mem_timing.hpp"

namespace warpcomp {

/** Per-cycle dispatch throttle (no latency; just a rate limit). */
class DispatchLimiter
{
  public:
    explicit DispatchLimiter(u32 per_cycle);

    /** Consume one dispatch slot at @p now; false when exhausted. */
    bool
    tryDispatch(Cycle now)
    {
        if (lastCycle_ != now) {
            lastCycle_ = now;
            usedThisCycle_ = 0;
        }
        if (usedThisCycle_ >= perCycle_)
            return false;
        ++usedThisCycle_;
        ++dispatched_;
        return true;
    }

    u64 dispatched() const { return dispatched_; }

  private:
    u32 perCycle_;
    Cycle lastCycle_ = ~Cycle{0};
    u32 usedThisCycle_ = 0;
    u64 dispatched_ = 0;
};

/**
 * Result latency of a non-memory instruction (memory latencies come
 * from the coalescing model at issue time).
 */
inline u32
resultLatency(Opcode op)
{
    const ExecClass cls = execClass(op);
    WC_ASSERT(cls != ExecClass::Mem,
              "memory latency comes from the coalescing model");
    return execLatency(cls);
}

} // namespace warpcomp

#endif // WARPCOMP_SIM_EXEC_UNIT_HPP
