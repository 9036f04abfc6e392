#include "sim/exec_unit.hpp"

#include "common/log.hpp"

namespace warpcomp {

DispatchLimiter::DispatchLimiter(u32 per_cycle) : perCycle_(per_cycle)
{
    WC_ASSERT(per_cycle > 0, "dispatch rate must be positive");
}

} // namespace warpcomp
