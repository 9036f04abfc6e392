#include "compress/unit.hpp"

#include "common/log.hpp"

namespace warpcomp {

UnitPool::UnitPool(u32 count, u32 latency)
    : count_(count), latency_(latency)
{
    WC_ASSERT(count > 0, "unit pool must have at least one unit");
}

} // namespace warpcomp
