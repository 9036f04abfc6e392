#include "sim/collector.hpp"

#include "common/log.hpp"

namespace warpcomp {

CollectorPool::CollectorPool(u32 num_units) : units_(num_units, nullptr)
{
    WC_ASSERT(num_units > 0, "need at least one collector unit");
    order_.reserve(num_units);
}

} // namespace warpcomp
