/**
 * @file
 * The one host-thread count the simulator resolves a budget against:
 * the experiment runner, the sweep supervisor and one run's SM crew
 * (sim/sm_crew.hpp) all call resolveThreadCount.
 */

#ifndef WARPCOMP_COMMON_HOST_THREADS_HPP
#define WARPCOMP_COMMON_HOST_THREADS_HPP

#include "common/types.hpp"

namespace warpcomp {

/**
 * @p requested when it is at least 1; for 0, the CPUs this process may
 * run on (its sched_getaffinity mask, so `taskset` and cpuset limits
 * count), falling back to std::thread::hardware_concurrency when the
 * mask cannot be read. Always at least 1.
 */
u32 resolveThreadCount(u32 requested);

} // namespace warpcomp

#endif // WARPCOMP_COMMON_HOST_THREADS_HPP
