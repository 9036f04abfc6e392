/**
 * @file
 * How the simulator puts work on host threads. resolveThreadCount is
 * the one host-thread count a budget resolves against; shareThreads
 * splits a budget between concurrent runs and the threads each run
 * steps its SMs on; runOnThreads is the one place that starts threads
 * for simulation work, and parallelFor hands it independent jobs by
 * index. The experiment runner, the sweep supervisor and Gpu::run
 * (which runs one launch's SMs ahead) all build on these.
 */

#ifndef WARPCOMP_COMMON_HOST_THREADS_HPP
#define WARPCOMP_COMMON_HOST_THREADS_HPP

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <functional>

#include "common/types.hpp"

namespace warpcomp {

/**
 * @p requested when it is at least 1; for 0, the CPUs this process may
 * run on (its sched_getaffinity mask, so `taskset` and cpuset limits
 * count), falling back to std::thread::hardware_concurrency when the
 * mask cannot be read. Always at least 1.
 */
u32 resolveThreadCount(u32 requested);

/** A host-thread budget split over jobs: `workers` jobs at a time,
 *  each allowed `perJob` threads of its own. */
struct ThreadShare
{
    u32 workers = 1;
    u32 perJob = 1;
};

/**
 * Split the budget resolveThreadCount(@p requested) over @p jobs:
 * W = min(budget, jobs) workers (at least 1), each job max(1,
 * budget / W) threads.
 */
ThreadShare shareThreads(u32 requested, std::size_t jobs);

/**
 * Call @p fn on @p threads host threads, the caller included, and
 * return once every call has returned; rethrows the first exception a
 * call threw. Fewer threads run when the system cannot start more,
 * which no caller's result depends on.
 */
void runOnThreads(u32 threads, const std::function<void()> &fn);

/**
 * Run fn(0) .. fn(n-1) on up to @p threads host threads and return once
 * every call has returned; rethrows the first exception a call threw.
 * Indices are handed out in order from one counter but may finish in
 * any order, so fn must only touch state owned by its index. With one
 * thread or one index this is the plain serial loop on the caller, so
 * `parallelFor(n, 1, fn)` is `for (i = 0; i < n; ++i) fn(i)`.
 */
template <typename Fn>
void
parallelFor(std::size_t n, u32 threads, Fn &&fn)
{
    if (threads <= 1 || n <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    std::atomic<std::size_t> next{0};
    runOnThreads(static_cast<u32>(std::min<std::size_t>(threads, n)),
                 [&] {
                     for (std::size_t i = next++; i < n; i = next++)
                         fn(i);
                 });
}

} // namespace warpcomp

#endif // WARPCOMP_COMMON_HOST_THREADS_HPP
