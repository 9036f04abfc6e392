/**
 * @file
 * Fixed-size worker pool for the experiment harness. Simulation jobs
 * are coarse (one full kernel launch each), so a plain mutex-protected
 * work queue is entirely sufficient: contention is one lock per job,
 * noise against the millions of simulated cycles behind it.
 *
 * Determinism contract: the pool imposes no ordering on job execution,
 * so callers must make jobs share-nothing and write results into
 * per-job slots (submission order), never into shared accumulators.
 * `parallelFor` packages that pattern.
 */

#ifndef WARPCOMP_HARNESS_THREAD_POOL_HPP
#define WARPCOMP_HARNESS_THREAD_POOL_HPP

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/host_threads.hpp"
#include "common/types.hpp"

namespace warpcomp {

/** Fixed-size thread pool over a FIFO work queue. */
class ThreadPool
{
  public:
    /** Spawn @p num_threads workers (at least 1). */
    explicit ThreadPool(u32 num_threads);

    /** Drains the queue, then joins all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue @p job; it may start on any worker at any time. */
    void submit(std::function<void()> job);

    /**
     * Block until every submitted job has finished. If any job threw,
     * rethrows the first captured exception (the rest are dropped).
     */
    void wait();

    u32 numThreads() const { return static_cast<u32>(workers_.size()); }

  private:
    void workerLoop();

    std::mutex mutex_;
    std::condition_variable workAvailable_;
    std::condition_variable allDone_;
    std::deque<std::function<void()>> queue_;
    std::vector<std::thread> workers_;
    std::size_t inFlight_ = 0;          ///< queued + currently running
    std::exception_ptr firstError_;
    bool shutdown_ = false;
};

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
 * Run fn(0) .. fn(n-1) on @p num_threads workers and block until all
 * complete. Indices are handed out in order but may finish in any
 * order; fn must only touch state owned by its index. With one thread
 * (or one job) this degenerates to the plain serial loop — no pool is
 * spun up — so `parallelFor(n, 1, fn)` is bit-identical in every
 * observable way to `for (i = 0; i < n; ++i) fn(i)`.
 */
template <typename Fn>
void
parallelFor(std::size_t n, u32 num_threads, Fn &&fn)
{
    if (num_threads <= 1 || n <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    const u32 workers =
        static_cast<u32>(std::min<std::size_t>(num_threads, n));
    ThreadPool pool(workers);
    for (std::size_t i = 0; i < n; ++i)
        pool.submit([&fn, i] { fn(i); });
    pool.wait();
}

} // namespace warpcomp

#endif // WARPCOMP_HARNESS_THREAD_POOL_HPP
