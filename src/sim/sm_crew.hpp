/**
 * @file
 * The host threads that step one run's SMs (Gpu::run). A crew of T
 * threads splits the SMs into T fixed groups, group g being the SMs
 * with index i % T == g, and each cycle every group is stepped once.
 * Group g belongs to worker thread g (group 0 to the stepping thread,
 * the one that calls run), so an SM's state stays in one core's cache
 * from cycle to cycle.
 *
 * The stepping thread never waits for a worker that has not started:
 * after its own group it claims, by CAS on the group's generation,
 * every group whose worker has not begun, and steps it itself. It
 * waits only for groups a worker claimed, which are already running.
 * Workers spin briefly for the next step and then sleep in
 * std::atomic::wait, so a crew that outnumbers the free CPUs costs no
 * more than idle threads. When the stepping thread ends up stepping
 * more than half of the workers' groups over a window of steps (the
 * CPUs are busy elsewhere), the crew backs off: it steps serially for
 * a span that doubles with each failed window, then tries again.
 *
 * Which thread steps a group never shows in a result: callers must
 * make group calls of one step touch disjoint state (Gpu::run holds
 * every global store back until all groups have returned).
 */

#ifndef WARPCOMP_SIM_SM_CREW_HPP
#define WARPCOMP_SIM_SM_CREW_HPP

#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "common/types.hpp"

namespace warpcomp {

/** T host threads stepping T fixed SM groups in lockstep. */
class SmCrew
{
  public:
    /** A crew of @p threads host threads (at least 1), the calling
     *  thread included. Workers start at the first parallel step. */
    explicit SmCrew(u32 threads);

    /** Stops and joins the workers. */
    ~SmCrew();

    SmCrew(const SmCrew &) = delete;
    SmCrew &operator=(const SmCrew &) = delete;

    /** Number of groups, = host threads. */
    u32 threads() const { return threads_; }

    /**
     * Call fn(g) exactly once for every group g in [0, threads()) and
     * return when every call has returned. With @p parallel false, a
     * crew of one, or while backed off, the calling thread makes the
     * calls itself in group order; otherwise they run on the crew, and
     * an exception a worker's call threw is rethrown here.
     */
    template <typename Fn>
    void
    run(Fn &fn, bool parallel)
    {
        if (parallel && threads_ > 1) {
            if (serialSteps_ == 0) {
                job_ = &fn;
                call_ = [](void *job, u32 g) {
                    (*static_cast<Fn *>(job))(g);
                };
                stepParallel();
                return;
            }
            --serialSteps_;
        }
        for (u32 g = 0; g < threads_; ++g)
            fn(g);
    }

    /** Steps run on the crew so far. */
    u64 parallelSteps() const { return parallelSteps_; }

    /** Worker groups the stepping thread claimed and stepped itself
     *  because their worker had not started. */
    u64 stolenGroups() const { return stolenGroups_; }

  private:
    using Clock = std::chrono::steady_clock;

    /** One cache line per group's claim, so claims never false-share.
     *  error holds what the group's call threw in a crew step. */
    struct alignas(64) Claim
    {
        std::atomic<u32> gen{0};
        std::exception_ptr error;
    };

    void start();
    void stepParallel();
    /** Call the job for @p group, storing what it throws in the
     *  group's Claim. */
    void callGroup(u32 group) noexcept;
    void workerLoop(u32 group, u32 seen);

    const u32 threads_;
    std::unique_ptr<Claim[]> claims_;

    /** Published step generation; a worker wakes on every change. */
    alignas(64) std::atomic<u32> gen_{0};
    std::atomic<bool> stop_{false};
    /** Worker-stepped groups finished, counting up forever. */
    alignas(64) std::atomic<u32> done_{0};

    /** The current step's job (read by workers after the generation
     *  that published it). */
    alignas(64) void *job_ = nullptr;
    void (*call_)(void *, u32) = nullptr;
    /** Set after a group call of a crew step stored an exception. */
    std::atomic<bool> failed_{false};

    // Stepping-thread state.
    u32 genValue_ = 0;
    u32 doneTarget_ = 0;
    u32 windowSteps_ = 0;
    u32 windowStolen_ = 0;
    Clock::time_point windowStart_{};
    u32 backoffSteps_ = 0;
    u32 serialSteps_ = 0;
    u64 parallelSteps_ = 0;
    u64 stolenGroups_ = 0;

    /** Declared last: workers use every member above. */
    std::vector<std::thread> workers_;
};

} // namespace warpcomp

#endif // WARPCOMP_SIM_SM_CREW_HPP
