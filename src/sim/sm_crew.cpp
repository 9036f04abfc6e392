#include "sim/sm_crew.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/log.hpp"

namespace warpcomp {

namespace {

/** How long a thread spins on a crew counter before it sleeps in
 *  std::atomic::wait: long enough to bridge the stepping thread's
 *  serial work between two steps, short enough that a crew on busy
 *  CPUs gives its time slices away. */
constexpr std::chrono::microseconds kSpin{50};

/** The back-off window (steps and least duration), and the serial
 *  span after a window in which the stepping thread stepped most
 *  workers' groups itself: doubled per failed window up to the
 *  maximum, halved per good one down to the minimum. */
constexpr u32 kWindowSteps = 64;
constexpr std::chrono::microseconds kWindowTime{500};
constexpr u32 kMinBackoffSteps = 1024;
constexpr u32 kMaxBackoffSteps = 1u << 16;

using Clock = std::chrono::steady_clock;

inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

/** Wait until @p a holds a value other than @p old and return it:
 *  spin for kSpin, then sleep in std::atomic::wait. */
u32
awaitChange(const std::atomic<u32> &a, u32 old)
{
    u32 v = a.load(std::memory_order_acquire);
    if (v != old)
        return v;
    const Clock::time_point until = Clock::now() + kSpin;
    do {
        for (u32 i = 0; i < 64; ++i) {
            cpuRelax();
            v = a.load(std::memory_order_acquire);
            if (v != old)
                return v;
        }
    } while (Clock::now() < until);
    while (true) {
        a.wait(old, std::memory_order_acquire);
        v = a.load(std::memory_order_acquire);
        if (v != old)
            return v;
    }
}

} // namespace

SmCrew::SmCrew(u32 threads)
    : threads_(threads), claims_(std::make_unique<Claim[]>(threads)),
      backoffSteps_(kMinBackoffSteps)
{
    WC_ASSERT(threads_ >= 1, "an SM crew needs at least one thread");
}

SmCrew::~SmCrew()
{
    if (workers_.empty())
        return;
    stop_.store(true, std::memory_order_relaxed);
    gen_.fetch_add(1, std::memory_order_release);
    gen_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

void
SmCrew::start()
{
    workers_.reserve(threads_ - 1);
    for (u32 g = 1; g < threads_; ++g)
        workers_.emplace_back(
            [this, g, seen = genValue_] { workerLoop(g, seen); });
}

void
SmCrew::stepParallel()
{
    if (workers_.empty())
        start();
    if (windowSteps_ == 0)
        windowStart_ = Clock::now();
    const u32 gen = ++genValue_;
    gen_.store(gen, std::memory_order_release);
    gen_.notify_all();

    // Own group first, then every group whose worker has not claimed
    // it yet: a worker that is asleep or descheduled costs this step
    // nothing but locality.
    callGroup(0);
    u32 stolen = 0;
    for (u32 g = 1; g < threads_; ++g) {
        u32 expected = gen - 1;
        if (claims_[g].gen.compare_exchange_strong(
                expected, gen, std::memory_order_acq_rel,
                std::memory_order_relaxed)) {
            callGroup(g);
            ++stolen;
        }
    }
    doneTarget_ += threads_ - 1 - stolen;
    for (u32 d = done_.load(std::memory_order_acquire); d != doneTarget_;
         d = done_.load(std::memory_order_acquire))
        awaitChange(done_, d);
    // Every call of the step has returned, so nothing still uses the
    // job when its exception unwinds the caller.
    if (failed_.load(std::memory_order_relaxed)) {
        failed_.store(false, std::memory_order_relaxed);
        std::exception_ptr first;
        for (u32 g = 0; g < threads_; ++g) {
            if (first == nullptr)
                first = claims_[g].error;
            claims_[g].error = nullptr;
        }
        std::rethrow_exception(first);
    }

    ++parallelSteps_;
    stolenGroups_ += stolen;
    windowStolen_ += stolen;
    // A window spans kWindowSteps steps and at least kWindowTime, so
    // waking sleeping workers cannot fail it on its own.
    if (++windowSteps_ < kWindowSteps ||
        Clock::now() - windowStart_ < kWindowTime)
        return;
    if (2 * windowStolen_ > windowSteps_ * (threads_ - 1)) {
        serialSteps_ = backoffSteps_;
        backoffSteps_ = std::min(2 * backoffSteps_, kMaxBackoffSteps);
    } else {
        backoffSteps_ = std::max(backoffSteps_ / 2, kMinBackoffSteps);
    }
    windowSteps_ = 0;
    windowStolen_ = 0;
}

void
SmCrew::callGroup(u32 group) noexcept
{
    try {
        call_(job_, group);
    } catch (...) {
        // Read by the stepping thread once every call of the step has
        // returned (after the done count, for a worker's call).
        claims_[group].error = std::current_exception();
        failed_.store(true, std::memory_order_relaxed);
    }
}

void
SmCrew::workerLoop(u32 group, u32 seen)
{
    while (true) {
        const u32 gen = awaitChange(gen_, seen);
        if (stop_.load(std::memory_order_relaxed))
            return;
        seen = gen;
        // Fails when the stepping thread already claimed this step's
        // group (or a later one's, for a worker that woke up late).
        u32 expected = gen - 1;
        if (!claims_[group].gen.compare_exchange_strong(
                expected, gen, std::memory_order_acq_rel,
                std::memory_order_relaxed))
            continue;
        callGroup(group);
        done_.fetch_add(1, std::memory_order_release);
        done_.notify_one();
    }
}

} // namespace warpcomp
