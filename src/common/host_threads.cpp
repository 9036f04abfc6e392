#include "common/host_threads.hpp"

#include <sched.h>

#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace warpcomp {

u32
resolveThreadCount(u32 requested)
{
    if (requested >= 1)
        return requested;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
        const int n = CPU_COUNT(&set);
        if (n > 0)
            return static_cast<u32>(n);
    }
    return std::max(1u, std::thread::hardware_concurrency());
}

ThreadShare
shareThreads(u32 requested, std::size_t jobs)
{
    const u32 budget = resolveThreadCount(requested);
    ThreadShare share;
    share.workers = static_cast<u32>(
        std::clamp<std::size_t>(jobs, 1, budget));
    share.perJob = std::max(1u, budget / share.workers);
    return share;
}

void
runOnThreads(u32 threads, const std::function<void()> &fn)
{
    std::mutex m;
    std::exception_ptr error;
    auto guarded = [&] {
        try {
            fn();
        } catch (...) {
            std::lock_guard<std::mutex> lock(m);
            if (!error)
                error = std::current_exception();
        }
    };
    std::vector<std::thread> helpers;
    helpers.reserve(threads > 0 ? threads - 1 : 0);
    for (u32 t = 1; t < threads; ++t) {
        try {
            helpers.emplace_back(guarded);
        } catch (const std::system_error &) {
            break;
        }
    }
    guarded();
    for (std::thread &t : helpers)
        t.join();
    if (error)
        std::rethrow_exception(error);
}

} // namespace warpcomp
