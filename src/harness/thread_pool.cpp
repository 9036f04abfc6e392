#include "harness/thread_pool.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace warpcomp {

ThreadPool::ThreadPool(u32 num_threads)
{
    WC_ASSERT(num_threads >= 1, "thread pool needs at least one worker");
    workers_.reserve(num_threads);
    for (u32 i = 0; i < num_threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        shutdown_ = true;
    }
    workAvailable_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

void
ThreadPool::submit(std::function<void()> job)
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        WC_ASSERT(!shutdown_, "submit on a shut-down pool");
        queue_.push_back(std::move(job));
        ++inFlight_;
    }
    workAvailable_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    allDone_.wait(lock, [this] { return inFlight_ == 0; });
    if (firstError_) {
        std::exception_ptr err = firstError_;
        firstError_ = nullptr;
        std::rethrow_exception(err);
    }
}

void
ThreadPool::workerLoop()
{
    while (true) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            workAvailable_.wait(lock, [this] {
                return shutdown_ || !queue_.empty();
            });
            if (queue_.empty())
                return;             // shutdown with a drained queue
            job = std::move(queue_.front());
            queue_.pop_front();
        }
        std::exception_ptr err;
        try {
            job();
        } catch (...) {
            err = std::current_exception();
        }
        {
            std::unique_lock<std::mutex> lock(mutex_);
            if (err && !firstError_)
                firstError_ = err;
            --inFlight_;
            if (inFlight_ == 0)
                allDone_.notify_all();
        }
    }
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

} // namespace warpcomp
