#include "common/host_threads.hpp"

#include <sched.h>

#include <algorithm>
#include <thread>

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

} // namespace warpcomp
