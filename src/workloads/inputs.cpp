#include "workloads/inputs.hpp"

#include <bit>

#include "common/log.hpp"
#include "workloads/workload.hpp"

namespace warpcomp {

u32
pushAddr(ConstantMemory &cmem, u64 addr)
{
    WC_ASSERT(addr <= 0xFFFFFFFFull,
              "buffer address exceeds the 32-bit register address space");
    return cmem.push(static_cast<u32>(addr));
}

void
fillRandomI32(GlobalMemory &gmem, u64 base, u32 count, i32 lo, i32 hi,
              Rng &rng)
{
    for (u32 i = 0; i < count; ++i)
        gmem.write32(base + 4ull * i,
                     static_cast<u32>(rng.nextRange(lo, hi)));
}

void
fillConstantU32(GlobalMemory &gmem, u64 base, u32 count, u32 value)
{
    for (u32 i = 0; i < count; ++i)
        gmem.write32(base + 4ull * i, value);
}

void
fillRandomF32(GlobalMemory &gmem, u64 base, u32 count, float lo, float hi,
              Rng &rng)
{
    for (u32 i = 0; i < count; ++i) {
        const float v = lo + static_cast<float>(rng.nextDouble()) *
            (hi - lo);
        gmem.writeF32(base + 4ull * i, v);
    }
}

} // namespace warpcomp
