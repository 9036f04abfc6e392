/**
 * @file
 * Deterministic input-buffer generators. The dynamic range of each
 * buffer is part of the experiment: value similarity (Sec. 3) depends
 * directly on it, so generators take explicit ranges.
 */

#ifndef WARPCOMP_WORKLOADS_INPUTS_HPP
#define WARPCOMP_WORKLOADS_INPUTS_HPP

#include "common/rng.hpp"
#include "mem/memory.hpp"

namespace warpcomp {

/** Fill @p count words with uniform integers in [lo, hi]. */
void fillRandomI32(GlobalMemory &gmem, u64 base, u32 count, i32 lo, i32 hi,
                   Rng &rng);

/** Fill @p count words with one constant (LIB-style zero range). */
void fillConstantU32(GlobalMemory &gmem, u64 base, u32 count, u32 value);

/** Fill @p count words with uniform floats in [lo, hi). */
void fillRandomF32(GlobalMemory &gmem, u64 base, u32 count, float lo,
                   float hi, Rng &rng);

} // namespace warpcomp

#endif // WARPCOMP_WORKLOADS_INPUTS_HPP
