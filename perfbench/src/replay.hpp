/**
 * @file
 * Traced replay of Gpu::run: the same lockstep loop, driven through the
 * public Sm API, with host time taken around every call into an SM. The
 * replay must produce the RunResult Gpu::run produces; the benchmark
 * compares the two and refuses to report numbers when they differ.
 */

#ifndef PERFBENCH_REPLAY_HPP
#define PERFBENCH_REPLAY_HPP

#include "sim/gpu.hpp"

namespace perfbench {

using namespace warpcomp;

/** Host time and call counts per Sm entry point over replayed runs. */
struct SimLayer
{
    u64 fullN = 0;          ///< cycle() calls that took the full path
    u64 fullIdleN = 0;      ///< ... after which stats().issued was unchanged
    u64 lightN = 0;         ///< cycle() calls on the cached-idle light path
    u64 launchFailed = 0;   ///< tryLaunchCta() calls that returned false
    u64 skipSmCycles = 0;   ///< SM-cycles bulk-accounted by skipCycles()
    double fullS = 0.0;
    double lightS = 0.0;
    double launchS = 0.0;
    double skipS = 0.0;
    double loopS = 0.0;     ///< wall time of the whole loop

    double timedS() const { return fullS + lightS + launchS + skipS; }
    void merge(const SimLayer &o);
};

/**
 * Run @p kernel exactly as Gpu(@p params, ...).run(kernel, dims,
 * @p collect_bdi) would, accumulating per-call host time into @p layer.
 * Fault and SEU injection must be off (the benchmark never arms them).
 */
RunResult replayRun(const GpuParams &params, GlobalMemory &gmem,
                    ConstantMemory &cmem, const Kernel &kernel,
                    const LaunchDims &dims, bool collect_bdi,
                    SimLayer &layer);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HPP
