/**
 * @file
 * Whole-GPU simulation: a set of SMs fed from a global CTA queue in
 * (cycle, SM) order, each running ahead on its own clock (or all in
 * lockstep, the serial reference). Produces the merged energy /
 * statistics results every experiment consumes.
 */

#ifndef WARPCOMP_SIM_GPU_HPP
#define WARPCOMP_SIM_GPU_HPP

#include <memory>
#include <optional>
#include <vector>

#include "power/energy_meter.hpp"
#include "sim/sm.hpp"

namespace warpcomp {

/**
 * How Gpu::run stepped one launch. Tests assert on it; it is not a
 * result of the simulated GPU, so neither the stats document nor any
 * digest includes it.
 */
struct SteppingCensus
{
    /** The launch ran its SMs ahead of each other; false when it
     *  stepped in lockstep. Stays true for a launch that then fell
     *  back. */
    bool ranAhead = false;
    /** Reruns in lockstep after the run-ahead detector found a load
     *  of a word stored at an earlier cycle (0 or 1). */
    u32 fallbacks = 0;
};

/** Outcome of one kernel launch. */
struct RunResult
{
    Cycle cycles = 0;               ///< wall-clock cycles to drain the grid
    EnergyMeter meter;              ///< merged over all SMs
    SimStats stats;                 ///< merged over all SMs
    /** Per-bank fraction of cycles spent power-gated (Fig 10),
     *  averaged over SMs. */
    std::vector<double> bankGatedFraction;
    u64 ctas = 0;                   ///< CTAs executed
    u64 rfcHits = 0;                ///< register-file-cache hits
    u64 rfcMisses = 0;              ///< register-file-cache misses
    /** Fault-injection census + traffic, merged over SMs. */
    FaultStats fault;
    /** Transient-fault (SEU) counters, merged over SMs. */
    SeuStats seu;
    /**
     * The grid could not finish: some CTA can never become resident
     * (e.g. DisableEntry removed too much register capacity). The
     * simulation stops as soon as no resident work remains instead of
     * spinning to the deadlock guard; `ctas` holds the completed count.
     */
    bool unschedulable = false;
    /**
     * Observability state of the run (trace ring + windowed counters);
     * null unless GpuParams::obs was enabled. Shared so results can be
     * copied into recorders without duplicating the ring.
     */
    std::shared_ptr<ObsRun> obs;
    /**
     * The run exceeded FaultParams::hangCycles under uncontained
     * corruption — stuck-at policy None, or an SEU scheme that can
     * silently corrupt (Unprotected/Scrub): a flipped loop counter can
     * livelock a kernel. Deterministic for a fixed seed, like every
     * other fault outcome.
     */
    bool hung = false;
    /** How the launch was stepped (never serialized). */
    SteppingCensus stepping;

    explicit RunResult(const EnergyParams &energy) : meter(energy, 0, 0) {}
};

/** The GPU: numSms SMs sharing global/constant memory. */
class Gpu
{
  public:
    Gpu(const GpuParams &params, GlobalMemory &gmem, ConstantMemory &cmem);

    /**
     * Launch @p kernel over @p dims and simulate to completion.
     *
     * @param collect_bdi_breakdown enable Fig 5 explorer stats
     * @return merged results
     */
    RunResult run(const Kernel &kernel, const LaunchDims &dims,
                  bool collect_bdi_breakdown = false);

    const GpuParams &params() const { return params_; }

  private:
    /**
     * Simulate the launch once: with @p run_ahead, every SM runs ahead
     * on its own clock, else all SMs step in lockstep. Returns nothing
     * when the run-ahead detector found a conflict; global memory then
     * still holds its image from before the launch, and the streaming
     * sink, if any, holds what was drained before the conflict.
     */
    std::optional<RunResult> launch(const Kernel &kernel,
                                    const LaunchDims &dims,
                                    bool collect_bdi_breakdown,
                                    bool run_ahead);

    GpuParams params_;
    GlobalMemory &gmem_;
    ConstantMemory &cmem_;
};

} // namespace warpcomp

#endif // WARPCOMP_SIM_GPU_HPP
