/**
 * @file
 * Experiment harness: runs a workload under a named configuration and
 * returns the merged results. Every bench binary (the `wc_bench`
 * figure driver, the sweep driver, `run_kernel`) and example builds on
 * this.
 */

#ifndef WARPCOMP_HARNESS_EXPERIMENT_HPP
#define WARPCOMP_HARNESS_EXPERIMENT_HPP

#include <limits>
#include <string>
#include <vector>

#include "sim/gpu.hpp"
#include "workloads/registry.hpp"

namespace warpcomp {

/** One experiment configuration (Table 2 defaults unless overridden). */
struct ExperimentConfig
{
    CompressionScheme scheme = CompressionScheme::Warped;
    SchedPolicy sched = SchedPolicy::Gto;
    DivergencePolicy divPolicy = DivergencePolicy::WriteUncompressed;
    u32 compressLatency = 2;
    u32 decompressLatency = 1;
    u32 numSms = 15;
    u32 scale = 1;                  ///< workload problem-size multiplier
    bool collectBdiBreakdown = false;
    /** Ablation: disable bank power gating in the compressed design. */
    bool enableGating = true;
    /** Comparator: drowsy-mode register banks (related work [9]). */
    bool drowsy = false;
    /** Idle cycles before a bank drops to drowsy state. */
    u32 drowsyAfterCycles = 64;
    /** Comparator: register-file-cache entries per warp (related work
     *  [21]); 0 disables. */
    u32 rfcEntries = 0;
    /** Bank wakeup latency in cycles (Table 2 default: 10). */
    u32 wakeupLatency = 10;
    u32 numCompressors = 2;
    u32 numDecompressors = 4;
    /**
     * Salt mixed into every workload's input RNG seed (see mixSeed).
     * 0 (the default) keeps the canonical per-workload streams, so
     * historical results stay bit-identical; any other value derives a
     * fresh deterministic input set per (workload, config) pair.
     */
    u64 seedSalt = 0;
    /** Stuck-at fault injection (BER 0 = fault-free, bit-identical to
     *  a build without the subsystem). */
    FaultParams faults{};
    /** Transient SEU injection (rate 0 = disabled, bit-identical to a
     *  build without the subsystem); composes with `faults`. */
    SeuParams seu{};
    EnergyParams energy{};
    /** Observability (disabled by default; see --trace/--stats-json). */
    ObsParams obs{};
    /** Event-driven idle-cycle skipping (--no-skip disables; results
     *  are bit-identical either way). */
    bool skipIdle = true;
};

/** Result of one (workload, config) simulation. */
struct ExperimentResult
{
    std::string workload;
    RunResult run;
    /** Frontend provenance: "dsl" or "rv32" (see WorkloadInstance). */
    std::string frontend = "dsl";
    /** SHA-256 of the binary image for "rv32" kernels; empty for DSL. */
    std::string imageSha;
};

/** Assemble GpuParams from an ExperimentConfig. */
GpuParams makeGpuParams(const ExperimentConfig &cfg);

/** Run one workload under @p cfg. */
ExperimentResult runWorkload(const std::string &name,
                             const ExperimentConfig &cfg);

/** Run the full 19-workload suite (workloadNames()) under @p cfg. */
std::vector<ExperimentResult> runSuite(const ExperimentConfig &cfg);

/**
 * Run @p names under @p cfg on @p num_threads workers (0 = hardware
 * concurrency). Simulation runs are share-nothing — each owns its
 * memory image, RNG streams, stats, and energy meter — and results are
 * returned in submission (= @p names) order, so the output is
 * bit-identical to the serial loop regardless of thread count.
 */
std::vector<ExperimentResult>
runWorkloadsParallel(const std::vector<std::string> &names,
                     const ExperimentConfig &cfg, u32 num_threads = 0);

/** Parallel runSuite: the full suite with the same ordering guarantee. */
std::vector<ExperimentResult> runSuiteParallel(const ExperimentConfig &cfg,
                                               u32 num_threads = 0);

/**
 * Full experiment grid: every (config, workload) pair, flattened onto
 * one pool. result[c][w] corresponds to configs[c] x workloads[w], in
 * argument order — bit-identical to nested serial loops.
 */
std::vector<std::vector<ExperimentResult>>
runGrid(const std::vector<ExperimentConfig> &configs,
        const std::vector<std::string> &workloads, u32 num_threads = 0);

/** Command-line options shared by the bench binaries. */
struct HarnessOptions
{
    u32 scale = 1;
    u32 numSms = 15;
    /** Worker threads for suite runs; 0 = hardware concurrency. */
    u32 threads = 0;
    /** Restrict to a single workload (empty = all). */
    std::string only;
    /** Binary kernel image via --kernel=FILE[,entry=SYM] (empty =
     *  disabled). Runs the image instead of the built-in suite. */
    std::string kernelPath;
    /** Entry symbol inside the image ("" = first word). */
    std::string kernelEntry;
    /** Basename of argv[0]; names the bench in the stats document. */
    std::string benchName;
    /** Fault injection requested via --faults=BER,POLICY. */
    FaultParams faults{};
    /** SEU injection requested via --seu=RATE,SCHEME. */
    SeuParams seu{};
    /** Chrome trace output via --trace=FILE[,START,END] (empty =
     *  disabled). Requires --only; the first suite run is traced. */
    std::string tracePath;
    Cycle traceStart = 0;
    Cycle traceEnd = std::numeric_limits<Cycle>::max();
    /** Streaming binary dump via --trace-out=FILE (empty = disabled).
     *  Requires --only; the first suite run streams. Shares the
     *  --trace START/END window when both are given. */
    std::string traceOutPath;
    /** Windowed-counter interval via --trace-window=N. */
    u32 traceWindow = 1000;
    /** Structured stats dump via --stats-json=FILE (empty = disabled). */
    std::string statsJsonPath;
    /** Disable event-driven idle-cycle skipping via --no-skip (for
     *  differential checks against per-cycle stepping). */
    bool noSkip = false;
    /**
     * In-sim hang budget override via --hang-budget=N: the cycle count
     * at which a run under uncontained corruption stops and reports
     * RunResult::hung (FaultParams::hangCycles). 0 = keep the
     * configured default. Independent of the sweep runner's wall-clock
     * watchdog, so both layers are tunable separately.
     */
    Cycle hangBudget = 0;
};

/**
 * Parse --scale=N --sms=N --threads=N --only=name
 * --kernel=FILE[,entry=SYM] --faults=BER,POLICY --fault-seed=N
 * --seu=RATE,SCHEME --seu-seed=N
 * --seu-scrub=CYCLES --trace=FILE[,START,END] --trace-out=FILE
 * --trace-window=N
 * --stats-json=FILE --no-skip --hang-budget=N. Malformed values
 * (integers with any non-digit, NaN, negative rates, unknown
 * policy/scheme names) are a one-line fatal error with exit 1, never
 * a silent default.
 *
 * An argument no harness flag claims is the same fatal error, unless
 * @p rest is given: then @p rest receives argv[0] followed by every
 * unclaimed argument, an argv for the binary's next parser, which
 * must reject whatever it does not claim in turn.
 */
HarnessOptions parseHarnessArgs(int argc, char **argv,
                                std::vector<char *> *rest = nullptr);

/**
 * Overlay the run-shaping flags of @p opt onto @p cfg: scale, SMs,
 * --no-skip, and the fault and SEU parameters (copied whole, so a
 * --fault-seed or --seu-seed alone still reaches the config).
 * faults.hangCycles keeps @p cfg's value unless --hang-budget is set.
 */
void applyHarnessOptions(const HarnessOptions &opt, ExperimentConfig &cfg);

/**
 * Whole-value integer flag parse, the rule every integer flag follows:
 * @p spec must be base-10 digits only (no sign, space, or `0x`; a
 * leading zero is still decimal) with a value in [@p min, @p max],
 * else a one-line fatal error saying @p flag must be @p what.
 */
u64 parseCount(const char *flag, const char *spec, const char *what,
               u64 min = 0, u64 max = std::numeric_limits<u64>::max());

/**
 * Geometric-mean helper used for figure averages. Contract: returns
 * 0.0 on an empty input (an empty figure row renders as 0, never UB),
 * and panics via WC_ASSERT on non-positive values, for which the
 * geomean is undefined.
 */
double geomean(const std::vector<double> &values);

/** Arithmetic mean (the paper reports arithmetic averages). */
double mean(const std::vector<double> &values);

} // namespace warpcomp

#endif // WARPCOMP_HARNESS_EXPERIMENT_HPP
