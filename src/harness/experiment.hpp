/**
 * @file
 * Experiment harness: runs a workload under a named configuration and
 * returns the merged results. Three entry points: runWorkload (one
 * run), runGrid (every config x workload pair on host threads) and
 * runWorkloadsParallel (runGrid over one config). Every bench binary
 * (the `wc_bench` figure driver, the sweep driver, `run_kernel`) and
 * example builds on this.
 */

#ifndef WARPCOMP_HARNESS_EXPERIMENT_HPP
#define WARPCOMP_HARNESS_EXPERIMENT_HPP

#include <initializer_list>
#include <limits>
#include <string>
#include <string_view>
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

/**
 * Run one workload under @p cfg, stepping its SMs on @p host_threads
 * host threads (GpuParams::hostThreads: 0 = the CPUs in the affinity
 * mask). Results are byte-identical for any @p host_threads.
 */
ExperimentResult runWorkload(const std::string &name,
                             const ExperimentConfig &cfg,
                             u32 host_threads = 0);

/**
 * Full experiment grid: every (config, workload) pair, one job each,
 * run within a budget of @p num_threads host threads (0 = the CPUs in
 * the affinity mask): W = min(budget, jobs) runs at a time on
 * parallelFor, each stepping its SMs on max(1, budget / W) threads.
 * Simulation runs are share-nothing — each owns its memory image, RNG
 * streams, stats and energy meter — and each lands in its own slot,
 * so result[c][w] is configs[c] x workloads[w], byte-identical to
 * nested serial runWorkload loops for any thread count.
 */
std::vector<std::vector<ExperimentResult>>
runGrid(const std::vector<ExperimentConfig> &configs,
        const std::vector<std::string> &workloads, u32 num_threads = 0);

/** runGrid over one config: @p names under @p cfg, in @p names order,
 *  byte-identical to a serial runWorkload loop. */
std::vector<ExperimentResult>
runWorkloadsParallel(const std::vector<std::string> &names,
                     const ExperimentConfig &cfg, u32 num_threads = 0);

/** Command-line options shared by the bench binaries. */
struct HarnessOptions
{
    /**
     * The run-shaping flags, parsed into the config spec keys they
     * spell (--sms is `sms`, --faults=B,P is `fber` and `fpolicy`, ...;
     * see parseHarnessArgs); applyHarnessOptions copies them onto a
     * config. faults.hangCycles is 0 unless --hang-budget set it.
     */
    ExperimentConfig run = [] {
        ExperimentConfig cfg;
        cfg.faults.hangCycles = 0;
        return cfg;
    }();
    /** Host-thread budget (--threads=N) for the runs and their SMs;
     *  0 = the CPUs in the affinity mask. */
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
};

/**
 * Parse --threads=N --only=name --kernel=FILE[,entry=SYM]
 * --trace=FILE[,START,END] --trace-out=FILE --trace-window=N
 * --stats-json=FILE and the run-shaping flags, each a spelling of
 * config spec keys (harness/config_spec.hpp) parsed by the keys' own
 * parsers: --scale=N (`scale`), --sms=N (`sms`), --faults=BER,POLICY
 * (`fber`, `fpolicy`), --fault-seed=N (`fseed`), --seu=RATE,SCHEME
 * (`seurate`, `seuscheme`), --seu-seed=N (`seuseed`),
 * --seu-scrub=CYCLES (`scrub`), --no-skip (`skip=0`) and
 * --hang-budget=N (`hang`: the in-sim cycle budget at which a run
 * under uncontained corruption reports RunResult::hung, tunable apart
 * from the sweep runner's wall-clock watchdog). Malformed values
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
 * Overlay the run-shaping flags of @p opt onto @p cfg, key by key:
 * scale, SMs, skip, and the fault and SEU parameters (copied whole, so
 * a --fault-seed or --seu-seed alone still reaches the config).
 * faults.hangCycles keeps @p cfg's value unless --hang-budget is set.
 */
void applyHarnessOptions(const HarnessOptions &opt, ExperimentConfig &cfg);

/**
 * Exit 1 when an argument starts with one of @p flags (each spelled
 * with its '='): harness flags this binary parses but cannot act on.
 * The one-line diagnostic names the binary, the flag and @p why.
 */
void rejectHarnessFlags(int argc, char **argv,
                        std::initializer_list<std::string_view> flags,
                        const char *why);

/**
 * Whole-value integer flag parse under the one integer rule
 * (parseDecimal: base-10 digits only, a leading zero still decimal)
 * with a value in [@p min, @p max], else a one-line fatal error saying
 * @p flag must be @p what.
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
