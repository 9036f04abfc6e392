/**
 * @file
 * Resilient sweep runner facade: the CLI surface and orchestration the
 * drivers (`bench_sweep`, and `bench_fault_sweep` / `bench_seu_sweep`
 * under `--isolate`) share.
 *
 * A driver hands parseSweepArgs the arguments parseHarnessArgs left
 * unclaimed (its `rest` argv), then:
 *   - child mode (`--point=` present): runSweepChildPoint simulates
 *     exactly one point and writes its PointStats JSON to
 *     `--point-out`; chaos injection (if armed) happens here;
 *   - parent mode: runResilientSweep supervises the whole grid —
 *     journal loading (`--resume`), cache lookups, per-point child
 *     processes with watchdog/retry/backoff, checkpoint appends
 *     (`--journal`), and counters (`--sweep-stats`).
 *
 * The merged report (writeSweepReport) contains only deterministic
 * per-point data, in grid order, so clean, resumed, and multi-worker
 * runs of the same grid are byte-identical.
 */

#ifndef WARPCOMP_SWEEP_SWEEP_HPP
#define WARPCOMP_SWEEP_SWEEP_HPP

#include <iosfwd>
#include <string>
#include <vector>

#include "sweep/supervisor.hpp"

namespace warpcomp {

/** Options behind the sweep-runner flags (see parseSweepArgs). */
struct SweepOptions
{
    /** Child mode: `--point=WORKLOAD|CONFIGSPEC`. */
    std::string pointSpec;
    /** Child mode: result file (`--point-out=FILE`). */
    std::string pointOut;
    /** Child mode: 1-based attempt number (`--attempt=N`). */
    u32 attempt = 1;
    /** Failure injection (`--chaos=MODE,RATE,SEED`). */
    ChaosSpec chaos;
    /** Checkpoint journal to append to (`--journal=FILE`). */
    std::string journalPath;
    /** Journal to resume/serve cached points from (`--resume=FILE`).
     *  Implies journalPath = resumePath unless set separately. */
    std::string resumePath;
    /** Merged report path (`--report=FILE`; empty = stdout). */
    std::string reportPath;
    /** Supervision counters JSON (`--sweep-stats=FILE`). */
    std::string sweepStatsPath;
    /** Per-point watchdog (`--timeout=SECONDS`). */
    double timeoutSeconds = 300.0;
    /** Attempts per point (`--attempts=N`, >= 1). */
    u32 maxAttempts = 3;
    /** Base retry backoff (`--backoff-ms=N`). */
    u32 backoffMs = 100;
    /** Test hook: abrupt _exit(3) after N journal appends
     *  (`--die-after=N`). */
    u32 dieAfterPoints = 0;
    /** Route an in-process sweep bench through the supervisor
     *  (`--isolate`). */
    bool isolate = false;
    /** Named grid for bench_sweep (`--grid=NAME`). */
    std::string grid = "smoke";

    bool isChild() const { return !pointSpec.empty(); }
};

/**
 * Parse the sweep-runner flags (strict: malformed values and unknown
 * arguments are a one-line fatal error, never a silent default). A
 * driver passes the argv parseHarnessArgs left over, so a harness flag
 * reaching this parser is unknown here too.
 */
SweepOptions parseSweepArgs(int argc, char **argv);

/**
 * Child mode: run the one point in @p opt (applying chaos first when
 * armed) and write its PointStats JSON to opt.pointOut. Returns the
 * process exit code.
 */
int runSweepChildPoint(const SweepOptions &opt);

/**
 * Parent mode: run @p points under full supervision. @p self_path is
 * the driver binary (argv[0]); @p threads is the raw --threads value
 * (0 = hardware concurrency), which here sizes the child-process pool.
 * Handles resume loading, journaling, and the --sweep-stats dump.
 */
std::vector<PointOutcome>
runResilientSweep(const std::string &self_path,
                  const std::vector<SweepPoint> &points,
                  const SweepOptions &opt, u32 threads);

/**
 * Write the merged report: one object per point in grid order with
 * workload, config spec, key, status, attempts, reason (failed) and
 * the stats payload (ok). Deterministic by construction.
 */
void writeSweepReport(std::ostream &os, const std::string &bench,
                      const std::string &grid,
                      const std::vector<PointOutcome> &outcomes);

/**
 * Grid runner shared by the sweep benches: cells[c][w] is configs[c] x
 * workloads[w]. Default path is the in-process parallel runGrid (every
 * cell populated, bit-identical to the historical benches); under
 * `--isolate` each cell runs as a supervised child process and a cell
 * whose point exhausted its attempts is nullopt, which the benches
 * count as `failed` and drop from averages — the same graceful
 * degradation the merged sweep report applies.
 */
std::vector<std::vector<std::optional<PointStats>>>
runPointsGrid(const std::string &self_path,
              const std::vector<ExperimentConfig> &configs,
              const std::vector<std::string> &workloads,
              const SweepOptions &opt, u32 threads);

} // namespace warpcomp

#endif // WARPCOMP_SWEEP_SWEEP_HPP
