/**
 * @file
 * Resilient sweep runner facade: the CLI surface and orchestration
 * behind `bench_sweep`, the one sweep driver, whose every grid (smoke,
 * perf, and the fault and SEU curves) runs through runResilientSweep.
 *
 * A driver hands parseSweepArgs the arguments parseHarnessArgs left
 * unclaimed (its `rest` argv), then:
 *   - child mode (`--point=` present): runSweepChildPoint simulates
 *     exactly one point and writes its payload, the `--stats-json`
 *     workload row plus `energy_pj`, to `--point-out`; chaos injection
 *     (if armed) happens here;
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
 * armed) on @p host_threads host threads (the child's --threads, its
 * share of the parent's budget) and write its payload (writeStatsRow
 * with `energy_pj`) to opt.pointOut. Returns the process exit code.
 */
int runSweepChildPoint(const SweepOptions &opt, u32 host_threads);

/**
 * Parent mode: run @p points under full supervision. @p self_path is
 * the driver binary (argv[0]); @p threads is the raw --threads value,
 * the host-thread budget (0 = the CPUs in the affinity mask): W =
 * min(budget, points) children run at a time, and each is passed
 * --threads=max(1, budget / W). Handles resume loading, journaling,
 * and the --sweep-stats dump.
 */
std::vector<PointOutcome>
runResilientSweep(const std::string &self_path,
                  const std::vector<SweepPoint> &points,
                  const SweepOptions &opt, u32 threads);

/**
 * Write the merged report: one writePointOutcome entry per point in
 * grid order. Deterministic by construction.
 */
void writeSweepReport(std::ostream &os, const std::string &bench,
                      const std::string &grid,
                      const std::vector<PointOutcome> &outcomes);

} // namespace warpcomp

#endif // WARPCOMP_SWEEP_SWEEP_HPP
