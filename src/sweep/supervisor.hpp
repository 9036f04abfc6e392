/**
 * @file
 * Process supervisor for the resilient sweep runner. Each grid point
 * runs in its own child process (a `--point=` self-invocation of the
 * driver binary), so a crash, livelock, or OOM in one misbehaving
 * point can never take down the grid:
 *
 *   - watchdog: every child gets a wall-clock deadline; an expired
 *     child is SIGKILLed and counted as a timeout;
 *   - bounded retry with exponential backoff: crashed/timed-out points
 *     are requeued up to maxAttempts with backoffMs << (attempt-1)
 *     delay;
 *   - graceful degradation: a point that exhausts its attempts becomes
 *     a `failed` outcome with a deterministic reason string, and the
 *     grid keeps going;
 *   - checkpointing: every settled point is appended to the journal
 *     (fsynced) the moment it completes, and journal/cache hits skip
 *     the child entirely.
 *
 * Results are returned in submission order regardless of worker count
 * or completion order, so the merged report is byte-identical across
 * `--threads` values — the same contract the in-process parallel
 * runner gives.
 */

#ifndef WARPCOMP_SWEEP_SUPERVISOR_HPP
#define WARPCOMP_SWEEP_SUPERVISOR_HPP

#include <optional>
#include <string>
#include <vector>

#include "sweep/chaos.hpp"
#include "sweep/journal.hpp"

namespace warpcomp {

/** Supervisor knobs (see parseSweepArgs for the CLI surface). */
struct SupervisorOptions
{
    /** Path of the driver binary to self-invoke (argv[0]). */
    std::string selfPath;
    /** Concurrent child processes (already resolved, >= 1). */
    u32 workers = 1;
    /** Host threads each child steps its SMs on (its --threads). */
    u32 childThreads = 1;
    /** Per-point wall-clock watchdog in seconds. */
    double timeoutSeconds = 300.0;
    /** Total attempts per point (1 = no retries). */
    u32 maxAttempts = 3;
    /** Base retry backoff; doubles per subsequent attempt. */
    u32 backoffMs = 100;
    /** Failure injection forwarded to children (test/CI only). */
    ChaosSpec chaos;
    /**
     * Test hook: abruptly _exit(3) after this many points have been
     * journaled (0 = disabled). Gives checkpoint/resume tests a
     * deterministic mid-grid death without racy external SIGKILLs.
     */
    u32 dieAfterPoints = 0;
};

/** Supervision counters (reported out-of-band, never in the merged
 *  report, which must stay identical across clean/resumed runs). */
struct SweepCounters
{
    u64 points = 0;         ///< grid points requested
    u64 spawned = 0;        ///< child processes forked
    u64 cacheHits = 0;      ///< points served from journal/cache
    u64 retries = 0;        ///< re-spawns after crash/timeout
    u64 timeouts = 0;       ///< watchdog SIGKILLs
    u64 crashes = 0;        ///< nonzero exits / signal deaths
    u64 okPoints = 0;
    u64 failedPoints = 0;   ///< exhausted their attempts
};

/**
 * Run @p points under supervision. @p cache serves completed points
 * (resume / repeated points); @p journal (nullable) records each
 * settled point. Returns outcomes in submission order.
 */
std::vector<PointOutcome>
runSupervised(const std::vector<SweepPoint> &points,
              const SupervisorOptions &opts, const JournalIndex *cache,
              SweepJournal *journal, SweepCounters *counters);

} // namespace warpcomp

#endif // WARPCOMP_SWEEP_SUPERVISOR_HPP
