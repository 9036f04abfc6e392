/**
 * @file
 * Sweep points: the unit of work the resilient sweep runner schedules,
 * journals, and caches. A point is one (workload, ExperimentConfig)
 * pair with
 *
 *   - a canonical textual config spec (`configToSpec` /
 *     `configFromSpec`, harness/config_spec.hpp) that round-trips
 *     exactly, so a supervisor can hand the point to a child process
 *     via `--point=` and the child reconstructs the identical
 *     simulation;
 *   - a stable cache key (`pointKey`): the first 16 hex digits of
 *     SHA-256 over (config spec, workload name). Together with the git
 *     SHA it keys the journal/result cache, so repeated sweep points
 *     are free and stale checkouts never serve cached results;
 *   - a flat, fully deterministic per-point stats record (`PointStats`)
 *     — the child's entire output. It excludes wall clock and host
 *     state by construction, which is what makes resumed and clean
 *     sweeps byte-identical.
 */

#ifndef WARPCOMP_SWEEP_POINT_HPP
#define WARPCOMP_SWEEP_POINT_HPP

#include <optional>
#include <string>

#include "common/json_parse.hpp"
#include "common/json_writer.hpp"
#include "harness/config_spec.hpp"

namespace warpcomp {

/** One grid point: a workload under one configuration. */
struct SweepPoint
{
    std::string workload;
    ExperimentConfig cfg;
};

/**
 * Parse a full `--point=WORKLOAD|CONFIGSPEC` operand. The workload
 * part may itself be a `file:PATH[,entry=SYM]` binary-kernel spec;
 * '|' is reserved as the separator.
 */
std::optional<SweepPoint> pointFromSpec(const std::string &spec,
                                        std::string *error);

/** Inverse of pointFromSpec. */
std::string pointToSpec(const SweepPoint &point);

/** Cache key: first 16 hex digits of SHA-256(config spec, workload). */
std::string pointKey(const SweepPoint &point);

/**
 * Flat deterministic result record of one executed point — everything
 * the sweep benches aggregate (cycles, energy, fault + SEU counters),
 * nothing host-dependent.
 */
struct PointStats
{
    u64 cycles = 0;
    u64 ctas = 0;
    bool hung = false;
    bool unschedulable = false;
    /** Total register-file energy under the config's EnergyParams. */
    double energyPj = 0.0;
    FaultStats fault;
    SeuStats seu;
    std::string frontend = "dsl";
    std::string imageSha;
};

/** Build the flat record from a completed in-process run. */
PointStats makePointStats(const ExperimentResult &result,
                          const EnergyParams &energy);

/** Serialize as one JSON object (caller positions the writer); the
 *  `fault` and `seu` objects are the --stats-json census writers'. */
void writeJson(JsonWriter &w, const PointStats &stats);

/** Parse the object written by writeJson; nullopt + @p error when a
 *  required field is missing or mistyped. */
std::optional<PointStats> pointStatsFromJson(const JsonValue &v,
                                             std::string *error);

} // namespace warpcomp

#endif // WARPCOMP_SWEEP_POINT_HPP
