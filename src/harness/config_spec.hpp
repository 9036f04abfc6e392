/**
 * @file
 * One grammar for an ExperimentConfig: the key table. Each
 * result-shaping field has one spec key (`sms`, `fber`, `hang`, ...)
 * with one parser and one "must be" rule. The canonical config spec
 * (`configToSpec` / `configFromSpec`) walks the table, and each
 * run-shaping harness flag (`--sms`, `--faults=B,P`, ... — see
 * parseHarnessArgs) is a spelling of one or two of its keys, so a flag
 * and a sweep point cannot mean different things.
 *
 * Every number in a flag or a spec follows one of two rules:
 * parseDecimal for integers and parseNumber for reals.
 */

#ifndef WARPCOMP_HARNESS_CONFIG_SPEC_HPP
#define WARPCOMP_HARNESS_CONFIG_SPEC_HPP

#include <optional>
#include <string>
#include <string_view>

#include "harness/experiment.hpp"

namespace warpcomp {

/**
 * The integer rule: the whole token is base-10 digits (no sign, space
 * or `0x`; a leading zero is still decimal, so `010` is ten) and the
 * value fits a u64. nullopt otherwise.
 */
std::optional<u64> parseDecimal(std::string_view token);

/**
 * The real-number rule: the whole token is one finite decimal number
 * (no leading or trailing space, no hex float, no `nan`/`inf`).
 * nullopt otherwise.
 */
std::optional<double> parseNumber(std::string_view token);

/**
 * Canonical config spec: `key=value` pairs joined by ';' in key-table
 * order, covering every ExperimentConfig field that affects simulation
 * results (observability is per-process, not per-point, and
 * EnergyParams are compile-time constants). Doubles use the JsonWriter
 * float format, so encode(parse(encode(c))) == encode(c).
 */
std::string configToSpec(const ExperimentConfig &cfg);

/**
 * Strict inverse of configToSpec, starting from a default config:
 * every pair must parse, unknown keys and malformed values are errors
 * (never silent defaults). On failure returns nullopt and sets
 * @p error to a one-line diagnostic naming the offending pair.
 */
std::optional<ExperimentConfig> configFromSpec(const std::string &spec,
                                               std::string *error);

/**
 * Parse @p token as the value of spec key @p key into @p cfg. On a
 * malformed value returns false and sets @p error to the key's rule,
 * phrased for @p label ("--sms must be an integer >= 1, got '0'").
 * @p key must be in the table.
 */
bool setConfigKey(std::string_view key, std::string_view token,
                  const std::string &label, ExperimentConfig &cfg,
                  std::string *error);

/** Copy the field of spec key @p key from @p from onto @p to. */
void copyConfigKey(std::string_view key, const ExperimentConfig &from,
                   ExperimentConfig &to);

} // namespace warpcomp

#endif // WARPCOMP_HARNESS_CONFIG_SPEC_HPP
