#include "sweep/point.hpp"

#include <span>

#include "common/sha256.hpp"
#include "obs/stats_json.hpp"

namespace warpcomp {

std::optional<SweepPoint>
pointFromSpec(const std::string &spec, std::string *error)
{
    const size_t bar = spec.find('|');
    if (bar == std::string::npos || bar == 0) {
        if (error != nullptr)
            *error = "--point wants WORKLOAD|CONFIGSPEC, got `" + spec +
                     "`";
        return std::nullopt;
    }
    SweepPoint point;
    point.workload = spec.substr(0, bar);
    const auto cfg = configFromSpec(spec.substr(bar + 1), error);
    if (!cfg.has_value())
        return std::nullopt;
    point.cfg = *cfg;
    return point;
}

std::string
pointToSpec(const SweepPoint &point)
{
    return point.workload + "|" + configToSpec(point.cfg);
}

std::string
pointKey(const SweepPoint &point)
{
    const std::string material =
        configToSpec(point.cfg) + "\n" + point.workload;
    const std::string hex = sha256Hex(std::span<const u8>(
        reinterpret_cast<const u8 *>(material.data()), material.size()));
    return hex.substr(0, 16);
}

namespace {

bool
fail(std::string *error, const std::string &field)
{
    if (error != nullptr)
        *error = "missing or mistyped field `" + field + "`";
    return false;
}

/** Read @p key of @p obj through @p as; an error names path + key. */
template <typename T>
bool
readField(const JsonValue &obj, const std::string &path, const char *key,
          std::optional<T> (JsonValue::*as)() const, T *out,
          std::string *error)
{
    const JsonValue *f = obj.find(key);
    const std::optional<T> v = f != nullptr ? (f->*as)() : std::nullopt;
    if (!v.has_value())
        return fail(error, path + key);
    *out = *v;
    return true;
}

/** The object @p key of @p obj; nullptr and an error when it is not. */
const JsonValue *
readObject(const JsonValue &obj, const std::string &path, const char *key,
           std::string *error)
{
    const JsonValue *f = obj.find(key);
    if (f != nullptr && f->isObject())
        return f;
    fail(error, path + key);
    return nullptr;
}

/** Read the census object `run.KEY` through @p fields. */
template <typename Stats>
bool
readCensus(const JsonValue &run, const char *key, Stats &stats,
           std::span<const CensusField<Stats>> fields, std::string *error)
{
    const JsonValue *obj = readObject(run, "run.", key, error);
    if (obj == nullptr)
        return false;
    const std::string path = std::string("run.") + key + ".";
    for (const CensusField<Stats> &f : fields)
        if (!readField(*obj, path, f.key, &JsonValue::asU64,
                       &(stats.*f.field), error))
            return false;
    return true;
}

} // namespace

std::optional<PointStats>
pointStatsFromJson(const JsonValue &payload, std::string *error)
{
    PointStats s;
    if (!readField(payload, "", "energy_pj", &JsonValue::asDouble,
                   &s.energyPj, error))
        return std::nullopt;
    const JsonValue *run = readObject(payload, "", "run", error);
    if (run == nullptr ||
        !readField(*run, "run.", "cycles", &JsonValue::asU64, &s.cycles,
                   error) ||
        !readField(*run, "run.", "hung", &JsonValue::asBool, &s.hung,
                   error) ||
        !readField(*run, "run.", "unschedulable", &JsonValue::asBool,
                   &s.unschedulable, error) ||
        !readCensus<FaultStats>(*run, "fault", s.fault, kFaultCensus,
                                error) ||
        !readCensus<SeuStats>(*run, "seu", s.seu, kSeuCensus, error))
        return std::nullopt;
    return s;
}

} // namespace warpcomp
