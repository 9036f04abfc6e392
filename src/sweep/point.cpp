#include "sweep/point.hpp"

#include <charconv>
#include <cmath>
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

PointStats
makePointStats(const ExperimentResult &result, const EnergyParams &energy)
{
    PointStats s;
    const RunResult &run = result.run;
    s.cycles = run.cycles;
    s.ctas = run.ctas;
    s.hung = run.hung;
    s.unschedulable = run.unschedulable;
    s.energyPj = run.meter.breakdownWith(energy).totalPj();
    s.fault = run.fault;
    s.seu = run.seu;
    s.frontend = result.frontend;
    s.imageSha = result.imageSha;
    return s;
}

void
writeJson(JsonWriter &w, const PointStats &s)
{
    w.beginObject();
    w.field("cycles", s.cycles);
    w.field("ctas", s.ctas);
    w.field("hung", s.hung);
    w.field("unschedulable", s.unschedulable);
    // Shortest text that parses back as the same double: the
    // supervising parent sums exactly what the child measured, which
    // the 12-digit formatDouble cannot carry.
    w.key("energy_pj");
    if (std::isfinite(s.energyPj)) {
        char buf[32];
        const char *end =
            std::to_chars(buf, buf + sizeof buf, s.energyPj).ptr;
        w.rawValue({buf, static_cast<std::size_t>(end - buf)});
    } else {
        w.valueNull();
    }
    w.key("fault");
    writeJson(w, s.fault);
    w.key("seu");
    writeJson(w, s.seu);
    w.field("frontend", s.frontend);
    w.field("image_sha256", s.imageSha);
    w.endObject();
}

namespace {

bool
readU64Field(const JsonValue &v, const char *key, u64 *out,
             std::string *error)
{
    const JsonValue *f = v.find(key);
    const auto parsed = f != nullptr ? f->asU64() : std::nullopt;
    if (!parsed.has_value()) {
        if (error != nullptr)
            *error = std::string("missing or mistyped field `") + key +
                     "`";
        return false;
    }
    *out = *parsed;
    return true;
}

bool
readBoolField(const JsonValue &v, const char *key, bool *out,
              std::string *error)
{
    const JsonValue *f = v.find(key);
    const auto parsed = f != nullptr ? f->asBool() : std::nullopt;
    if (!parsed.has_value()) {
        if (error != nullptr)
            *error = std::string("missing or mistyped field `") + key +
                     "`";
        return false;
    }
    *out = *parsed;
    return true;
}

/** Read the census object @p key of @p v through @p fields. */
template <typename Stats>
bool
readCensus(const JsonValue &v, const char *key, Stats &stats,
           std::span<const CensusField<Stats>> fields, std::string *error)
{
    const JsonValue *obj = v.find(key);
    if (obj == nullptr || !obj->isObject()) {
        if (error != nullptr)
            *error = std::string("missing `") + key + "` object";
        return false;
    }
    for (const CensusField<Stats> &f : fields)
        if (!readU64Field(*obj, f.key, &(stats.*f.field), error))
            return false;
    return true;
}

} // namespace

std::optional<PointStats>
pointStatsFromJson(const JsonValue &v, std::string *error)
{
    if (!v.isObject()) {
        if (error != nullptr)
            *error = "point stats is not an object";
        return std::nullopt;
    }
    PointStats s;
    if (!readU64Field(v, "cycles", &s.cycles, error) ||
        !readU64Field(v, "ctas", &s.ctas, error) ||
        !readBoolField(v, "hung", &s.hung, error) ||
        !readBoolField(v, "unschedulable", &s.unschedulable, error))
        return std::nullopt;
    const JsonValue *energy = v.find("energy_pj");
    const auto energy_v = energy != nullptr ? energy->asDouble()
                                            : std::nullopt;
    if (!energy_v.has_value()) {
        if (error != nullptr)
            *error = "missing or mistyped field `energy_pj`";
        return std::nullopt;
    }
    s.energyPj = *energy_v;

    if (!readCensus<FaultStats>(v, "fault", s.fault, kFaultCensus,
                                error) ||
        !readCensus<SeuStats>(v, "seu", s.seu, kSeuCensus, error))
        return std::nullopt;

    const JsonValue *frontend = v.find("frontend");
    const JsonValue *sha = v.find("image_sha256");
    if (frontend == nullptr || frontend->asString() == nullptr ||
        sha == nullptr || sha->asString() == nullptr) {
        if (error != nullptr)
            *error = "missing provenance fields";
        return std::nullopt;
    }
    s.frontend = *frontend->asString();
    s.imageSha = *sha->asString();
    return s;
}

} // namespace warpcomp
