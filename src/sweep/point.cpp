#include "sweep/point.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <span>
#include <sstream>
#include <vector>

#include "common/sha256.hpp"

namespace warpcomp {

namespace {

std::string
boolToken(bool v)
{
    return v ? "1" : "0";
}

std::optional<bool>
parseBoolToken(const std::string &v)
{
    if (v == "1")
        return true;
    if (v == "0")
        return false;
    return std::nullopt;
}

std::optional<u64>
parseU64Token(const std::string &v)
{
    if (v.empty())
        return std::nullopt;
    for (char c : v)
        if (c < '0' || c > '9')
            return std::nullopt;
    char *end = nullptr;
    const u64 parsed = std::strtoull(v.c_str(), &end, 10);
    if (end != v.c_str() + v.size() || std::to_string(parsed) != v)
        return std::nullopt;
    return parsed;
}

std::optional<u32>
parseU32Token(const std::string &v)
{
    const auto parsed = parseU64Token(v);
    if (!parsed.has_value() || *parsed > 0xFFFFFFFFull)
        return std::nullopt;
    return static_cast<u32>(*parsed);
}

std::optional<double>
parseDoubleToken(const std::string &v)
{
    if (v.empty())
        return std::nullopt;
    char *end = nullptr;
    const double parsed = std::strtod(v.c_str(), &end);
    if (end != v.c_str() + v.size() || !std::isfinite(parsed))
        return std::nullopt;
    return parsed;
}

std::string
schedToken(SchedPolicy p)
{
    return p == SchedPolicy::Gto ? "Gto" : "Lrr";
}

std::optional<SchedPolicy>
schedFromToken(const std::string &v)
{
    if (v == "Gto")
        return SchedPolicy::Gto;
    if (v == "Lrr")
        return SchedPolicy::Lrr;
    return std::nullopt;
}

std::string
divToken(DivergencePolicy p)
{
    return p == DivergencePolicy::WriteUncompressed ? "WriteUncompressed"
                                                    : "MergeRecompress";
}

std::optional<DivergencePolicy>
divFromToken(const std::string &v)
{
    if (v == "WriteUncompressed")
        return DivergencePolicy::WriteUncompressed;
    if (v == "MergeRecompress")
        return DivergencePolicy::MergeRecompress;
    return std::nullopt;
}

} // namespace

std::string
configToSpec(const ExperimentConfig &cfg)
{
    std::ostringstream ss;
    ss << "scheme=" << schemeId(cfg.scheme)
       << ";sched=" << schedToken(cfg.sched)
       << ";div=" << divToken(cfg.divPolicy)
       << ";clat=" << cfg.compressLatency
       << ";dlat=" << cfg.decompressLatency
       << ";sms=" << cfg.numSms
       << ";scale=" << cfg.scale
       << ";bdi=" << boolToken(cfg.collectBdiBreakdown)
       << ";gating=" << boolToken(cfg.enableGating)
       << ";drowsy=" << boolToken(cfg.drowsy)
       << ";drowsyafter=" << cfg.drowsyAfterCycles
       << ";rfc=" << cfg.rfcEntries
       << ";wakeup=" << cfg.wakeupLatency
       << ";comps=" << cfg.numCompressors
       << ";decomps=" << cfg.numDecompressors
       << ";salt=" << cfg.seedSalt
       << ";fber=" << JsonWriter::formatDouble(cfg.faults.ber)
       << ";fpolicy=" << faultPolicyName(cfg.faults.policy)
       << ";fseed=" << cfg.faults.seed
       << ";hang=" << cfg.faults.hangCycles
       << ";seurate=" << JsonWriter::formatDouble(cfg.seu.flipsPerCycle)
       << ";seuscheme=" << seuSchemeName(cfg.seu.scheme)
       << ";seuseed=" << cfg.seu.seed
       << ";scrub=" << cfg.seu.scrubInterval
       << ";skip=" << boolToken(cfg.skipIdle);
    return ss.str();
}

std::optional<ExperimentConfig>
configFromSpec(const std::string &spec, std::string *error)
{
    auto fail = [&](const std::string &msg) {
        if (error != nullptr)
            *error = msg;
        return std::nullopt;
    };

    ExperimentConfig cfg;
    size_t pos = 0;
    while (pos <= spec.size()) {
        const size_t semi = spec.find(';', pos);
        const std::string pair = spec.substr(
            pos, semi == std::string::npos ? std::string::npos : semi - pos);
        pos = semi == std::string::npos ? spec.size() + 1 : semi + 1;

        const size_t eq = pair.find('=');
        if (eq == std::string::npos)
            return fail("config pair `" + pair + "` has no '='");
        const std::string key = pair.substr(0, eq);
        const std::string val = pair.substr(eq + 1);
        bool ok = true;

        if (key == "scheme") {
            const auto v = schemeFromId(val);
            ok = v.has_value();
            if (ok)
                cfg.scheme = *v;
        } else if (key == "sched") {
            const auto v = schedFromToken(val);
            ok = v.has_value();
            if (ok)
                cfg.sched = *v;
        } else if (key == "div") {
            const auto v = divFromToken(val);
            ok = v.has_value();
            if (ok)
                cfg.divPolicy = *v;
        } else if (key == "clat") {
            const auto v = parseU32Token(val);
            ok = v.has_value();
            if (ok)
                cfg.compressLatency = *v;
        } else if (key == "dlat") {
            const auto v = parseU32Token(val);
            ok = v.has_value();
            if (ok)
                cfg.decompressLatency = *v;
        } else if (key == "sms") {
            const auto v = parseU32Token(val);
            ok = v.has_value() && *v >= 1;
            if (ok)
                cfg.numSms = *v;
        } else if (key == "scale") {
            const auto v = parseU32Token(val);
            ok = v.has_value() && *v >= 1;
            if (ok)
                cfg.scale = *v;
        } else if (key == "bdi") {
            const auto v = parseBoolToken(val);
            ok = v.has_value();
            if (ok)
                cfg.collectBdiBreakdown = *v;
        } else if (key == "gating") {
            const auto v = parseBoolToken(val);
            ok = v.has_value();
            if (ok)
                cfg.enableGating = *v;
        } else if (key == "drowsy") {
            const auto v = parseBoolToken(val);
            ok = v.has_value();
            if (ok)
                cfg.drowsy = *v;
        } else if (key == "drowsyafter") {
            const auto v = parseU32Token(val);
            ok = v.has_value();
            if (ok)
                cfg.drowsyAfterCycles = *v;
        } else if (key == "rfc") {
            const auto v = parseU32Token(val);
            ok = v.has_value();
            if (ok)
                cfg.rfcEntries = *v;
        } else if (key == "wakeup") {
            const auto v = parseU32Token(val);
            ok = v.has_value();
            if (ok)
                cfg.wakeupLatency = *v;
        } else if (key == "comps") {
            const auto v = parseU32Token(val);
            ok = v.has_value();
            if (ok)
                cfg.numCompressors = *v;
        } else if (key == "decomps") {
            const auto v = parseU32Token(val);
            ok = v.has_value();
            if (ok)
                cfg.numDecompressors = *v;
        } else if (key == "salt") {
            const auto v = parseU64Token(val);
            ok = v.has_value();
            if (ok)
                cfg.seedSalt = *v;
        } else if (key == "fber") {
            const auto v = parseDoubleToken(val);
            ok = v.has_value() && *v >= 0.0 && *v < 1.0;
            if (ok)
                cfg.faults.ber = *v;
        } else if (key == "fpolicy") {
            const auto v = faultPolicyFromName(val);
            ok = v.has_value();
            if (ok)
                cfg.faults.policy = *v;
        } else if (key == "fseed") {
            const auto v = parseU64Token(val);
            ok = v.has_value();
            if (ok)
                cfg.faults.seed = *v;
        } else if (key == "hang") {
            const auto v = parseU64Token(val);
            ok = v.has_value();
            if (ok)
                cfg.faults.hangCycles = *v;
        } else if (key == "seurate") {
            const auto v = parseDoubleToken(val);
            ok = v.has_value() && *v >= 0.0;
            if (ok)
                cfg.seu.flipsPerCycle = *v;
        } else if (key == "seuscheme") {
            const auto v = seuSchemeFromName(val);
            ok = v.has_value();
            if (ok)
                cfg.seu.scheme = *v;
        } else if (key == "seuseed") {
            const auto v = parseU64Token(val);
            ok = v.has_value();
            if (ok)
                cfg.seu.seed = *v;
        } else if (key == "scrub") {
            const auto v = parseU64Token(val);
            ok = v.has_value() && *v >= 1;
            if (ok)
                cfg.seu.scrubInterval = *v;
        } else if (key == "skip") {
            const auto v = parseBoolToken(val);
            ok = v.has_value();
            if (ok)
                cfg.skipIdle = *v;
        } else {
            return fail("unknown config key `" + key + "`");
        }
        if (!ok)
            return fail("bad value for config key `" + key + "`: `" +
                        val + "`");
    }
    return cfg;
}

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
    // Shortest text strtod reads back as the same double: the
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
    w.beginObject();
    w.field("total_regs", s.fault.totalRegs);
    w.field("usable_regs", s.fault.usableRegs);
    w.field("disabled_regs", s.fault.disabledRegs);
    w.field("faulty_cells", s.fault.faultyCells);
    w.field("tolerated_writes", s.fault.toleratedWrites);
    w.field("remap_writes", s.fault.remapWrites);
    w.field("remap_reads", s.fault.remapReads);
    w.field("corrupted_writes", s.fault.corruptedWrites);
    w.field("unrecoverable_accesses", s.fault.unrecoverableAccesses);
    w.endObject();
    w.key("seu");
    w.beginObject();
    w.field("flips", s.seu.flips);
    w.field("live_hits", s.seu.liveHits);
    w.field("masked_flips", s.seu.maskedFlips);
    w.field("hits_compressed", s.seu.hitsCompressed);
    w.field("corrupted_reads", s.seu.corruptedReads);
    w.field("corrupted_lanes", s.seu.corruptedLanes);
    w.field("amplified_reads", s.seu.amplifiedReads);
    w.field("ecc_corrected", s.seu.eccCorrectedReads);
    w.field("detected_uncorrectable", s.seu.detectedUncorrectable);
    w.field("scrub_visits", s.seu.scrubVisits);
    w.field("scrub_writes", s.seu.scrubWrites);
    w.field("scrub_corrected", s.seu.scrubCorrected);
    w.field("ecc_check_bit_bytes", s.seu.eccCheckBitBytes);
    w.endObject();
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

    const JsonValue *fault = v.find("fault");
    if (fault == nullptr || !fault->isObject()) {
        if (error != nullptr)
            *error = "missing `fault` object";
        return std::nullopt;
    }
    if (!readU64Field(*fault, "total_regs", &s.fault.totalRegs, error) ||
        !readU64Field(*fault, "usable_regs", &s.fault.usableRegs,
                      error) ||
        !readU64Field(*fault, "disabled_regs", &s.fault.disabledRegs,
                      error) ||
        !readU64Field(*fault, "faulty_cells", &s.fault.faultyCells,
                      error) ||
        !readU64Field(*fault, "tolerated_writes",
                      &s.fault.toleratedWrites, error) ||
        !readU64Field(*fault, "remap_writes", &s.fault.remapWrites,
                      error) ||
        !readU64Field(*fault, "remap_reads", &s.fault.remapReads,
                      error) ||
        !readU64Field(*fault, "corrupted_writes",
                      &s.fault.corruptedWrites, error) ||
        !readU64Field(*fault, "unrecoverable_accesses",
                      &s.fault.unrecoverableAccesses, error))
        return std::nullopt;

    const JsonValue *seu = v.find("seu");
    if (seu == nullptr || !seu->isObject()) {
        if (error != nullptr)
            *error = "missing `seu` object";
        return std::nullopt;
    }
    if (!readU64Field(*seu, "flips", &s.seu.flips, error) ||
        !readU64Field(*seu, "live_hits", &s.seu.liveHits, error) ||
        !readU64Field(*seu, "masked_flips", &s.seu.maskedFlips, error) ||
        !readU64Field(*seu, "hits_compressed", &s.seu.hitsCompressed,
                      error) ||
        !readU64Field(*seu, "corrupted_reads", &s.seu.corruptedReads,
                      error) ||
        !readU64Field(*seu, "corrupted_lanes", &s.seu.corruptedLanes,
                      error) ||
        !readU64Field(*seu, "amplified_reads", &s.seu.amplifiedReads,
                      error) ||
        !readU64Field(*seu, "ecc_corrected", &s.seu.eccCorrectedReads,
                      error) ||
        !readU64Field(*seu, "detected_uncorrectable",
                      &s.seu.detectedUncorrectable, error) ||
        !readU64Field(*seu, "scrub_visits", &s.seu.scrubVisits, error) ||
        !readU64Field(*seu, "scrub_writes", &s.seu.scrubWrites, error) ||
        !readU64Field(*seu, "scrub_corrected", &s.seu.scrubCorrected,
                      error) ||
        !readU64Field(*seu, "ecc_check_bit_bytes",
                      &s.seu.eccCheckBitBytes, error))
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
