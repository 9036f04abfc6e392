#include "harness/config_spec.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <span>
#include <type_traits>
#include <variant>

#include "common/json_writer.hpp"
#include "common/log.hpp"

namespace warpcomp {

std::optional<u64>
parseDecimal(std::string_view token)
{
    u64 v = 0;
    const char *end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, v);
    if (token.empty() || ec != std::errc() || ptr != end)
        return std::nullopt;
    return v;
}

std::optional<double>
parseNumber(std::string_view token)
{
    double v = 0.0;
    const char *end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, v);
    if (token.empty() || ec != std::errc() || ptr != end ||
        !std::isfinite(v))
        return std::nullopt;
    return v;
}

namespace {

/** A key's field in one config; the pointee type is the value kind. */
using Field = std::variant<u32 *, u64 *, double *, bool *,
                           CompressionScheme *, SchedPolicy *,
                           DivergencePolicy *, FaultPolicy *, SeuScheme *>;

constexpr const char *kSchedNames[] = {"Gto", "Lrr"};
constexpr const char *kDivNames[] = {"WriteUncompressed",
                                     "MergeRecompress"};

struct ConfigKey
{
    std::string_view key;
    Field (*field)(ExperimentConfig &);
    /** The rule a value must meet ("an integer >= 1"); for an enum,
     *  what its tokens name ("fault policy"). */
    const char *what;
    /** Enums: the tokens, in enum order. */
    std::span<const char *const> names = {};
    /** Integers: the least value (the type bounds the top). */
    u64 min = 0;
    /** Reals: values lie in [0, below). */
    double below = std::numeric_limits<double>::infinity();
};

#define WC_FIELD(member)                                                    \
    [](ExperimentConfig &c) -> Field { return &c.member; }

/** Every key, in canonical spec order. */
const ConfigKey kKeys[] = {
    {"scheme", WC_FIELD(scheme), "compression scheme", kSchemeIds},
    {"sched", WC_FIELD(sched), "scheduling policy", kSchedNames},
    {"div", WC_FIELD(divPolicy), "divergence policy", kDivNames},
    {"clat", WC_FIELD(compressLatency), "a cycle count"},
    {"dlat", WC_FIELD(decompressLatency), "a cycle count"},
    {"sms", WC_FIELD(numSms), "an integer >= 1", {}, 1},
    {"scale", WC_FIELD(scale), "an integer >= 1", {}, 1},
    {"bdi", WC_FIELD(collectBdiBreakdown), "0 or 1"},
    {"gating", WC_FIELD(enableGating), "0 or 1"},
    {"drowsy", WC_FIELD(drowsy), "0 or 1"},
    {"drowsyafter", WC_FIELD(drowsyAfterCycles), "a cycle count"},
    {"rfc", WC_FIELD(rfcEntries), "an entry count"},
    {"wakeup", WC_FIELD(wakeupLatency), "a cycle count"},
    {"comps", WC_FIELD(numCompressors), "a unit count"},
    {"decomps", WC_FIELD(numDecompressors), "a unit count"},
    {"salt", WC_FIELD(seedSalt), "a decimal integer"},
    {"fber", WC_FIELD(faults.ber), "a finite value in [0, 1)", {}, 0,
     1.0},
    {"fpolicy", WC_FIELD(faults.policy), "fault policy",
     kFaultPolicyNames},
    {"fseed", WC_FIELD(faults.seed), "a decimal integer"},
    {"hang", WC_FIELD(faults.hangCycles), "a cycle count >= 1", {}, 1},
    {"seurate", WC_FIELD(seu.flipsPerCycle),
     "a finite flips-per-cycle value >= 0"},
    {"seuscheme", WC_FIELD(seu.scheme), "SEU scheme", kSeuSchemeNames},
    {"seuseed", WC_FIELD(seu.seed), "a decimal integer"},
    {"scrub", WC_FIELD(seu.scrubInterval), "a cycle count >= 1", {}, 1},
    {"skip", WC_FIELD(skipIdle), "0 or 1"},
};

#undef WC_FIELD

const ConfigKey *
findKey(std::string_view key)
{
    for (const ConfigKey &k : kKeys)
        if (k.key == key)
            return &k;
    return nullptr;
}

/** @p k's field in a config that is only read: field() just forms
 *  the pointer, and no caller writes through it. */
Field
readField(const ConfigKey &k, const ExperimentConfig &cfg)
{
    return k.field(const_cast<ExperimentConfig &>(cfg));
}

std::string
formatValue(const ConfigKey &k, const ExperimentConfig &cfg)
{
    return std::visit(
        [&](auto *p) -> std::string {
            using T = std::remove_pointer_t<decltype(p)>;
            if constexpr (std::is_same_v<T, double>)
                return JsonWriter::formatDouble(*p);
            else if constexpr (std::is_same_v<T, bool>)
                return *p ? "1" : "0";
            else if constexpr (std::is_enum_v<T>)
                return k.names[static_cast<std::size_t>(*p)];
            else
                return std::to_string(*p);
        },
        readField(k, cfg));
}

bool
parseValue(const ConfigKey &k, std::string_view token,
           ExperimentConfig &cfg)
{
    return std::visit(
        [&](auto *p) {
            using T = std::remove_pointer_t<decltype(p)>;
            if constexpr (std::is_same_v<T, double>) {
                const auto v = parseNumber(token);
                if (!v.has_value() || *v < 0.0 || *v >= k.below)
                    return false;
                *p = *v + 0.0;  // -0 is 0: one value, one spelling
            } else if constexpr (std::is_same_v<T, bool>) {
                if (token != "0" && token != "1")
                    return false;
                *p = token == "1";
            } else if constexpr (std::is_enum_v<T>) {
                const auto it =
                    std::find(k.names.begin(), k.names.end(), token);
                if (it == k.names.end())
                    return false;
                *p = static_cast<T>(it - k.names.begin());
            } else {
                const auto v = parseDecimal(token);
                if (!v.has_value() || *v < k.min ||
                    *v > std::numeric_limits<T>::max())
                    return false;
                *p = static_cast<T>(*v);
            }
            return true;
        },
        k.field(cfg));
}

/** One-line diagnostic for a value @p k rejected, phrased for
 *  @p label. */
std::string
valueError(const ConfigKey &k, const std::string &label,
           std::string_view token)
{
    std::string msg = label;
    if (k.names.empty()) {
        msg.append(" must be ").append(k.what).append(", got '");
        return msg.append(token).append("'");
    }
    msg.append(": unknown ").append(k.what).append(" '").append(token);
    msg.append("' (");
    for (std::size_t i = 0; i < k.names.size(); ++i)
        msg.append(i == 0 ? "" : " | ").append(k.names[i]);
    return msg.append(")");
}

} // namespace

std::string
configToSpec(const ExperimentConfig &cfg)
{
    std::string spec;
    for (const ConfigKey &k : kKeys) {
        if (!spec.empty())
            spec += ';';
        spec.append(k.key);
        spec += '=';
        spec += formatValue(k, cfg);
    }
    return spec;
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
        const std::string_view val = std::string_view(pair).substr(eq + 1);
        const ConfigKey *k = findKey(key);
        if (k == nullptr)
            return fail("unknown config key `" + key + "`");
        if (!parseValue(*k, val, cfg))
            return fail("bad value: " +
                        valueError(*k, "config key `" + key + "`", val));
    }
    return cfg;
}

bool
setConfigKey(std::string_view key, std::string_view token,
             const std::string &label, ExperimentConfig &cfg,
             std::string *error)
{
    const ConfigKey *k = findKey(key);
    WC_ASSERT(k != nullptr, "unknown config key " << key);
    if (parseValue(*k, token, cfg))
        return true;
    *error = valueError(*k, label, token);
    return false;
}

void
copyConfigKey(std::string_view key, const ExperimentConfig &from,
              ExperimentConfig &to)
{
    const ConfigKey *k = findKey(key);
    WC_ASSERT(k != nullptr, "unknown config key " << key);
    std::visit(
        [&](auto *dst) {
            *dst = *std::get<decltype(dst)>(readField(*k, from));
        },
        k->field(to));
}

} // namespace warpcomp
