#include "sweep/chaos.hpp"

#include <chrono>
#include <thread>

#include <unistd.h>

#include "common/json_writer.hpp"
#include "harness/config_spec.hpp"

namespace warpcomp {

namespace {

/** FNV-1a 64 over the point key: stable across platforms. */
u64
fnv1a(const std::string &s)
{
    u64 h = 0xCBF29CE484222325ull;
    for (char c : s) {
        h ^= static_cast<u8>(c);
        h *= 0x100000001B3ull;
    }
    return h;
}

/** splitmix64 finalizer: decorrelates the combined hash bits. */
u64
mix64(u64 x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

} // namespace

std::optional<ChaosSpec>
chaosFromSpec(const std::string &spec, std::string *error)
{
    auto fail = [&](const std::string &msg) {
        if (error != nullptr)
            *error = msg;
        return std::nullopt;
    };

    const size_t c1 = spec.find(',');
    const size_t c2 = c1 == std::string::npos ? std::string::npos
                                              : spec.find(',', c1 + 1);
    if (c1 == std::string::npos || c2 == std::string::npos)
        return fail("--chaos wants MODE,RATE,SEED (e.g. "
                    "--chaos=crash,0.2,42), got `" + spec + "`");

    ChaosSpec out;
    const std::string mode = spec.substr(0, c1);
    if (mode == "crash")
        out.mode = ChaosMode::Crash;
    else if (mode == "hang")
        out.mode = ChaosMode::Hang;
    else if (mode == "slow")
        out.mode = ChaosMode::Slow;
    else if (mode == "mix")
        out.mode = ChaosMode::Mix;
    else
        return fail("unknown chaos mode `" + mode +
                    "` (crash | hang | slow | mix)");

    const std::string rate = spec.substr(c1 + 1, c2 - c1 - 1);
    const auto rate_v = parseNumber(rate);
    if (!rate_v.has_value() || *rate_v < 0.0 || *rate_v > 1.0)
        return fail("chaos RATE must be a finite value in [0, 1], got `" +
                    rate + "`");
    out.rate = *rate_v;

    const std::string seed = spec.substr(c2 + 1);
    const auto seed_v = parseDecimal(seed);
    if (!seed_v.has_value())
        return fail("chaos SEED must be a decimal integer, got `" + seed +
                    "`");
    out.seed = *seed_v;
    return out;
}

std::string
chaosToSpec(const ChaosSpec &spec)
{
    std::string mode;
    switch (spec.mode) {
      case ChaosMode::Crash: mode = "crash"; break;
      case ChaosMode::Hang: mode = "hang"; break;
      case ChaosMode::Slow: mode = "slow"; break;
      case ChaosMode::Mix: mode = "mix"; break;
      case ChaosMode::None: mode = "none"; break;
    }
    return mode + "," + JsonWriter::formatDouble(spec.rate) + "," +
           std::to_string(spec.seed);
}

ChaosMode
chaosAction(const ChaosSpec &spec, const std::string &point_key,
            u32 attempt)
{
    if (!spec.enabled())
        return ChaosMode::None;
    const u64 h =
        mix64(fnv1a(point_key) ^ mix64(spec.seed) ^
              mix64(static_cast<u64>(attempt) * 0x9E3779B97F4A7C15ull));
    // Top 53 bits -> uniform double in [0, 1).
    const double draw =
        static_cast<double>(h >> 11) * 0x1.0p-53;
    if (draw >= spec.rate)
        return ChaosMode::None;
    if (spec.mode != ChaosMode::Mix)
        return spec.mode;
    // Mix: a second independent draw picks the injury flavour.
    switch (mix64(h) % 3) {
      case 0: return ChaosMode::Crash;
      case 1: return ChaosMode::Hang;
      default: return ChaosMode::Slow;
    }
}

void
applyChaos(ChaosMode action)
{
    switch (action) {
      case ChaosMode::Crash:
        // Abrupt death, no destructors/flushes — what a real crash
        // leaves behind.
        _exit(kChaosCrashExit);
      case ChaosMode::Hang:
        for (;;)
            std::this_thread::sleep_for(std::chrono::seconds(3600));
      case ChaosMode::Slow:
        std::this_thread::sleep_for(
            std::chrono::milliseconds(kChaosSlowMs));
        return;
      case ChaosMode::Mix:
      case ChaosMode::None:
        return;
    }
}

} // namespace warpcomp
