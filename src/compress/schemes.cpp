#include "compress/schemes.hpp"

#include "common/log.hpp"

namespace warpcomp {

namespace {

constexpr BdiParams kFixed40[] = {{4, 0}};
constexpr BdiParams kFixed41[] = {{4, 1}};
constexpr BdiParams kFixed42[] = {{4, 2}};

} // namespace

std::span<const BdiParams>
schemeCandidates(CompressionScheme scheme)
{
    switch (scheme) {
      case CompressionScheme::None: return {};
      case CompressionScheme::Warped: return warpedCandidates();
      case CompressionScheme::Fixed40: return kFixed40;
      case CompressionScheme::Fixed41: return kFixed41;
      case CompressionScheme::Fixed42: return kFixed42;
      case CompressionScheme::FullBdi: return fullBdiCandidates();
      default: WC_PANIC("unknown compression scheme");
    }
}

std::string
schemeName(CompressionScheme scheme)
{
    switch (scheme) {
      case CompressionScheme::None: return "baseline";
      case CompressionScheme::Warped: return "warped-compression";
      case CompressionScheme::Fixed40: return "<4,0>";
      case CompressionScheme::Fixed41: return "<4,1>";
      case CompressionScheme::Fixed42: return "<4,2>";
      case CompressionScheme::FullBdi: return "full-bdi";
      default: WC_PANIC("unknown compression scheme");
    }
}

namespace {

constexpr struct
{
    CompressionScheme scheme;
    const char *id;
} kSchemeIds[] = {
    {CompressionScheme::None, "None"},
    {CompressionScheme::Warped, "Warped"},
    {CompressionScheme::Fixed40, "Fixed40"},
    {CompressionScheme::Fixed41, "Fixed41"},
    {CompressionScheme::Fixed42, "Fixed42"},
    {CompressionScheme::FullBdi, "FullBdi"},
};

} // namespace

std::string
schemeId(CompressionScheme scheme)
{
    for (const auto &entry : kSchemeIds)
        if (entry.scheme == scheme)
            return entry.id;
    WC_PANIC("unknown compression scheme");
}

std::optional<CompressionScheme>
schemeFromId(const std::string &id)
{
    for (const auto &entry : kSchemeIds)
        if (id == entry.id)
            return entry.scheme;
    return std::nullopt;
}

} // namespace warpcomp
