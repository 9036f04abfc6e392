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

BdiEncoded
storedImage(const WarpRegValue &value, bool compressed,
            CompressionScheme scheme)
{
    if (compressed)
        return bdiCompress(regBytes(value), schemeCandidates(scheme));
    BdiEncoded raw;
    raw.bytes.assign(regBytes(value));
    return raw;
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

} // namespace warpcomp
