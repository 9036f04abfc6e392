/**
 * @file
 * Self-contained SHA-256 (FIPS 180-4). Used to fingerprint binary
 * kernel images so sweep results carry the exact bytes they ran
 * (the `image_sha256` provenance field of --stats-json documents,
 * sweep reports and trace dumps).
 */

#ifndef WARPCOMP_COMMON_SHA256_HPP
#define WARPCOMP_COMMON_SHA256_HPP

#include <span>
#include <string>

#include "common/types.hpp"

namespace warpcomp {

/** SHA-256 of @p data as a 64-character lowercase hex string. */
std::string sha256Hex(std::span<const u8> data);

} // namespace warpcomp

#endif // WARPCOMP_COMMON_SHA256_HPP
