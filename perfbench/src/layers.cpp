#include "layers.hpp"

#include <chrono>
#include <cstring>

#include "analysis/similarity.hpp"
#include "common/sha256.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/** Results land here so the timed calls cannot be optimised away. */
volatile u64 g_sink = 0;

/** Run @p pass (which handles @p items calls) until @p min_seconds have
 *  elapsed, at least twice; mean ns per call. */
template <typename Pass>
double
nsPerCall(std::size_t items, double min_seconds, Pass &&pass)
{
    if (items == 0)
        return 0.0;
    const Clock::time_point start = Clock::now();
    std::size_t passes = 0;
    double elapsed = 0.0;
    do {
        pass();
        ++passes;
        elapsed =
            std::chrono::duration<double>(Clock::now() - start).count();
    } while (passes < 2 || elapsed < min_seconds);
    return elapsed * 1e9 / static_cast<double>(passes * items);
}

} // namespace

void
Corpus::addGlobalMemory(GlobalMemory &gmem)
{
    // A zero-byte allocation returns the 128-aligned end of the
    // allocated region without moving it further.
    const u64 end = gmem.alloc(0, kWarpRegBytes);
    const std::span<const u8> bytes = gmem.bytes();
    for (u64 off = 0; off + kWarpRegBytes <= end; off += kWarpRegBytes) {
        std::array<u8, kWarpRegBytes> img;
        std::memcpy(img.data(), bytes.data() + off, kWarpRegBytes);
        images_.push_back(img);
    }
}

double
Corpus::ratio() const
{
    u64 stored = 0;
    for (const auto &img : images_)
        stored += bdiCompress(img, warpedCandidates()).sizeBytes();
    return stored == 0 ? 1.0 :
        static_cast<double>(images_.size() * kWarpRegBytes) /
        static_cast<double>(stored);
}

std::string
Corpus::sha256() const
{
    std::vector<u8> all;
    all.reserve(images_.size() * kWarpRegBytes);
    for (const auto &img : images_)
        all.insert(all.end(), img.begin(), img.end());
    return sha256Hex(all);
}

bool
codecRoundTrips(const Corpus &corpus)
{
    for (const auto &img : corpus.images()) {
        if (bdiDecompress(bdiCompress(img, warpedCandidates())) != img ||
            bdiDecompress(bdiCompress(img, fullBdiCandidates())) != img)
            return false;
    }
    return true;
}

CodecTimes
timeCodec(const Corpus &corpus, double min_seconds)
{
    const auto &images = corpus.images();
    std::vector<BdiEncoded> encoded;
    std::vector<WarpRegValue> values;
    encoded.reserve(images.size());
    values.reserve(images.size());
    for (const auto &img : images) {
        encoded.push_back(bdiCompress(img, warpedCandidates()));
        values.push_back(fromBytes(img));
    }

    CodecTimes t;
    t.encodeNs = nsPerCall(images.size(), min_seconds, [&] {
        u64 bytes = 0;
        for (const auto &img : images)
            bytes += bdiCompress(img, warpedCandidates()).sizeBytes();
        g_sink = g_sink + bytes;
    });
    t.decodeNs = nsPerCall(encoded.size(), min_seconds, [&] {
        u64 acc = 0;
        for (const BdiEncoded &enc : encoded)
            acc += bdiDecompress(enc)[kWarpRegBytes - 1];
        g_sink = g_sink + acc;
    });
    t.exploreNs = nsPerCall(images.size(), min_seconds, [&] {
        u64 acc = 0;
        for (const auto &img : images) {
            const auto best = bdiBestParams(img, fullBdiCandidates());
            acc += best.has_value() ? best->deltaBytes + 1 : 0;
        }
        g_sink = g_sink + acc;
    });
    t.similarityNs = nsPerCall(values.size(), min_seconds, [&] {
        SimilarityBins bins;
        for (const WarpRegValue &v : values)
            bins.record(v, kFullMask, false);
        g_sink = g_sink + bins.total(kNonDivergent);
    });
    return t;
}

double
timeBreakdownNs(const EnergyMeter &meter, double min_seconds)
{
    constexpr std::size_t kCallsPerPass = 1000;
    return nsPerCall(kCallsPerPass, min_seconds, [&] {
        double acc = 0.0;
        for (std::size_t i = 0; i < kCallsPerPass; ++i)
            acc += meter.breakdownWith(meter.params()).totalPj();
        g_sink = g_sink + static_cast<u64>(acc);
    });
}

} // namespace perfbench
