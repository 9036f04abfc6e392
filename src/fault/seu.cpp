#include "fault/seu.hpp"

#include <cmath>

#include "common/log.hpp"
#include "regfile/regfile.hpp"

namespace warpcomp {

namespace {

constexpr u64 kGolden = 0x9E3779B97F4A7C15ull;

/** splitmix64 finalizer: the stateless per-cycle hash behind the flip
 *  stream. Statelessness (no generator object advancing) is what makes
 *  the stream a pure function of (seed, cycle). */
constexpr u64
hash64(u64 x)
{
    x += kGolden;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/** Uniform double in [0, 1) from the top 53 bits. */
constexpr double
unitDouble(u64 h)
{
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

} // namespace

std::string
seuSchemeName(SeuScheme scheme)
{
    const auto i = static_cast<std::size_t>(scheme);
    WC_ASSERT(i < std::size(kSeuSchemeNames), "unknown SEU scheme");
    return kSeuSchemeNames[i];
}

void
SeuStats::merge(const SeuStats &other)
{
    flips += other.flips;
    liveHits += other.liveHits;
    maskedFlips += other.maskedFlips;
    hitsCompressed += other.hitsCompressed;
    corruptedReads += other.corruptedReads;
    corruptedLanes += other.corruptedLanes;
    amplifiedReads += other.amplifiedReads;
    eccCorrectedReads += other.eccCorrectedReads;
    detectedUncorrectable += other.detectedUncorrectable;
    scrubVisits += other.scrubVisits;
    scrubWrites += other.scrubWrites;
    scrubCorrected += other.scrubCorrected;
    eccCheckBitBytes += other.eccCheckBitBytes;
}

SeuEngine::SeuEngine(const RegisterFile &rf, const SeuParams &params)
    : rf_(rf), params_(params), seed_(params.seed),
      entries_(rf.params().entriesPerBank),
      clusters_(rf.params().numClusters()),
      numRows_(clusters_ * entries_),
      totalBits_(static_cast<u64>(numRows_) * kWarpRegBytes * 8),
      rate_(params.flipsPerCycle)
{
    WC_ASSERT(rate_ >= 0.0 && std::isfinite(rate_),
              "SEU rate " << rate_ << " must be finite and >= 0");
    WC_ASSERT(!params.scrubEnabled() || params.scrubInterval >= 1,
              "scrub interval must be >= 1 cycle");
    pending_.assign(numRows_, Pending{});
    if (params.eccEnabled()) {
        stats_.eccCheckBitBytes =
            static_cast<u64>(numRows_) * kCheckBitsPerEntry / 8;
    }
}

void
SeuEngine::sampleCycle(Cycle now)
{
    // One hash per cycle decides the flip count (integer part of the
    // rate plus a Bernoulli draw on the fraction); per-flip sub-hashes
    // pick uniform (row, bit) targets. A flip only becomes pending
    // when it lands under the live byte extent of its row — dead cells
    // and the tail beyond a compressed encoding absorb upsets
    // harmlessly, which is exactly the compression cross-section
    // shrinkage the sweep measures.
    const u64 h = hash64(seed_ ^ (now * kGolden));
    u32 n = static_cast<u32>(rate_);
    const double frac = rate_ - std::floor(rate_);
    if (frac > 0.0 && unitDouble(h) < frac)
        ++n;
    for (u32 i = 0; i < n; ++i) {
        const u64 t = hash64(h + kGolden * (i + 1));
        ++stats_.flips;
        const u64 cell = t % totalBits_;
        const u32 bit = static_cast<u32>(cell % (kWarpRegBytes * 8));
        const u32 row = static_cast<u32>(cell / (kWarpRegBytes * 8));
        const auto ext =
            rf_.entryExtent(row / entries_, row % entries_);
        if (ext.bytes == 0 || bit / 8 >= ext.bytes) {
            ++stats_.maskedFlips;
            continue;
        }
        ++stats_.liveHits;
        if (ext.compressed)
            ++stats_.hitsCompressed;
        Pending &p = pending_[row];
        if (p.count < kMaxTrackedFlips)
            p.pos[p.count] = static_cast<u16>(bit);
        ++p.count;
        ++pendingTotal_;
    }
}

SeuEngine::ReadResolution
SeuEngine::resolveRead(u32 warp_slot, u32 reg)
{
    ReadResolution res;
    if (pendingTotal_ == 0)
        return res;
    const RegSlot s = rf_.locate(warp_slot, reg);
    Pending &p = pending_[rowIndex(s.cluster, s.entry)];
    if (p.count == 0)
        return res;

    res.flips = p.count;
    res.tracked = p.count < kMaxTrackedFlips ? p.count : kMaxTrackedFlips;
    res.pos = p.pos;
    pendingTotal_ -= p.count;
    p = Pending{};

    if (params_.eccEnabled()) {
        // SEC-DED at the read port: one flip corrects silently, more
        // are detected. Either way nothing corrupt reaches the
        // collector — a detected-uncorrectable row is recovered
        // upstream (counted; the data-loss event is the metric).
        if (res.flips == 1)
            ++stats_.eccCorrectedReads;
        else
            ++stats_.detectedUncorrectable;
        return res;
    }
    res.corrupt = true;
    return res;
}

void
SeuEngine::noteCorruption(u32 lanes_changed, bool stored_compressed)
{
    if (lanes_changed == 0)
        return;
    ++stats_.corruptedReads;
    stats_.corruptedLanes += lanes_changed;
    if (stored_compressed)
        ++stats_.amplifiedReads;
}

void
SeuEngine::clearEntry(u32 cluster, u32 entry)
{
    Pending &p = pending_[rowIndex(cluster, entry)];
    if (p.count == 0)
        return;
    WC_ASSERT(pendingTotal_ >= p.count, "pending-flip underflow");
    pendingTotal_ -= p.count;
    p = Pending{};
}

SeuEngine::ScrubVisit
SeuEngine::scrubTick(Cycle now)
{
    ScrubVisit v;
    if (!params_.scrubEnabled())
        return v;
    if (now == 0 || now % params_.scrubInterval != 0)
        return v;

    // Round-robin over all rows, one per period. Invalid rows are
    // skipped for free: the engine sits next to the arbiter and sees
    // the valid bits, so it never burns bank energy on dead rows.
    const u32 row = scrubCursor_;
    scrubCursor_ = scrubCursor_ + 1 == numRows_ ? 0 : scrubCursor_ + 1;
    ++stats_.scrubVisits;

    const u32 cluster = row / entries_;
    const u32 entry = row % entries_;
    const auto ext = rf_.entryExtent(cluster, entry);
    if (ext.bytes == 0)
        return v;

    ++stats_.scrubWrites;
    Pending &p = pending_[row];
    if (p.count != 0) {
        if (params_.eccEnabled() && p.count > 1) {
            // The scrubber found a row ECC can no longer correct:
            // detected, data lost, but the event is visible.
            ++stats_.detectedUncorrectable;
        } else {
            stats_.scrubCorrected += p.count;
        }
        pendingTotal_ -= p.count;
        p = Pending{};
    }
    v.firstBank = cluster * kBanksPerWarpReg;
    v.banks = banksForBytes(ext.bytes);
    return v;
}

} // namespace warpcomp
