/**
 * @file
 * Transient soft-error (SEU) injection for the register banks: a
 * deterministic per-cycle bit-flip process over the live bytes of
 * allocated bank entries, plus the protection schemes evaluated
 * against it (SEC-DED ECC, background scrubbing, or nothing).
 *
 * Complements the permanent stuck-at model in fault.hpp: stuck cells
 * are a static property of the array, SEUs are events in time. Both
 * can be active at once. Determinism contract: the flip stream is a
 * pure function of (salted seed, cycle), never of host state, so runs
 * are byte-identical across thread counts and repetitions.
 */

#ifndef WARPCOMP_FAULT_SEU_HPP
#define WARPCOMP_FAULT_SEU_HPP

#include <array>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace warpcomp {

class RegisterFile;

/** Protection scheme evaluated against the SEU process. */
enum class SeuScheme : u8 {
    /** Flips reach architectural state at the next read of the entry
     *  (silent data corruption; containment and the hang budget from
     *  the stuck-at subsystem apply). */
    Unprotected,
    /** SEC-DED per 128-byte row: single-bit flips are corrected on
     *  read, double-bit accumulation is detected (counted, data lost
     *  upstream) but never silently corrupts. */
    Ecc,
    /** A background engine walks valid entries at a fixed period and
     *  rewrites them, flushing accumulated flips before they are read.
     *  Idealized: the scrubber restores from a protected upstream
     *  copy, so a scrubbed entry is clean even without ECC. */
    Scrub,
    /** SEC-DED plus scrubbing: scrub-before-accumulation vs double-bit
     *  loss becomes measurable against the scrub period. */
    EccScrub
};

/** Scheme names (the config spec's `seuscheme` tokens), in enum
 *  order. */
inline constexpr const char *kSeuSchemeNames[] = {
    "Unprotected", "Ecc", "Scrub", "EccScrub"};

/** kSeuSchemeNames entry of @p scheme. */
std::string seuSchemeName(SeuScheme scheme);

/** SEU configuration, wired through SmParams/ExperimentConfig. */
struct SeuParams
{
    /** Expected bit flips per SM per cycle over the whole bank array
     *  (a Bernoulli-rounded Poisson intensity; 0 disables the layer
     *  entirely and is bit-identical to a build without it). */
    double flipsPerCycle = 0.0;
    SeuScheme scheme = SeuScheme::Unprotected;
    /**
     * Base seed of the flip stream. The GPU salts it per SM via
     * seuSeedForSm, so every SM draws an independent deterministic
     * stream and reruns are bit-reproducible.
     */
    u64 seed = 0x5E00C0DEull;
    /** Cycles between scrub-engine visits; each visit rewrites one
     *  bank-row stripe (Scrub/EccScrub only). */
    Cycle scrubInterval = 64;

    bool enabled() const { return flipsPerCycle > 0.0; }

    bool
    eccEnabled() const
    {
        return scheme == SeuScheme::Ecc || scheme == SeuScheme::EccScrub;
    }

    bool
    scrubEnabled() const
    {
        return scheme == SeuScheme::Scrub ||
            scheme == SeuScheme::EccScrub;
    }

    /** True when a flip can silently reach architectural state (the
     *  corruption-containment / hang-budget machinery must arm). */
    bool canCorrupt() const { return !eccEnabled(); }
};

/** Flip-stream seed of SM @p sm_index (salted from the base seed). */
constexpr u64
seuSeedForSm(u64 base, u32 sm_index)
{
    return mixSeed(base, sm_index);
}

/** SEU counters of one register file (merged over SMs). */
struct SeuStats
{
    u64 flips = 0;              ///< raw upset events drawn
    u64 liveHits = 0;           ///< flips landing on live stored bytes
    u64 maskedFlips = 0;        ///< flips landing on dead/invalid cells
    u64 hitsCompressed = 0;     ///< live hits inside a compressed row
    u64 corruptedReads = 0;     ///< reads that consumed flips with no
                                ///  protection and changed the value
    u64 corruptedLanes = 0;     ///< lanes whose architectural value
                                ///  changed across corrupted reads
    u64 amplifiedReads = 0;     ///< corrupted reads of compressed rows
                                ///  (decompression spreads the damage)
    u64 eccCorrectedReads = 0;  ///< single-bit corrections at read
    u64 detectedUncorrectable = 0; ///< SEC-DED multi-bit detections
                                   ///  (read or scrub; data lost but
                                   ///  never silent)
    u64 scrubVisits = 0;        ///< scrub-engine row visits
    u64 scrubWrites = 0;        ///< live rows rewritten by the scrubber
    u64 scrubCorrected = 0;     ///< pending flips flushed by scrubbing
    u64 eccCheckBitBytes = 0;   ///< modeled check-bit storage (census)

    void merge(const SeuStats &other);
};

/**
 * The per-SM SEU engine, owned by the RegisterFile. Flips accumulate
 * as pending events per bank-row stripe and resolve lazily: a read
 * consumes them (correcting, detecting, or corrupting per scheme), a
 * write or release discards them (the row is replaced wholesale), and
 * the scrub engine flushes them on its period.
 *
 * Everything is preallocated at construction; sampleCycle/resolveRead/
 * scrubTick perform no heap allocation (alloc-guard tested).
 */
class SeuEngine
{
  public:
    /** Flip positions tracked exactly per row; further flips on the
     *  same row still count (for ECC multi-bit detection) but only
     *  these many are applied bit-precisely on corruption. */
    static constexpr u32 kMaxTrackedFlips = 8;
    /** SEC-DED over one 1024-bit row: 11 syndrome bits + overall
     *  parity, stored as modeled capacity overhead. */
    static constexpr u32 kCheckBitsPerEntry = 12;

    /** Outcome of consuming a row's pending flips at a read. */
    struct ReadResolution
    {
        u32 flips = 0;      ///< pending flips consumed
        u32 tracked = 0;    ///< valid entries in pos[]
        /** Caller must XOR these into the stored image and commit the
         *  damage architecturally. False under ECC (corrected or
         *  detected upstream). */
        bool corrupt = false;
        /** Bit positions (byte*8 + bit) within the stored row image. */
        std::array<u16, kMaxTrackedFlips> pos{};
    };

    /** One scrub-engine visit; banks == 0 when no live row was
     *  rewritten this tick. */
    struct ScrubVisit
    {
        u32 firstBank = 0;
        u32 banks = 0;
    };

    SeuEngine(const RegisterFile &rf, const SeuParams &params);

    const SeuParams &params() const { return params_; }
    const SeuStats &stats() const { return stats_; }

    /** Fast path for the per-read hook: any flips outstanding at all? */
    bool hasPending() const { return pendingTotal_ != 0; }

    /** Draw this cycle's flips and record the live ones as pending.
     *  Pure function of (seed, now) — call exactly once per cycle. */
    void sampleCycle(Cycle now);

    /** Consume the pending flips of (warp_slot, reg), applying the
     *  configured scheme's read-side semantics. */
    ReadResolution resolveRead(u32 warp_slot, u32 reg);

    /** Account a corrupted read the caller committed to architectural
     *  state: @p lanes_changed lanes differ, @p stored_compressed when
     *  the damage went through decompression (amplification). */
    void noteCorruption(u32 lanes_changed, bool stored_compressed);

    /** Discard pending flips of a row: its content was replaced by a
     *  write or the register was released. */
    void clearEntry(u32 cluster, u32 entry);

    /** Advance the scrub engine at @p now; at the configured period it
     *  visits one row and, when live, rewrites it (the caller charges
     *  the returned bank traffic). */
    ScrubVisit scrubTick(Cycle now);

  private:
    struct Pending
    {
        std::array<u16, kMaxTrackedFlips> pos{};
        u32 count = 0;
    };

    u32 rowIndex(u32 cluster, u32 entry) const
    {
        return cluster * entries_ + entry;
    }

    const RegisterFile &rf_;
    SeuParams params_;
    u64 seed_;
    u32 entries_;       ///< rows per bank
    u32 clusters_;      ///< 8-bank stripes in the file
    u32 numRows_;       ///< clusters_ * entries_
    u64 totalBits_;     ///< numRows_ * 1024 target bits
    double rate_;
    u32 scrubCursor_ = 0;
    u64 pendingTotal_ = 0;
    std::vector<Pending> pending_;
    SeuStats stats_;
};

} // namespace warpcomp

#endif // WARPCOMP_FAULT_SEU_HPP
