/**
 * @file
 * Register-file fault injection: a deterministic, seeded map of
 * permanent stuck-at-0/1 bit-cell faults over the SRAM banks, and the
 * tolerance policies the simulator evaluates against it.
 *
 * The fault model follows the RRCD line of work (arXiv:2105.03859) and
 * the low-Vdd motivation of "A GPU Register File using Static Data
 * Compression" (arXiv:2006.05693): each bit-cell independently fails
 * with probability `ber`, and a failed cell is stuck at 0 or 1 with
 * equal probability. Faults are permanent and stateless — reads return
 * whatever the stuck cells force, no matter what was written.
 */

#ifndef WARPCOMP_FAULT_FAULT_HPP
#define WARPCOMP_FAULT_FAULT_HPP

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace warpcomp {

/**
 * How the register file copes with faulty bank entries (Sec. "fault
 * tolerance" of DESIGN.md).
 */
enum class FaultPolicy : u8 {
    /** No mitigation: writes land on stuck cells and silently corrupt
     *  the architectural value (the differential tests must catch the
     *  divergence). */
    None,
    /** Any warp-register stripe containing a faulty cell is removed
     *  from the allocator, trading capacity/occupancy for safety. */
    DisableEntry,
    /** RRCD-style: a register may live in a faulty stripe iff its
     *  BDI-compressed form fits entirely in the leading healthy bytes;
     *  otherwise the write is redirected to a healthy spare entry
     *  through a remap table. */
    CompressRemap
};

/** Policy names (the config spec's `fpolicy` tokens), in enum order. */
inline constexpr const char *kFaultPolicyNames[] = {
    "None", "DisableEntry", "CompressRemap"};

/** kFaultPolicyNames entry of @p policy. */
std::string faultPolicyName(FaultPolicy policy);

/** Fault-injection configuration, wired through SmParams/GpuParams. */
struct FaultParams
{
    /** Per-bit-cell probability of a permanent stuck-at fault. */
    double ber = 0.0;
    FaultPolicy policy = FaultPolicy::None;
    /**
     * Base seed of the fault map. The GPU salts it per SM via
     * faultSeedForSm, so every SM draws an independent deterministic
     * map and reruns are bit-reproducible.
     */
    u64 seed = 0xFA017C0DEull;
    /**
     * Cycle budget under policy None: silent corruption can hit loop
     * counters and livelock a kernel, so a run exceeding this many
     * cycles stops and reports RunResult::hung instead of tripping the
     * deadlock guard. Generous — the whole suite finishes in well
     * under 1M cycles per workload at scale 1. Ignored (the hard
     * guard stays) for the policies that guarantee no corruption.
     */
    Cycle hangCycles = 10'000'000;

    /** True when a fault map must be built at all. */
    bool enabled() const { return ber > 0.0; }
};

/** Fault map seed of SM @p sm_index (salted from the base seed). */
constexpr u64
faultSeedForSm(u64 base, u32 sm_index)
{
    return mixSeed(base, sm_index);
}

/** Fault-tolerance counters of one register file (merged over SMs). */
struct FaultStats
{
    u64 totalRegs = 0;          ///< warp-register stripes in the file
    u64 usableRegs = 0;         ///< stripes usable under the policy
    u64 disabledRegs = 0;       ///< stripes removed (DisableEntry)
    u64 faultyCells = 0;        ///< stuck bit-cells in the map
    u64 toleratedWrites = 0;    ///< compressed writes absorbed by the
                                ///  healthy prefix of a faulty stripe
    u64 remapWrites = 0;        ///< writes redirected to a spare entry
    u64 remapReads = 0;         ///< reads through the remap table
    u64 corruptedWrites = 0;    ///< writes whose stored image changed
                                ///  (policy None only)
    u64 unrecoverableAccesses = 0; ///< memory accesses squashed after
                                   ///  corruption produced a wild
                                   ///  address (policy None only)

    void merge(const FaultStats &other);
};

/**
 * Immutable per-register-file map of stuck-at faults. One instance
 * covers `num_banks x entries` 128-bit bank entries; generation is a
 * pure function of (geometry, ber, seed).
 */
class FaultMap
{
  public:
    /** Smallest BDI encoding (<4,0> = 4 bytes): a stripe whose healthy
     *  prefix is at least this can still host compressed registers. */
    static constexpr u32 kMinCompressedBytes = 4;

    FaultMap(u32 num_banks, u32 entries_per_bank, double ber, u64 seed);

    u32 numBanks() const { return numBanks_; }
    u32 entriesPerBank() const { return entries_; }
    u64 faultyCells() const { return faultyCells_; }

    /**
     * Apply the stuck-at cells under bytes [0, n) of the data stored at
     * row @p entry starting in bank @p first_bank (byte k lives in bank
     * first_bank + k/16). Returns true when any byte changed.
     */
    bool corrupt(u32 first_bank, u32 entry, u8 *bytes, u32 n) const;

    /**
     * Healthy leading bytes of the 8-bank warp-register stripe whose
     * first bank is @p first_bank: the number of bytes before the first
     * faulty cell, kWarpRegBytes when the stripe is fault-free.
     */
    u32 healthyPrefixBytes(u32 first_bank, u32 entry) const;

    /** True when the stripe contains at least one faulty cell. */
    bool
    stripeFaulty(u32 first_bank, u32 entry) const
    {
        return healthyPrefixBytes(first_bank, entry) < kWarpRegBytes;
    }

  private:
    /** Stuck-at mask byte @p byte_in_entry of (bank, entry). */
    u8 maskByte(const std::vector<u64> &masks, u32 bank, u32 entry,
                u32 byte_in_entry) const;

    u32 numBanks_;
    u32 entries_;
    u64 faultyCells_ = 0;
    /** Two u64 words per (bank, entry): 128 bits of stuck-at-0 cells
     *  (bit set: cell reads 0) and stuck-at-1 cells respectively. */
    std::vector<u64> stuck0_;
    std::vector<u64> stuck1_;
    /** Cached healthy prefix per (stripe, entry); values 0..128. */
    std::vector<u8> healthyPrefix_;
};

} // namespace warpcomp

#endif // WARPCOMP_FAULT_FAULT_HPP
