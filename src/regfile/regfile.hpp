/**
 * @file
 * The banked GPU register file (Fig 1 / Table 2): 32 banks organized as
 * 4 clusters of 8, warp registers allocated on the 8 consecutive banks of
 * one cluster at one entry index, with per-register compression state
 * (the 2-bit range indicator of Sec. 4) and bank-level power gating.
 *
 * Bank state lives structure-of-arrays in a BankSet, so the hot paths
 * (census, release probing) are flat array passes. The register file
 * keeps no payload bytes: a register's value lives once, in its Warp,
 * and what the banks hold is a pure function of that value and the
 * per-register indicator (storedImage): its BDI encoding under the
 * SM's scheme when stored compressed, else the raw image. The SM
 * re-derives those bytes where a path needs them (SEU read resolution,
 * the stuck-at write).
 */

#ifndef WARPCOMP_REGFILE_REGFILE_HPP
#define WARPCOMP_REGFILE_REGFILE_HPP

#include <memory>
#include <optional>
#include <vector>

#include "common/log.hpp"
#include "common/types.hpp"
#include "compress/schemes.hpp"
#include "fault/fault.hpp"
#include "fault/seu.hpp"
#include "obs/obs.hpp"
#include "regfile/bank.hpp"

namespace warpcomp {

/** Register file organization and policy parameters. */
struct RegFileParams
{
    u32 numBanks = 32;
    u32 entriesPerBank = 256;
    u32 wakeupLatency = 10;
    /** Power gating only exists in the compressed design. */
    bool gatingEnabled = true;
    /**
     * Baseline behaviour: a register occupies all 8 banks from
     * allocation, removing every gating opportunity (Sec. 6.2).
     */
    bool validAtAlloc = false;
    /**
     * Drowsy-mode comparator (the paper's related work [9], Warped
     * Register File): a bank idle for `drowsyAfterCycles` drops to a
     * state-retentive low-leakage mode. Orthogonal to power gating and
     * composable with compression.
     */
    bool drowsyEnabled = false;
    u32 drowsyAfterCycles = 64;

    u32 numClusters() const { return numBanks / kBanksPerWarpReg; }
    u32 totalWarpRegs() const { return numClusters() * entriesPerBank; }
};

/** Physical location of one warp register. */
struct RegSlot
{
    u32 cluster;
    u32 entry;

    /** Global index of the first bank of the cluster. */
    u32 firstBank() const { return cluster * kBanksPerWarpReg; }
};

/** Bank footprint of one register access. */
struct RegAccess
{
    u32 firstBank = 0;      ///< global id of the first bank touched
    u32 numBanks = 0;       ///< banks accessed (0: register never written)
    u32 entry = 0;          ///< row within each bank
    u32 bytes = 0;          ///< payload bytes moved over the wires
    bool compressed = false;
    /** Access goes through the fault-remap table (CompressRemap). */
    bool remapped = false;
};

/**
 * The register file. Warp slots allocate a contiguous range of warp
 * registers at block launch and release it at block completion; ids
 * interleave across clusters (id % clusters) so consecutive registers
 * spread over banks exactly as the baseline design requires.
 */
class RegisterFile
{
  public:
    /**
     * @param params organization and policy parameters
     * @param faults fault-injection configuration; when enabled, a
     *   deterministic FaultMap is generated from faults.seed and the
     *   configured tolerance policy governs allocation and writes
     * @param seu transient-fault configuration; when enabled, a
     *   deterministic SeuEngine accumulates per-cycle bit flips over
     *   the live bank rows (see fault/seu.hpp)
     */
    explicit RegisterFile(const RegFileParams &params,
                          const FaultParams &faults = {},
                          const SeuParams &seu = {});

    const RegFileParams &params() const { return params_; }

    /**
     * Attach shared observability state (nullptr detaches): bank
     * power-gate transitions are emitted from the release/write paths,
     * where gating decisions actually happen.
     */
    void
    attachObs(ObsRun *obs, u16 sm_id)
    {
        obs_ = obs;
        smId_ = sm_id;
    }

    /** The SEU engine, or nullptr when transient injection is disabled
     *  (the null check is the hot-path fast path). */
    SeuEngine *seu() { return seu_.get(); }
    const SeuEngine *seu() const { return seu_.get(); }

    /** Live stored bytes of one bank row, as the SEU process sees it. */
    struct EntryExtent
    {
        u32 bytes = 0;          ///< 0: nothing stored (flips masked)
        bool compressed = false;
    };

    /**
     * Extent of row (cluster, entry): the stored byte count of the
     * register living there (its compressed encoding, or the full 128
     * bytes; under validAtAlloc an allocated-but-unwritten register
     * already exposes the whole stripe), or 0 when the row holds
     * nothing a flip could touch.
     */
    EntryExtent entryExtent(u32 cluster, u32 entry) const;

    /** The stuck-at fault map, or nullptr when injection is disabled
     *  (the null check is the hot-path fast path). */
    const FaultMap *faultMap() const { return faults_.get(); }
    FaultPolicy faultPolicy() const { return faultPolicy_; }

    /** Fault-tolerance counters (static census + runtime traffic). */
    const FaultStats &faultStats() const { return faultStats_; }

    /** Count one write whose stored image was changed by stuck cells
     *  (policy None; detected by the SM at writeback commit). */
    void noteCorruptedWrite() { ++faultStats_.corruptedWrites; }

    /** Count one operand read served through the remap table. */
    void noteRemapRead() { ++faultStats_.remapReads; }

    /** True when @p num_regs warp registers can still be allocated. */
    bool canAllocate(u32 num_regs) const;

    /**
     * Allocate @p num_regs contiguous warp registers for @p warp_slot.
     * Returns false when capacity or the slot is unavailable.
     */
    bool allocate(u32 warp_slot, u32 num_regs, Cycle now);

    /** Release a slot's registers and invalidate their bank entries. */
    void release(u32 warp_slot, Cycle now);

    /** Physical location of (slot, architectural register). */
    RegSlot locate(u32 warp_slot, u32 reg) const;

    /** True when the register currently holds compressed data. */
    bool
    isCompressed(u32 warp_slot, u32 reg) const
    {
        const RegState &st = regs_[regId(warp_slot, reg)];
        return st.written && st.ind != RangeIndicator::Uncompressed;
    }

    /** True when the register has been written since allocation. */
    bool
    isWritten(u32 warp_slot, u32 reg) const
    {
        return regs_[regId(warp_slot, reg)].written;
    }

    /** Footprint a read of this register touches right now. */
    RegAccess
    readAccess(u32 warp_slot, u32 reg) const
    {
        const u32 id = regId(warp_slot, reg);
        const RegSlot s = slotOf(id);
        const RegState &st = regs_[id];

        RegAccess a;
        a.firstBank = s.firstBank();
        a.entry = s.entry;
        a.numBanks = footprintBanks(id);
        a.compressed = st.written && st.ind != RangeIndicator::Uncompressed;
        a.bytes = st.written ? indicatorBytes(st.ind)
                             : (params_.validAtAlloc ? kWarpRegBytes : 0);
        a.remapped = st.written && st.remapped;
        return a;
    }

    /**
     * Record a write with compression decision @p choice. Updates
     * valid bits, shrinks/grows the footprint, wakes gated banks the
     * write needs, and bumps bank write counters. Returns the cycle the
     * write can complete (now, or later when a wakeup was required) and
     * the resulting access footprint.
     */
    std::pair<Cycle, RegAccess> recordWrite(u32 warp_slot, u32 reg,
                                            const BdiChoice &choice,
                                            Cycle now);

    /** Per-bank access bookkeeping (scrub engine, collector reads). */
    void noteBankRead(u32 bank, Cycle now) { banks_.noteRead(bank, now); }
    void noteBankWrite(u32 bank, Cycle now)
    {
        banks_.noteWrite(bank, now);
    }

    /** Per-bank counters and valid bits (stats and tests). */
    u64 bankReads(u32 bank) const { return banks_.reads(bank); }
    u64 bankWrites(u32 bank) const { return banks_.writes(bank); }
    bool bankValid(u32 bank, u32 entry) const
    {
        return banks_.valid(bank, entry);
    }

    /** Banks currently not fully gated (for leakage integration). */
    u32 awakeBanks() const
    {
        return banks_.numBanks() - banks_.offCount();
    }

    /**
     * Closed-form leakage census over the span [from, to) in which no
     * bank is accessed and no gate changes: adds the fully-on and the
     * drowsy bank-cycles (drowsy stays 0 unless drowsyEnabled). O(1)
     * and inline without the drowsy comparator.
     */
    void
    activitySpan(Cycle from, Cycle to, u64 &active, u64 &drowsy) const
    {
        banks_.activitySpan(from, to, params_.drowsyEnabled,
                            params_.drowsyAfterCycles, active, drowsy);
    }

    /** Cumulative gated cycles of one bank (Fig 10). */
    u64 gatedCycles(u32 bank, Cycle now) const;

    u32 numBanks() const { return banks_.numBanks(); }

    /** Warp registers currently allocated (occupancy accounting). */
    u32 allocatedRegs() const { return allocatedRegs_; }

    /**
     * Count of (currently compressed, currently written) registers.
     * Maintained incrementally; O(1).
     */
    std::pair<u32, u32> compressedCensus() const
    {
        return {compressedCount_, writtenCount_};
    }

  private:
    struct RegState
    {
        RangeIndicator ind = RangeIndicator::Uncompressed;
        bool written = false;
        /** Register currently lives in a spare entry via the remap
         *  table (CompressRemap over a faulty stripe). */
        bool remapped = false;
    };

    struct SlotAlloc
    {
        u32 base = 0;
        u32 count = 0;
        bool active = false;
        /** Explicit id list, used only under DisableEntry where the
         *  healthy ids no longer form contiguous ranges. */
        std::vector<u32> ids;
    };

    u32
    regId(u32 warp_slot, u32 reg) const
    {
        WC_ASSERT(warp_slot < slots_.size() && slots_[warp_slot].active,
                  "access to inactive warp slot " << warp_slot);
        const SlotAlloc &slot = slots_[warp_slot];
        WC_ASSERT(reg < slot.count, "register r" << reg
                  << " beyond slot allocation of " << slot.count);
        return idAlloc_ ? slot.ids[reg] : slot.base + reg;
    }

    RegSlot
    slotOf(u32 id) const
    {
        const u32 clusters = params_.numClusters();
        return RegSlot{id % clusters, id / clusters};
    }

    u32
    footprintBanks(u32 id) const
    {
        const RegState &st = regs_[id];
        if (st.written)
            return indicatorBanks(st.ind);
        return params_.validAtAlloc ? kBanksPerWarpReg : 0;
    }
    void releaseId(u32 id, Cycle now);

    RegFileParams params_;
    BankSet banks_;
    std::vector<RegState> regs_;
    std::vector<SlotAlloc> slots_;
    /** Free-range list over warp-register ids, kept sorted/coalesced. */
    std::vector<std::pair<u32, u32>> freeRanges_; // (base, count)
    /**
     * DisableEntry allocation mode: faulty stripes punch holes into the
     * id space, so slots draw from this sorted free-id list instead of
     * contiguous ranges. Empty (and unused) in every other mode, which
     * keeps the historical contiguous first-fit behaviour bit-exact.
     */
    bool idAlloc_ = false;
    std::vector<u32> freeIds_;
    std::unique_ptr<FaultMap> faults_;
    std::unique_ptr<SeuEngine> seu_;
    FaultPolicy faultPolicy_ = FaultPolicy::None;
    FaultStats faultStats_;
    u32 allocatedRegs_ = 0;
    u32 compressedCount_ = 0;
    u32 writtenCount_ = 0;
    /** Shared observability sink; nullptr = disabled (zero cost). */
    ObsRun *obs_ = nullptr;
    u16 smId_ = 0;
};

} // namespace warpcomp

#endif // WARPCOMP_REGFILE_REGFILE_HPP
