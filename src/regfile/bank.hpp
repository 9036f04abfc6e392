/**
 * @file
 * Structure-of-arrays state for every SRAM register bank of one SM:
 * power gates, access counters, and per-entry valid bits packed as one
 * byte per (cluster, entry) row so the 8 valid bits of a warp-register
 * stripe live contiguously (Table 2 / Sec. 5.3).
 *
 * The SoA layout replaces the old per-Bank object array. What it buys:
 * the per-cycle leakage census is O(1) through an incrementally
 * maintained count of fully-gated banks, stripe teardown probes one
 * packed mask byte instead of eight vector<bool> bits, and the drowsy
 * comparator scans a flat timestamp array.
 */

#ifndef WARPCOMP_REGFILE_BANK_HPP
#define WARPCOMP_REGFILE_BANK_HPP

#include <vector>

#include "common/log.hpp"
#include "common/types.hpp"
#include "regfile/powergate.hpp"

namespace warpcomp {

/** All register banks of one SM, stored structure-of-arrays. */
class BankSet
{
  public:
    /**
     * @param num_banks banks in the file
     * @param entries rows per bank
     * @param wakeup_latency power-gate wakeup cycles
     * @param gating_enabled false for the baseline configuration
     */
    BankSet(u32 num_banks, u32 entries, u32 wakeup_latency,
            bool gating_enabled);

    u32 numBanks() const { return static_cast<u32>(gates_.size()); }
    u32 entries() const { return entries_; }

    bool
    valid(u32 bank, u32 entry) const
    {
        WC_ASSERT(bank < numBanks() && entry < entries_,
                  "bank " << bank << " entry " << entry
                  << " out of range");
        return (validMask_[rowOf(bank, entry)] >>
                (bank % kBanksPerWarpReg)) & 1u;
    }

    /** Packed valid bits of one warp-register stripe: bit b is bank
     *  cluster*8+b. The stripe's 8 bits live in one byte — release and
     *  SEU extent probes read it in one load. */
    u8
    validMask(u32 cluster, u32 entry) const
    {
        WC_ASSERT(cluster * entries_ + entry < validMask_.size(),
                  "stripe (" << cluster << ", " << entry
                  << ") out of range");
        return validMask_[cluster * entries_ + entry];
    }

    u32 validCount(u32 bank) const { return validCount_[bank]; }

    /**
     * Mark one entry valid/invalid. Gates the bank when the last valid
     * entry disappears. Marking an entry valid requires the bank to be
     * powered; the caller wakes it first (see RegisterFile::recordWrite).
     */
    void
    setValid(u32 bank, u32 entry, bool v, Cycle now)
    {
        WC_ASSERT(bank < numBanks() && entry < entries_,
                  "bank " << bank << " entry " << entry << " out of range");
        const u32 row = rowOf(bank, entry);
        const u8 bit = static_cast<u8>(1u << (bank % kBanksPerWarpReg));
        const bool cur = (validMask_[row] & bit) != 0;
        if (cur == v)
            return;
        if (v) {
            WC_ASSERT(!gates_[bank].isOff(now),
                      "marking entry " << entry << " valid in gated bank "
                      << bank << "; wake it first");
            validMask_[row] = static_cast<u8>(validMask_[row] | bit);
            ++validCount_[bank];
        } else {
            WC_ASSERT(validCount_[bank] > 0,
                      "valid-count underflow in bank " << bank);
            validMask_[row] = static_cast<u8>(validMask_[row] & ~bit);
            if (--validCount_[bank] == 0) {
                // Last valid entry gone: gate the bank. sleep() no-ops
                // when gating is disabled or the gate is mid-wakeup, so
                // recheck the state before counting it as off.
                const bool was_off = gates_[bank].isOff(now);
                gates_[bank].sleep(now);
                if (!was_off && gates_[bank].isOff(now))
                    ++offCount_;
            }
        }
    }

    const PowerGate &gate(u32 bank) const { return gates_[bank]; }
    bool isOff(u32 bank, Cycle now) const
    {
        return gates_[bank].isOff(now);
    }

    /**
     * Ensure a bank is powered; returns the first usable cycle. All
     * wake-ups route through here (never the raw PowerGate) so the
     * gated-bank count stays exact.
     */
    Cycle
    wake(u32 bank, Cycle now)
    {
        WC_ASSERT(bank < numBanks(), "bank " << bank << " out of range");
        PowerGate &g = gates_[bank];
        if (g.isOff(now)) {
            WC_ASSERT(offCount_ > 0, "gated-bank count underflow");
            --offCount_;
        }
        return g.wake(now);
    }

    u64 gatedCycles(u32 bank, Cycle now) const
    {
        return gates_[bank].gatedCycles(now);
    }

    /** Access counters (per-bank read/write totals for stats) and the
     *  last-access timestamp driving the drowsy-mode comparator. */
    void
    noteRead(u32 bank, Cycle now)
    {
        ++reads_[bank];
        lastAccess_[bank] = now;
    }

    void
    noteWrite(u32 bank, Cycle now)
    {
        ++writes_[bank];
        lastAccess_[bank] = now;
    }

    u64 reads(u32 bank) const { return reads_[bank]; }
    u64 writes(u32 bank) const { return writes_[bank]; }
    Cycle lastAccess(u32 bank) const { return lastAccess_[bank]; }

    /** Fully-gated banks right now. Gating transitions only happen in
     *  setValid/wake, so this is a plain counter, not a scan. */
    u32 offCount() const { return offCount_; }

    /**
     * Closed-form census over the span [from, to): no gate or
     * access-timestamp transition occurs inside it, so each bank
     * contributes a contiguous active prefix up to its drowsy threshold
     * and drowsy cycles after. Accumulates into @p active / @p drowsy
     * exactly what per-cycle activity() calls would have summed; O(1)
     * without drowsy mode.
     */
    void
    activitySpan(Cycle from, Cycle to, bool drowsy_enabled,
                 u32 drowsy_after, u64 &active, u64 &drowsy) const
    {
        if (!drowsy_enabled) {
            active += (to - from) * (numBanks() - offCount_);
            return;
        }
        drowsySpan(from, to, drowsy_after, active, drowsy);
    }

    /** One cycle's census, the per-cycle reference activitySpan is
     *  tested against. */
    struct Activity
    {
        u32 active = 0;     ///< powered and recently accessed
        u32 drowsy = 0;     ///< powered, idle past the drowsy threshold
    };

    /** Census at @p now: O(1) without drowsy mode, one flat scan with. */
    Activity
    activity(Cycle now, bool drowsy_enabled, u32 drowsy_after) const
    {
        if (!drowsy_enabled)
            return Activity{numBanks() - offCount_, 0};
        return drowsyActivity(now, drowsy_after);
    }

  private:
    /** activitySpan with the drowsy comparator on. */
    void drowsySpan(Cycle from, Cycle to, u32 drowsy_after, u64 &active,
                    u64 &drowsy) const;
    /** activity() with the drowsy comparator on. */
    Activity drowsyActivity(Cycle now, u32 drowsy_after) const;

    u32
    rowOf(u32 bank, u32 entry) const
    {
        return (bank / kBanksPerWarpReg) * entries_ + entry;
    }

    u32 entries_;
    std::vector<PowerGate> gates_;
    std::vector<u64> reads_;
    std::vector<u64> writes_;
    std::vector<Cycle> lastAccess_;
    std::vector<u32> validCount_;
    /** One byte per (cluster, entry) row; bit b = bank cluster*8+b. */
    std::vector<u8> validMask_;
    u32 offCount_ = 0;
};

} // namespace warpcomp

#endif // WARPCOMP_REGFILE_BANK_HPP
