/**
 * @file
 * Bank port arbiter: each register bank has one read port and one write
 * port (Table 2). The arbiter hands out per-cycle port grants; requests
 * that lose arbitration retry the next cycle (bank conflicts).
 */

#ifndef WARPCOMP_SIM_ARBITER_HPP
#define WARPCOMP_SIM_ARBITER_HPP

#include "common/log.hpp"
#include "common/types.hpp"

namespace warpcomp {

/** Most banks the arbiter can track: one bit each in a u64 mask. */
inline constexpr u32 kMaxArbiterBanks = 64;

/** Per-cycle read/write port allocation over up to 64 banks. */
class BankArbiter
{
  public:
    explicit BankArbiter(u32 num_banks);

    /** Forget all grants; call at the start of every cycle. */
    void
    newCycle()
    {
        readUsed_ = 0;
        writeUsed_ = 0;
    }

    /** Claim the read port of @p bank; false when already taken. */
    bool
    tryRead(u32 bank)
    {
        WC_ASSERT(bank < numBanks_, "bank " << bank << " out of range");
        const u64 bit = u64{1} << bank;
        if (readUsed_ & bit)
            return false;
        readUsed_ |= bit;
        return true;
    }

    /**
     * Claim the write ports of banks [first, first+count) atomically;
     * false (and no ports claimed) when any is taken.
     */
    bool
    tryWriteRange(u32 first, u32 count)
    {
        WC_ASSERT(first + count <= numBanks_, "write range out of bounds");
        if (count == 0)
            return true;
        const u64 mask =
            (count >= 64 ? ~u64{0} : ((u64{1} << count) - 1)) << first;
        if (writeUsed_ & mask)
            return false;
        writeUsed_ |= mask;
        return true;
    }

    u32 numBanks() const { return numBanks_; }

  private:
    u32 numBanks_;
    u64 readUsed_ = 0;
    u64 writeUsed_ = 0;
};

} // namespace warpcomp

#endif // WARPCOMP_SIM_ARBITER_HPP
