/**
 * @file
 * Warp schedulers (Sec. 6.5): greedy-then-oldest (GTO) keeps issuing
 * from the last warp until it stalls, then falls back to the oldest
 * ready warp; loose round-robin (LRR) rotates every cycle.
 */

#ifndef WARPCOMP_SIM_SCHEDULER_HPP
#define WARPCOMP_SIM_SCHEDULER_HPP

#include <algorithm>
#include <bit>
#include <vector>

#include "common/log.hpp"
#include "common/types.hpp"
#include "sim/params.hpp"

namespace warpcomp {

/**
 * One warp scheduler, owning a fixed subset of the SM's warp slots.
 *
 * The scheduler keeps a 64-bit mask of the slots that may be ready,
 * laid out in its own scan order: bit k is the k-th oldest slot under
 * GTO and the k-th owned slot under LRR. The owner clears a slot's bit
 * (block) while the slot is known unissuable for a sticky reason and
 * sets it again (unblock) when that reason can lapse; pick() probes
 * only the set bits, lowest first, so a scan costs one probe per
 * candidate instead of one per owned slot.
 */
class WarpScheduler
{
  public:
    /** Mask width: the most slots one scheduler can own. */
    static constexpr u32 kMaxSlots = 64;

    /**
     * @param policy GTO or LRR
     * @param slots warp slots this scheduler issues from (at most
     *        kMaxSlots, no duplicates); every slot starts unblocked
     */
    WarpScheduler(SchedPolicy policy, std::vector<u32> slots);

    /**
     * Pick the next warp to issue. Templated over the callables so the
     * per-cycle hot path pays no type-erasure indirection. Blocked
     * slots are never probed: the caller guarantees a blocked slot is
     * not ready. @p ready may block the slot it is probing.
     *
     * @param ready predicate: can this slot issue right now?
     * @param age slot -> age stamp (smaller = older), used by GTO
     * @return chosen slot, or -1 when nothing is ready
     */
    template <typename ReadyFn, typename AgeFn>
    i32
    pick(const ReadyFn &ready, const AgeFn &age)
    {
        if (policy_ == SchedPolicy::Gto) {
            // Age stamps only change when a CTA launches onto this SM
            // (invalidateOrder), so the age order — and with it the
            // mask layout — is re-derived lazily.
            if (orderDirty_)
                reorder(age);
            u64 m = mask_;
            // Greedy: stick with the last issuer while it can go.
            if (lastIssued_ >= 0) {
                const u64 bit = bitOf(static_cast<u32>(lastIssued_));
                if ((m & bit) != 0) {
                    if (ready(static_cast<u32>(lastIssued_)))
                        return lastIssued_;
                    m &= ~bit;      // a re-probe gives the same answer
                }
            }
            // Then-oldest: the first ready slot in age order.
            return firstReady(m, ready);
        }

        // LRR: scan from the rotation point, then wrap around.
        const u64 from_cursor = ~u64{0} << rrCursor_;
        const i32 hit = firstReady(mask_ & from_cursor, ready);
        return hit >= 0 ? hit : firstReady(mask_ & ~from_cursor, ready);
    }

    /** Inform the scheduler which slot actually issued; @p slot must
     *  be one this scheduler owns. */
    void
    noteIssued(u32 slot)
    {
        // A slot this scheduler does not own would silently corrupt the
        // rotation state; that is a caller bug, not a recoverable input.
        WC_ASSERT(slot < rank_.size() && rank_[slot] >= 0,
                  "noteIssued for foreign warp slot " << slot);
        lastIssued_ = static_cast<i32>(slot);
        if (policy_ == SchedPolicy::Lrr) {
            const u32 n = static_cast<u32>(slots_.size());
            rrCursor_ = (static_cast<u32>(rank_[slot]) + 1) % n;
        }
    }

    /** Age stamps changed (a warp [re]launched): re-derive the GTO
     *  oldest-first order on the next pick. */
    void invalidateOrder() { orderDirty_ = true; }

    /** @p slot cannot issue until unblock(): pick() skips it. */
    void block(u32 slot) { mask_ &= ~bitOf(slot); }
    /** @p slot may be ready again: pick() probes it. */
    void unblock(u32 slot) { mask_ |= bitOf(slot); }

  private:
    /** Bit of owned @p slot in the may-be-ready mask. */
    u64
    bitOf(u32 slot) const
    {
        return u64{1} << rank_[slot];
    }

    /** First slot of @p m, in scan order, that @p ready accepts. */
    template <typename ReadyFn>
    i32
    firstReady(u64 m, const ReadyFn &ready) const
    {
        for (; m != 0; m &= m - 1) {
            const u32 slot = order_[std::countr_zero(m)];
            if (ready(slot))
                return static_cast<i32>(slot);
        }
        return -1;
    }

    /** GTO: sort the owned slots oldest-first and carry the mask bits
     *  over to the new ranks. */
    template <typename AgeFn>
    void
    reorder(const AgeFn &age)
    {
        // Park the mask in slots_ order while the ranks change.
        u64 by_slot = 0;
        for (u32 i = 0; i < slots_.size(); ++i) {
            if ((mask_ & bitOf(slots_[i])) != 0)
                by_slot |= u64{1} << i;
        }
        order_ = slots_;
        std::sort(order_.begin(), order_.end(),
                  [&age](u32 a, u32 b) { return age(a) < age(b); });
        for (u32 i = 0; i < order_.size(); ++i)
            rank_[order_[i]] = static_cast<i32>(i);
        mask_ = 0;
        for (; by_slot != 0; by_slot &= by_slot - 1)
            mask_ |= bitOf(slots_[std::countr_zero(by_slot)]);
        orderDirty_ = false;
    }

    SchedPolicy policy_;
    std::vector<u32> slots_;
    /** Scan order: slots_ for LRR, slots_ oldest-first for GTO (valid
     *  while !orderDirty_). */
    std::vector<u32> order_;
    /** slot -> position in order_ (its mask bit), -1 for foreign
     *  slots. */
    std::vector<i32> rank_;
    /** Bit k set: order_[k] may be ready (see class comment). */
    u64 mask_ = 0;
    bool orderDirty_ = true;
    i32 lastIssued_ = -1;   ///< GTO greedy candidate
    u32 rrCursor_ = 0;      ///< LRR rotation point (a position in order_)
};

} // namespace warpcomp

#endif // WARPCOMP_SIM_SCHEDULER_HPP
