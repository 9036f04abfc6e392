#include "sim/scheduler.hpp"

#include "common/log.hpp"

namespace warpcomp {

WarpScheduler::WarpScheduler(SchedPolicy policy, std::vector<u32> slots)
    : policy_(policy), slots_(std::move(slots))
{
    WC_ASSERT(slots_.size() <= kMaxSlots,
              "scheduler given " << slots_.size() << " warp slots; the "
              "ready mask holds at most " << kMaxSlots);
    u32 max_slot = 0;
    for (u32 s : slots_)
        max_slot = std::max(max_slot, s);
    rank_.assign(slots_.empty() ? 0 : max_slot + 1, -1);
    for (u32 i = 0; i < slots_.size(); ++i) {
        WC_ASSERT(rank_[slots_[i]] < 0,
                  "duplicate warp slot " << slots_[i]
                  << " in scheduler slot list");
        rank_[slots_[i]] = static_cast<i32>(i);
    }
    order_ = slots_;
    mask_ = slots_.size() == kMaxSlots
        ? ~u64{0} : (u64{1} << slots_.size()) - 1;
}

} // namespace warpcomp
