/**
 * @file
 * BankSet implementation: construction and the drowsy-mode and
 * closed-form leakage census. The per-write valid-bit and wake paths
 * are inline in the header.
 */

#include "regfile/bank.hpp"

#include <algorithm>

#include "common/bitops.hpp"

namespace warpcomp {

BankSet::BankSet(u32 num_banks, u32 entries, u32 wakeup_latency,
                 bool gating_enabled)
    : entries_(entries)
{
    WC_ASSERT(num_banks > 0 && entries > 0, "degenerate bank geometry");
    gates_.reserve(num_banks);
    for (u32 b = 0; b < num_banks; ++b)
        gates_.emplace_back(wakeup_latency, gating_enabled);
    reads_.assign(num_banks, 0);
    writes_.assign(num_banks, 0);
    lastAccess_.assign(num_banks, 0);
    validCount_.assign(num_banks, 0);
    const u32 clusters = ceilDiv(num_banks, kBanksPerWarpReg);
    validMask_.assign(static_cast<size_t>(clusters) * entries, 0);
    // An enabled PowerGate constructs in the Off state, so every bank
    // starts gated; without gating nothing is ever off.
    offCount_ = gating_enabled ? num_banks : 0;
}

BankSet::Activity
BankSet::drowsyActivity(Cycle now, u32 drowsy_after) const
{
    Activity act;
    const u32 n = numBanks();
    for (u32 b = 0; b < n; ++b) {
        if (gates_[b].isOff(now))
            continue;
        if (now > lastAccess_[b] + drowsy_after)
            ++act.drowsy;
        else
            ++act.active;
    }
    return act;
}

void
BankSet::drowsySpan(Cycle from, Cycle to, u32 drowsy_after, u64 &active,
                    u64 &drowsy) const
{
    WC_ASSERT(to >= from, "inverted census span");
    const u64 span = to - from;
    const u32 n = numBanks();
    for (u32 b = 0; b < n; ++b) {
        if (gates_[b].isOff(from))
            continue;
        // A powered bank is active while now <= lastAccess + after and
        // drowsy from active_end on; lastAccess is frozen across the
        // span, so the split is a single clamp.
        const Cycle active_end = lastAccess_[b] + drowsy_after + 1;
        u64 a = 0;
        if (active_end > from)
            a = std::min<u64>(to, active_end) - from;
        active += a;
        drowsy += span - a;
    }
}

} // namespace warpcomp
