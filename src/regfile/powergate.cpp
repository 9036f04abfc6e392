#include "regfile/powergate.hpp"

#include "common/log.hpp"

namespace warpcomp {

PowerGate::PowerGate(u32 wakeup_latency, bool enabled)
    : wakeupLatency_(wakeup_latency), enabled_(enabled)
{
    // A gating-capable bank holds no valid data at reset, so it starts
    // gated; the first write pays the wakeup. Baseline banks stay on.
    if (enabled_) {
        state_ = State::Off;
        offSince_ = 0;
    }
}

u64
PowerGate::gatedCycles(Cycle now) const
{
    u64 total = accumOff_;
    if (state_ == State::Off && now > offSince_)
        total += now - offSince_;
    return total;
}

} // namespace warpcomp
