/**
 * @file
 * Per-bank power-gating state machine (Sec. 5.3): ON -> OFF when a bank
 * holds no valid data, OFF -> WAKING(wakeup latency) -> ON when a write
 * needs the bank. Tracks cumulative gated cycles for Fig 10.
 */

#ifndef WARPCOMP_REGFILE_POWERGATE_HPP
#define WARPCOMP_REGFILE_POWERGATE_HPP

#include "common/log.hpp"
#include "common/types.hpp"

namespace warpcomp {

/** Power state of one register bank. */
class PowerGate
{
  public:
    enum class State : u8 { On, Off, Waking };

    /**
     * @param wakeup_latency cycles from wake request to usability
     * @param enabled when false the bank never gates (baseline)
     */
    PowerGate(u32 wakeup_latency, bool enabled);

    /** Current state, resolving an elapsed wakeup to On. */
    State
    state(Cycle now) const
    {
        if (state_ == State::Waking && now >= wakeReady_)
            return State::On;
        return state_;
    }

    /** True when the bank is fully gated at @p now. */
    bool isOff(Cycle now) const { return state(now) == State::Off; }

    /** Gate the bank; no-op when disabled or already off/waking. */
    void
    sleep(Cycle now)
    {
        if (!enabled_)
            return;
        if (state(now) != State::On)
            return;
        state_ = State::Off;
        offSince_ = now;
    }

    /**
     * Ensure the bank is powered; returns the first cycle it is usable
     * (now when already on, now + wakeup latency when it was off).
     */
    Cycle
    wake(Cycle now)
    {
        switch (state(now)) {
          case State::On:
            state_ = State::On;
            return now;
          case State::Waking:
            // A wake is already in flight; latch onto it.
            return wakeReady_;
          case State::Off:
            WC_ASSERT(now >= offSince_,
                      "time went backwards in power gate");
            accumOff_ += now - offSince_;
            state_ = State::Waking;
            wakeReady_ = now + wakeupLatency_;
            return wakeReady_;
          default:
            WC_PANIC("unreachable power gate state");
        }
    }

    /** Cumulative fully-gated cycles up to @p now. */
    u64 gatedCycles(Cycle now) const;

    u32 wakeupLatency() const { return wakeupLatency_; }

  private:
    u32 wakeupLatency_;
    bool enabled_;
    State state_ = State::On;
    Cycle offSince_ = 0;
    Cycle wakeReady_ = 0;
    u64 accumOff_ = 0;
};

} // namespace warpcomp

#endif // WARPCOMP_REGFILE_POWERGATE_HPP
