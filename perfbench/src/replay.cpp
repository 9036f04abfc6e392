#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "common/log.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/** Gpu::run's deadlock guard. */
constexpr Cycle kMaxCycles = 200'000'000;

double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

} // namespace

void
SimLayer::merge(const SimLayer &o)
{
    fullN += o.fullN;
    fullIdleN += o.fullIdleN;
    lightN += o.lightN;
    launchFailed += o.launchFailed;
    skipSmCycles += o.skipSmCycles;
    fullS += o.fullS;
    lightS += o.lightS;
    launchS += o.launchS;
    skipS += o.skipS;
    loopS += o.loopS;
}

RunResult
replayRun(const GpuParams &params, GlobalMemory &gmem, ConstantMemory &cmem,
          const Kernel &kernel, const LaunchDims &dims, bool collect_bdi,
          SimLayer &layer)
{
    WC_ASSERT(!params.sm.faults.enabled() && !params.sm.seu.enabled(),
              "the replay does not model fault or SEU injection");
    kernel.validate();
    WC_ASSERT(dims.gridDim >= 1, "empty grid");

    std::vector<std::unique_ptr<Sm>> sms;
    sms.reserve(params.numSms);
    for (u32 i = 0; i < params.numSms; ++i)
        sms.push_back(std::make_unique<Sm>(params.sm, params.energy, gmem,
                                           cmem, kernel, dims,
                                           collect_bdi));
    std::shared_ptr<ObsRun> obs;
    if (params.obs.enabled()) {
        obs = std::make_shared<ObsRun>(params.obs);
        for (u32 i = 0; i < sms.size(); ++i)
            sms[i]->attachObs(obs.get(), static_cast<u16>(i));
    }

    SimLayer l;
    const Clock::time_point loop_start = Clock::now();
    u32 next_cta = 0;
    Cycle now = 0;
    u32 stalled_cycles = 0;
    bool unschedulable = false;
    while (true) {
        // Timestamps are chained within each sweep over the SMs: one
        // clock read per call, each interval running from the end of
        // the previous call, so the clock's own cost stays inside the
        // timed calls instead of between them.
        bool launched = false;
        Clock::time_point mark = Clock::now();
        for (auto &sm : sms) {
            if (next_cta >= dims.gridDim)
                break;
            const bool ok = sm->tryLaunchCta(next_cta, now);
            const Clock::time_point t = Clock::now();
            l.launchS += seconds(mark, t);
            mark = t;
            if (ok) {
                ++next_cta;
                launched = true;
            } else {
                ++l.launchFailed;
            }
        }

        bool sm_busy = false;
        bool cta_completed = false;
        mark = Clock::now();
        for (auto &sm : sms) {
            const bool light = now < sm->cachedNextEvent();
            const u64 done_before = sm->ctasCompleted();
            const u64 issued_before = sm->stats().issued;
            sm->cycle(now);
            sm_busy = sm->busy() || sm_busy;
            cta_completed =
                sm->ctasCompleted() != done_before || cta_completed;
            const Clock::time_point t = Clock::now();
            if (light) {
                l.lightS += seconds(mark, t);
                ++l.lightN;
            } else {
                l.fullS += seconds(mark, t);
                ++l.fullN;
                if (sm->stats().issued == issued_before)
                    ++l.fullIdleN;
            }
            mark = t;
        }
        ++now;
        if (next_cta >= dims.gridDim && !sm_busy)
            break;
        if (!sm_busy && !launched) {
            if (++stalled_cycles >= 2) {
                unschedulable = true;
                break;
            }
        } else {
            stalled_cycles = 0;
        }
        if (params.skipIdleCycles && sm_busy &&
            (next_cta >= dims.gridDim || (!launched && !cta_completed))) {
            const Clock::time_point t0 = Clock::now();
            Cycle ev = Sm::kNoEvent;
            for (auto &sm : sms)
                ev = std::min(ev, sm->cachedNextEvent());
            WC_ASSERT(ev != Sm::kNoEvent, "busy GPU reported no future event");
            if (ev > now) {
                WC_ASSERT(ev < kMaxCycles, "next event beyond the deadlock "
                          "guard in kernel " << kernel.name());
                for (auto &sm : sms)
                    sm->skipCycles(now, ev);
                l.skipSmCycles += (ev - now) * sms.size();
                now = ev;
            }
            l.skipS += seconds(t0, Clock::now());
        }
        WC_ASSERT(now < kMaxCycles, "simulation exceeded " << kMaxCycles
                  << " cycles in kernel " << kernel.name());
    }
    l.loopS = seconds(loop_start, Clock::now());
    layer.merge(l);

    RunResult result(params.energy);
    result.cycles = now;
    result.unschedulable = unschedulable;
    result.obs = std::move(obs);
    const u32 num_banks = params.sm.regfile.numBanks;
    result.bankGatedFraction.assign(num_banks, 0.0);
    for (auto &sm : sms) {
        result.meter.merge(sm->meter());
        result.stats.merge(sm->stats());
        result.ctas += sm->ctasCompleted();
        result.rfcHits += sm->rfc().hits();
        result.rfcMisses += sm->rfc().misses();
        result.fault.merge(sm->regfile().faultStats());
        result.fault.unrecoverableAccesses += sm->unrecoverableAccesses();
        for (u32 b = 0; b < num_banks; ++b) {
            result.bankGatedFraction[b] +=
                static_cast<double>(sm->regfile().gatedCycles(b, now)) /
                static_cast<double>(now);
        }
    }
    for (u32 b = 0; b < num_banks; ++b)
        result.bankGatedFraction[b] /= static_cast<double>(sms.size());
    return result;
}

} // namespace perfbench
