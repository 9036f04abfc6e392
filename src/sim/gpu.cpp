#include "sim/gpu.hpp"

#include <algorithm>
#include <atomic>
#include <memory>

#include "common/host_threads.hpp"
#include "common/log.hpp"
#include "sim/sm_crew.hpp"

namespace warpcomp {

namespace {

/** Hard deadlock guard: no workload in the suite runs this long. */
constexpr Cycle kMaxCycles = 200'000'000;
static_assert(kMaxCycles < (Cycle{1} << 32),
              "store stamps and detector marks hold 32-bit cycles");

/** One SM's store buffer on its own cache line: buffers of SMs that
 *  step on different host threads never false-share. */
struct alignas(64) PaddedStores
{
    explicit PaddedStores(std::size_t capacity) : buffer(capacity) {}
    GlobalStoreBuffer buffer;
};

/** What stepping one SM group through one cycle left for the stepping
 *  thread, on its own cache line. nextEvent is the minimum of the
 *  group's Sm::cachedNextEvent(); 0 before the first cycle. */
struct alignas(64) GroupStep
{
    Cycle nextEvent = 0;
    bool busy = false;          ///< some SM of the group is busy
    bool completed = false;     ///< some SM completed a CTA
    bool stored = false;        ///< some SM buffered a global store
};

/** Where one SM's run-ahead stopped, on its own cache line. */
struct alignas(64) SmEnd
{
    Cycle at = 0;
    bool busy = false;      ///< stopped busy, at the hang budget
};

/**
 * Step @p sm from cycle @p now to @p to, or, with @p until_idle, only
 * until it is no longer busy, and return the cycle it stopped at. With
 * @p skip, the SM bulk-accounts its own idle spans (skipCycles), as
 * lockstep skipping does for all SMs at once. Before each stepped
 * cycle, @p stores regains room for one cycle's stores (@p headroom),
 * so Sm::cycle never grows it. Stops early once @p detector flags a
 * conflict.
 */
Cycle
advance(Sm &sm, Cycle now, Cycle to, bool until_idle, bool skip,
        GlobalStoreBuffer &stores, u32 headroom,
        const GlobalConflictDetector &detector)
{
    while (now < to && (!until_idle || sm.busy())) {
        if (skip) {
            const Cycle ev = sm.cachedNextEvent();
            WC_ASSERT(!sm.busy() || ev != Sm::kNoEvent,
                      "busy SM reported no future event");
            if (ev > now) {
                const Cycle next = std::min(ev, to);
                sm.skipCycles(now, next);
                now = next;
                continue;
            }
        }
        stores.reserveHeadroom(headroom);
        sm.cycle(now);
        ++now;
        if (detector.conflict())
            break;
    }
    return now;
}

/**
 * Write every SM's run-ahead store log to @p gmem in (cycle, SM,
 * issue) order, the order lockstep commits in, and empty the logs.
 * Each log is already in cycle order.
 */
void
commitInCycleOrder(std::vector<PaddedStores> &stores, GlobalMemory &gmem)
{
    const std::size_t n = stores.size();
    std::vector<std::size_t> pos(n, 0);
    while (true) {
        // The SM whose next store has the lowest cycle; the lowest SM
        // index wins a tie.
        std::size_t sm = n;
        u32 cycle = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const auto log = stores[i].buffer.stores();
            if (pos[i] < log.size() &&
                (sm == n || log[pos[i]].cycle < cycle)) {
                sm = i;
                cycle = log[pos[i]].cycle;
            }
        }
        if (sm == n)
            break;
        const auto log = stores[sm].buffer.stores();
        for (std::size_t &p = pos[sm];
             p < log.size() && log[p].cycle == cycle; ++p)
            gmem.write32(log[p].addr, log[p].value);
    }
    for (PaddedStores &s : stores)
        s.buffer.clear();
}

} // namespace

Gpu::Gpu(const GpuParams &params, GlobalMemory &gmem, ConstantMemory &cmem)
    : params_(params), gmem_(gmem), cmem_(cmem)
{
    WC_ASSERT(params_.numSms >= 1, "GPU needs at least one SM");
}

RunResult
Gpu::run(const Kernel &kernel, const LaunchDims &dims,
         bool collect_bdi_breakdown)
{
    kernel.validate();
    WC_ASSERT(dims.gridDim >= 1, "empty grid");

    // An observed run steps in lockstep throughout (see launch).
    SteppingCensus census;
    std::optional<RunResult> result =
        launch(kernel, dims, collect_bdi_breakdown,
               params_.runAhead && !params_.obs.enabled(), census);
    if (!result) {
        ++census.fallbacks;
        result = launch(kernel, dims, collect_bdi_breakdown, false,
                        census);
    }
    result->stepping = census;
    return std::move(*result);
}

std::optional<RunResult>
Gpu::launch(const Kernel &kernel, const LaunchDims &dims,
            bool collect_bdi_breakdown, bool run_ahead,
            SteppingCensus &census)
{
    const u32 num_sms = params_.numSms;
    std::vector<std::unique_ptr<Sm>> sms;
    sms.reserve(num_sms);
    // Each SM's global stores wait in its buffer until the cycle ends,
    // then commit in SM order: every SM of a cycle reads memory as it
    // was before that cycle, whichever host thread stepped it. While
    // SMs run ahead, the buffers are their store logs.
    const u32 headroom = params_.sm.numSchedulers * kWarpSize;
    std::vector<PaddedStores> stores;
    stores.reserve(num_sms);
    for (u32 i = 0; i < num_sms; ++i) {
        // Each SM draws an independent deterministic stuck-at map:
        // salt the fault seed by SM index (a pure function, so reruns
        // and the parallel harness stay bit-reproducible).
        SmParams smp = params_.sm;
        if (smp.faults.enabled())
            smp.faults.seed = faultSeedForSm(params_.sm.faults.seed, i);
        // Same salting for the transient flip stream.
        if (smp.seu.enabled())
            smp.seu.seed = seuSeedForSm(params_.sm.seu.seed, i);
        sms.push_back(std::make_unique<Sm>(
            smp, params_.energy, gmem_, cmem_, kernel, dims,
            collect_bdi_breakdown));
        stores.emplace_back(headroom);
        sms[i]->armStoreBuffer(&stores[i].buffer);
    }

    // One shared observability sink for the whole run; events must
    // arrive in deterministic (cycle, SM) order, so an observed run
    // steps its SMs on one host thread, in lockstep throughout.
    std::shared_ptr<ObsRun> obs;
    if (params_.obs.enabled()) {
        obs = std::make_shared<ObsRun>(params_.obs);
        for (u32 i = 0; i < sms.size(); ++i)
            sms[i]->attachObs(obs.get(), static_cast<u16>(i));
    }

    const u32 groups = obs != nullptr ? 1 : std::min({
        resolveThreadCount(params_.hostThreads), num_sms, dims.gridDim});
    std::vector<GroupStep> steps(groups);

    // A failed launch stays failed until the SM completes a CTA (see
    // Sm::tryLaunchCta), so a closed SM is not asked again until its
    // group reports a completion: the stepping thread then does not
    // read SM state that another thread stepped.
    std::vector<u8> launch_open(num_sms, 1);
    u32 next_cta = 0;
    Cycle now = 0;
    Cycle skip_to = 0;
    // Step one group (the SMs i % groups == g) through cycle `now`.
    auto step_group = [&](u32 g) {
        GroupStep s;
        s.nextEvent = Sm::kNoEvent;
        for (u32 i = g; i < num_sms; i += groups) {
            Sm &sm = *sms[i];
            const u64 done_before = sm.ctasCompleted();
            sm.cycle(now);
            s.busy = s.busy || sm.busy();
            s.completed = s.completed || sm.ctasCompleted() != done_before;
            s.stored = s.stored || !stores[i].buffer.empty();
            s.nextEvent = std::min(s.nextEvent, sm.cachedNextEvent());
        }
        steps[g] = s;
    };
    // Bulk-account [now, skip_to) on one group.
    auto skip_group = [&](u32 g) {
        for (u32 i = g; i < num_sms; i += groups)
            sms[i]->skipCycles(now, skip_to);
    };
    // Declared last: its workers are joined before the state they step
    // is destroyed.
    SmCrew crew(groups);

    // The lockstep commits that precede a run-ahead, as (address, old
    // value): a conflict rolls them back instead of copying the image.
    GlobalStoreBuffer undo(0);
    GlobalStoreBuffer *const undo_log = run_ahead ? &undo : nullptr;

    u32 stalled_cycles = 0;
    bool unschedulable = false;
    bool hung = false;
    bool ahead = false;
    // Uncontained corruption — stuck-at policy None, or an SEU scheme
    // without ECC — can livelock a kernel; cap such runs at the
    // configured budget instead of the hard guard.
    const bool silent_corruption =
        (params_.sm.faults.enabled() &&
         params_.sm.faults.policy == FaultPolicy::None) ||
        (params_.sm.seu.enabled() && params_.sm.seu.canCorrupt());
    const Cycle hang_budget =
        silent_corruption ? params_.sm.faults.hangCycles : 0;
    while (true) {
        // Every CTA is resident: the SMs now share nothing but global
        // memory, so each may run ahead to its end.
        if (run_ahead && next_cta >= dims.gridDim) {
            ahead = true;
            break;
        }
        // Each SM may accept one new CTA per cycle. The launch carries
        // the current cycle: register allocation timestamps valid bits
        // and power-gate wakeups, and later waves launch at now > 0.
        // A launch resets the SM's next event to 0, and so its group's.
        bool launched = false;
        for (u32 i = 0; i < num_sms && next_cta < dims.gridDim; ++i) {
            if (!launch_open[i])
                continue;
            if (sms[i]->tryLaunchCta(next_cta, now)) {
                ++next_cta;
                launched = true;
                steps[i % groups].nextEvent = 0;
            } else {
                launch_open[i] = 0;
            }
        }

        // The crew pays for itself only when at least two groups take
        // the full path this cycle; otherwise the stepping thread
        // steps every group.
        u32 eventful = 0;
        for (const GroupStep &s : steps)
            eventful += s.nextEvent <= now ? 1 : 0;
        crew.run(step_group, eventful >= 2);

        bool sm_busy = false;
        bool cta_completed = false;
        bool stored = false;
        Cycle ev = Sm::kNoEvent;
        for (u32 g = 0; g < groups; ++g) {
            const GroupStep &s = steps[g];
            sm_busy = sm_busy || s.busy;
            cta_completed = cta_completed || s.completed;
            stored = stored || s.stored;
            ev = std::min(ev, s.nextEvent);
            if (s.completed) {
                for (u32 i = g; i < num_sms; i += groups)
                    launch_open[i] = 1;
            }
        }
        if (stored) {
            for (u32 i = 0; i < num_sms; ++i) {
                if (steps[i % groups].stored)
                    stores[i].buffer.commit(gmem_, undo_log);
            }
        }
        ++now;
        if (next_cta >= dims.gridDim && !sm_busy)
            break;
        if (hang_budget != 0 && now >= hang_budget) {
            hung = true;
            break;
        }
        // CTAs pending, every SM idle, and no launch succeeded: the
        // machine state is frozen, so the next CTA can never become
        // resident (fault policies can shrink capacity below one CTA).
        if (!sm_busy && !launched) {
            if (++stalled_cycles >= 2) {
                unschedulable = true;
                break;
            }
        } else {
            stalled_cycles = 0;
        }
        // Event-driven idle skipping: when every SM is provably
        // uneventful until some future cycle (all warps stalled on
        // memory, power-gate wakes, or barriers), jump straight there,
        // bulk-accounting the gap. Launch attempts gate the skip: with
        // CTAs still pending, a launch this cycle or a completion last
        // cycle could make the next launch attempt succeed, so those
        // boundaries step normally.
        if (params_.skipIdleCycles && sm_busy &&
            (next_cta >= dims.gridDim ||
             (!launched && !cta_completed))) {
            WC_ASSERT(ev != Sm::kNoEvent,
                      "busy GPU reported no future event");
            if (ev > now) {
                WC_ASSERT(ev < kMaxCycles,
                          "next event beyond the deadlock guard in "
                          "kernel " << kernel.name());
                skip_to = ev;
                bool to_budget = false;
                if (hang_budget != 0 && skip_to >= hang_budget) {
                    skip_to = hang_budget;
                    to_budget = true;
                }
                crew.run(skip_group, groups >= 2);
                now = skip_to;
                if (to_budget) {
                    hung = true;
                    break;
                }
            }
        }
        WC_ASSERT(now < kMaxCycles,
                  "simulation exceeded " << kMaxCycles
                  << " cycles; likely a deadlock in kernel "
                  << kernel.name());
    }

    if (ahead) {
        census.runAheadFrom = now;
        // No budget means the deadlock guard; a budget past the guard
        // hits the guard first, as in lockstep.
        const Cycle limit = hang_budget != 0
            ? std::min(hang_budget, kMaxCycles) : kMaxCycles;
        const bool skip = params_.skipIdleCycles;
        GlobalConflictDetector detector(gmem_.size());
        for (auto &sm : sms)
            sm->armDetector(&detector);
        // Every crew thread pulls SMs and runs each to its end.
        std::vector<SmEnd> ends(num_sms);
        std::atomic<u32> next_sm{0};
        auto pull = [&] {
            return next_sm.fetch_add(1, std::memory_order_relaxed);
        };
        auto run_to_end = [&](u32) {
            for (u32 i = pull(); i < num_sms; i = pull()) {
                if (detector.conflict())
                    return;
                Sm &sm = *sms[i];
                ends[i].at = advance(sm, now, limit, true, skip,
                                     stores[i].buffer, headroom,
                                     detector);
                ends[i].busy = sm.busy();
            }
        };
        crew.run(run_to_end, groups >= 2);
        if (detector.conflict()) {
            undo.rollback(gmem_);
            return std::nullopt;
        }
        Cycle end = now;
        for (const SmEnd &e : ends) {
            end = std::max(end, e.at);
            hung = hung || e.busy;
        }
        WC_ASSERT(!hung || limit == hang_budget,
                  "simulation exceeded " << kMaxCycles
                  << " cycles; likely a deadlock in kernel "
                  << kernel.name());
        // Bring every SM to the run's end: idle SMs still account
        // their cycles, and scrub ticks and SEU sampling replay.
        next_sm.store(0, std::memory_order_relaxed);
        auto run_tail = [&](u32) {
            for (u32 i = pull(); i < num_sms; i = pull())
                advance(*sms[i], ends[i].at, end, false, skip,
                        stores[i].buffer, headroom, detector);
        };
        crew.run(run_tail, groups >= 2);
        commitInCycleOrder(stores, gmem_);
        now = end;
    }

    RunResult result(params_.energy);
    result.cycles = now;
    result.unschedulable = unschedulable;
    result.hung = hung;
    result.obs = std::move(obs);
    const u32 num_banks = params_.sm.regfile.numBanks;
    result.bankGatedFraction.assign(num_banks, 0.0);
    for (auto &sm : sms) {
        result.meter.merge(sm->meter());
        result.stats.merge(sm->stats());
        result.ctas += sm->ctasCompleted();
        result.rfcHits += sm->rfc().hits();
        result.rfcMisses += sm->rfc().misses();
        result.fault.merge(sm->regfile().faultStats());
        result.fault.unrecoverableAccesses += sm->unrecoverableAccesses();
        if (const SeuEngine *e = sm->regfile().seu())
            result.seu.merge(e->stats());
        for (u32 b = 0; b < num_banks; ++b) {
            result.bankGatedFraction[b] +=
                static_cast<double>(sm->regfile().gatedCycles(b, now)) /
                static_cast<double>(now);
        }
    }
    for (u32 b = 0; b < num_banks; ++b)
        result.bankGatedFraction[b] /= static_cast<double>(sms.size());

    WC_ASSERT(unschedulable || hung || result.ctas == dims.gridDim,
              "grid did not fully execute: " << result.ctas << " of "
              << dims.gridDim);
    return result;
}

} // namespace warpcomp

