#include "sim/gpu.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <system_error>
#include <thread>

#include "common/host_threads.hpp"
#include "common/log.hpp"

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

/** How a launch ended. */
struct Ending
{
    Cycle cycles = 0;
    bool unschedulable = false;
    bool hung = false;
};

/**
 * Advance @p sm by one step from cycle @p now toward @p to and return
 * the cycle it reached. With @p skip, an SM whose next event lies
 * ahead bulk-accounts the span up to it (skipCycles), as lockstep
 * skipping does for all SMs at once; otherwise it steps cycle @p now,
 * after @p stores regains room for one cycle's stores (@p headroom),
 * so Sm::cycle never grows it.
 */
Cycle
advance(Sm &sm, Cycle now, Cycle to, bool skip, GlobalStoreBuffer &stores,
        u32 headroom)
{
    if (skip) {
        const Cycle ev = sm.cachedNextEvent();
        WC_ASSERT(!sm.busy() || ev != Sm::kNoEvent,
                  "busy SM reported no future event");
        if (ev > now) {
            const Cycle next = std::min(ev, to);
            sm.skipCycles(now, next);
            return next;
        }
    }
    stores.reserveHeadroom(headroom);
    sm.cycle(now);
    return now + 1;
}

/**
 * Write every SM's store log to @p gmem in (cycle, SM, issue) order,
 * the order lockstep commits in, and empty the logs. Each log is
 * already in cycle order.
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

/**
 * Call @p fn on @p threads host threads, the caller included, and
 * return once every call has returned; rethrows the first exception a
 * call threw. Fewer threads run when the system cannot start more,
 * which no caller's result depends on.
 */
template <typename Fn>
void
runOnThreads(u32 threads, Fn fn)
{
    std::mutex m;
    std::exception_ptr error;
    auto guarded = [&] {
        try {
            fn();
        } catch (...) {
            std::lock_guard<std::mutex> lock(m);
            if (!error)
                error = std::current_exception();
        }
    };
    std::vector<std::thread> helpers;
    helpers.reserve(threads > 0 ? threads - 1 : 0);
    for (u32 t = 1; t < threads; ++t) {
        try {
            helpers.emplace_back(guarded);
        } catch (const std::system_error &) {
            break;
        }
    }
    guarded();
    for (std::thread &t : helpers)
        t.join();
    if (error)
        std::rethrow_exception(error);
}

/**
 * The serial reference: in every cycle, each SM with room may accept
 * one CTA, in SM order, then every SM steps the cycle and the cycle's
 * global stores commit in SM order, so every SM of a cycle reads
 * memory as it was before that cycle. Obs-armed runs, runs with
 * GpuParams::runAhead off and run-ahead fallbacks step this way.
 */
Ending
stepLockstep(std::vector<std::unique_ptr<Sm>> &sms,
             std::vector<PaddedStores> &stores, GlobalMemory &gmem,
             u32 grid, Cycle hang_budget, bool skip, const Kernel &kernel)
{
    Ending end;
    u32 next_cta = 0;
    Cycle now = 0;
    u32 stalled_cycles = 0;
    while (true) {
        // The launch carries the current cycle: register allocation
        // timestamps valid bits and power-gate wakeups, and later
        // waves launch at now > 0.
        bool launched = false;
        for (u32 i = 0; i < sms.size() && next_cta < grid; ++i) {
            if (sms[i]->tryLaunchCta(next_cta, now)) {
                ++next_cta;
                launched = true;
            }
        }

        bool sm_busy = false;
        bool cta_completed = false;
        Cycle ev = Sm::kNoEvent;
        for (auto &sm : sms) {
            const u64 done_before = sm->ctasCompleted();
            sm->cycle(now);
            sm_busy = sm_busy || sm->busy();
            cta_completed = cta_completed ||
                sm->ctasCompleted() != done_before;
            ev = std::min(ev, sm->cachedNextEvent());
        }
        for (PaddedStores &s : stores) {
            if (!s.buffer.empty())
                s.buffer.commit(gmem);
        }
        ++now;
        if (next_cta >= grid && !sm_busy)
            break;
        if (hang_budget != 0 && now >= hang_budget) {
            end.hung = true;
            break;
        }
        // CTAs pending, every SM idle, and no launch succeeded: the
        // machine state is frozen, so the next CTA can never become
        // resident (fault policies can shrink capacity below one CTA).
        if (!sm_busy && !launched) {
            if (++stalled_cycles >= 2) {
                end.unschedulable = true;
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
        if (skip && sm_busy &&
            (next_cta >= grid || (!launched && !cta_completed))) {
            WC_ASSERT(ev != Sm::kNoEvent,
                      "busy GPU reported no future event");
            if (ev > now) {
                WC_ASSERT(ev < kMaxCycles,
                          "next event beyond the deadlock guard in "
                          "kernel " << kernel.name());
                Cycle skip_to = ev;
                if (hang_budget != 0 && skip_to >= hang_budget)
                    skip_to = hang_budget;
                for (auto &sm : sms)
                    sm->skipCycles(now, skip_to);
                now = skip_to;
                if (hang_budget != 0 && now >= hang_budget) {
                    end.hung = true;
                    break;
                }
            }
        }
        WC_ASSERT(now < kMaxCycles,
                  "simulation exceeded " << kMaxCycles
                  << " cycles; likely a deadlock in kernel "
                  << kernel.name());
    }
    end.cycles = now;
    return end;
}

/**
 * Runs every SM of one unobserved launch ahead of the others, each on
 * its own clock, with no per-cycle barrier (conservative parallel
 * discrete-event simulation). Host threads pull SMs, lowest clock
 * first, and step each for a turn of kTurnCycles, until it must wait,
 * or until it is done.
 *
 * Only CTA dispatch couples the SMs: lockstep hands out CTAs in (cycle,
 * SM) order, so SM i may attempt a launch at cycle c only once every
 * other SM j has published a key (clock_j, j) above (c, i). The key is
 * kDone for an SM that is finished or idle with its launch blocked
 * (Sm::launchBlocked): it never attempts again. An SM that must wait
 * is parked and holds no thread; the SM with the lowest key can always
 * move, so some SM always runs. Keys matter only while CTAs are
 * pending; after the last launch nobody waits.
 *
 * Global stores wait in per-SM logs and every load reads the memory
 * image from before the launch; the conflict detector flags any load
 * that lockstep would have served a store from an earlier cycle, and
 * every SM then stops.
 */
class RunAhead
{
  public:
    RunAhead(std::vector<std::unique_ptr<Sm>> &sms,
             std::vector<PaddedStores> &stores, u32 grid, Cycle limit,
             bool skip, u32 headroom,
             const GlobalConflictDetector &detector)
        : sms_(sms), stores_(stores), grid_(grid), limit_(limit),
          skip_(skip), headroom_(headroom), detector_(detector),
          keys_(sms.size()), state_(sms.size(), Slot::Ready),
          clock_(sms.size(), 0)
    {
        WC_ASSERT(sms.size() <= kSmMask + 1, "too many SMs to key");
        for (u32 i = 0; i < sms.size(); ++i)
            keys_[i].key.store(key(0, i));
    }

    RunAhead(const RunAhead &) = delete;
    RunAhead &operator=(const RunAhead &) = delete;

    /** Step SMs until none is left to step; call on every host
     *  thread of the launch. */
    void
    work()
    {
        try {
            std::unique_lock<std::mutex> lock(m_);
            while (true) {
                u32 sm = kNone;
                cv_.wait(lock, [&] {
                    sm = pickReady();
                    return sm != kNone || stopped() || !waiting();
                });
                if (sm == kNone || stopped())
                    return;
                state_[sm] = Slot::Running;
                lock.unlock();
                run(sm);
                lock.lock();
            }
        } catch (...) {
            std::lock_guard<std::mutex> lock(m_);
            failed_ = true;
            cv_.notify_all();
            throw;
        }
    }

    /** The cycle SM @p i stopped at. */
    Cycle stoppedAt(u32 i) const { return clock_[i]; }

    /** Some CTA never found a home. */
    bool ctasPending() const { return nextCta_ < grid_; }

  private:
    enum class Slot : u8 { Ready, Running, Parked, Done };

    /** Cycles an SM steps per turn before its thread takes the SM
     *  with the lowest clock: the SMs stay near each other, so the
     *  global-memory lines they share stay in the host's caches
     *  (perfbench suite on a 4-vCPU x86 VM: about 10% less wall time
     *  than unbounded turns on one host thread, none lost on four). */
    static constexpr Cycle kTurnCycles = 128;
    static constexpr u32 kNone = ~0u;
    static constexpr u64 kSmMask = 0xFFFF;
    static constexpr u64 kDone = ~u64{0};

    static u64 key(Cycle c, u32 sm) { return (c << 16) | sm; }

    /** One SM's published key, on its own cache line. */
    struct alignas(64) Key
    {
        std::atomic<u64> key{0};
    };

    /** Step SM @p i from its clock until it parks or stops, or for
     *  one turn. */
    void
    run(u32 i)
    {
        Sm &sm = *sms_[i];
        GlobalStoreBuffer &log = stores_[i].buffer;
        Cycle now = clock_[i];
        const Cycle turn_end = now + kTurnCycles;
        bool pending = true;
        while (now < limit_ && !detector_.conflict()) {
            if (now >= turn_end) {
                std::lock_guard<std::mutex> lock(m_);
                clock_[i] = now;
                state_[i] = Slot::Ready;
                return;
            }
            // Once false, pending_ stays false.
            if (pending)
                pending = pending_.load();
            if (pending && !sm.launchBlocked()) {
                if (!attempt(i, now))
                    return;
                pending = pending_.load();
            }
            if (!sm.busy() && (!pending || sm.launchBlocked()))
                break;
            const Cycle next = advance(sm, now, limit_, skip_, log,
                                       headroom_);
            if (pending)
                publish(i, now, next);
            now = next;
        }
        finish(i, now);
    }

    /**
     * SM @p i's launch attempt at cycle @p now, in dispatch order:
     * true once it is made, false when the SM was parked at @p now
     * instead (it must not be touched again).
     */
    bool
    attempt(u32 i, Cycle now)
    {
        std::lock_guard<std::mutex> lock(m_);
        if (nextCta_ >= grid_)
            return true;
        const u64 k = key(now, i);
        if (!clear(i, k)) {
            // Announce the park before the final look, so an SM that
            // passes k meanwhile sees it (publish) or is seen here.
            minParked_.store(std::min(lowestParked(nullptr), k));
            if (!clear(i, k)) {
                clock_[i] = now;
                state_[i] = Slot::Parked;
                return false;
            }
            minParked_.store(lowestParked(nullptr));
        }
        if (sms_[i]->tryLaunchCta(nextCta_, now) && ++nextCta_ == grid_) {
            // Nobody waits once every CTA is out.
            pending_.store(false);
            for (Slot &s : state_) {
                if (s == Slot::Parked)
                    s = Slot::Ready;
            }
            minParked_.store(kDone);
            cv_.notify_all();
        }
        return true;
    }

    /** SM @p i moved from cycle @p from to @p to: publish its key, and
     *  wake the lowest parked SM if this passed it. */
    void
    publish(u32 i, Cycle from, Cycle to)
    {
        const u64 k = key(to, i);
        keys_[i].key.store(k);
        const u64 parked = minParked_.load();
        if (key(from, i) < parked && parked < k) {
            std::lock_guard<std::mutex> lock(m_);
            wakeLowestParked();
        }
    }

    void
    finish(u32 i, Cycle now)
    {
        std::lock_guard<std::mutex> lock(m_);
        clock_[i] = now;
        state_[i] = Slot::Done;
        keys_[i].key.store(kDone);
        wakeLowestParked();
        if (stopped() || !waiting())
            cv_.notify_all();
    }

    /** Every SM but @p i holds a key above @p k. Needs m_. */
    bool
    clear(u32 i, u64 k) const
    {
        for (u32 j = 0; j < keys_.size(); ++j) {
            if (j != i && keys_[j].key.load() < k)
                return false;
        }
        return true;
    }

    /** The lowest key of a parked SM (kDone when none), and its SM in
     *  @p sm when not null. Needs m_. */
    u64
    lowestParked(u32 *sm) const
    {
        u64 lowest = kDone;
        for (u32 i = 0; i < state_.size(); ++i) {
            if (state_[i] == Slot::Parked && key(clock_[i], i) < lowest) {
                lowest = key(clock_[i], i);
                if (sm != nullptr)
                    *sm = i;
            }
        }
        return lowest;
    }

    /** Make the lowest parked SM ready when no key is below it. Only
     *  that SM can be: it holds a key below every other parked SM.
     *  Needs m_. */
    void
    wakeLowestParked()
    {
        u32 sm = kNone;
        const u64 lowest = lowestParked(&sm);
        if (sm != kNone && clear(sm, lowest)) {
            state_[sm] = Slot::Ready;
            minParked_.store(lowestParked(nullptr));
            cv_.notify_one();
        }
    }

    /** The ready SM with the lowest clock, or kNone. Needs m_. */
    u32
    pickReady() const
    {
        u32 best = kNone;
        for (u32 i = 0; i < state_.size(); ++i) {
            if (state_[i] == Slot::Ready &&
                (best == kNone || clock_[i] < clock_[best]))
                best = i;
        }
        return best;
    }

    /** Some SM is ready or parked. Needs m_. */
    bool
    waiting() const
    {
        return std::any_of(state_.begin(), state_.end(), [](Slot s) {
            return s == Slot::Ready || s == Slot::Parked;
        });
    }

    /** A conflict or a failed thread ends the run. Needs m_. */
    bool stopped() const { return failed_ || detector_.conflict(); }

    std::vector<std::unique_ptr<Sm>> &sms_;
    std::vector<PaddedStores> &stores_;
    const u32 grid_;
    const Cycle limit_;
    const bool skip_;
    const u32 headroom_;
    const GlobalConflictDetector &detector_;

    /** Published keys, read by any thread. */
    std::vector<Key> keys_;
    /** The lowest parked key (kDone when none), read by every SM that
     *  publishes. */
    alignas(64) std::atomic<u64> minParked_{kDone};
    /** Some CTA is not yet out; false only after the last launch. */
    std::atomic<bool> pending_{true};

    /** Guards everything below, and each SM's clock while it is not
     *  running. */
    std::mutex m_;
    std::condition_variable cv_;
    std::vector<Slot> state_;
    std::vector<Cycle> clock_;
    u32 nextCta_ = 0;
    bool failed_ = false;
};

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

    // An observed run steps in lockstep (see launch).
    SteppingCensus census;
    census.ranAhead = params_.runAhead && !params_.obs.enabled();
    std::optional<RunResult> result =
        launch(kernel, dims, collect_bdi_breakdown, census.ranAhead);
    if (!result) {
        ++census.fallbacks;
        result = launch(kernel, dims, collect_bdi_breakdown, false);
    }
    result->stepping = census;
    return std::move(*result);
}

std::optional<RunResult>
Gpu::launch(const Kernel &kernel, const LaunchDims &dims,
            bool collect_bdi_breakdown, bool run_ahead)
{
    const u32 num_sms = params_.numSms;
    std::vector<std::unique_ptr<Sm>> sms;
    sms.reserve(num_sms);
    // Each SM's global stores wait in its buffer: for one cycle in
    // lockstep, for the whole launch when running ahead.
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
    // steps its SMs on one host thread, in lockstep.
    std::shared_ptr<ObsRun> obs;
    if (params_.obs.enabled()) {
        obs = std::make_shared<ObsRun>(params_.obs);
        for (u32 i = 0; i < sms.size(); ++i)
            sms[i]->attachObs(obs.get(), static_cast<u16>(i));
    }

    // Uncontained corruption — stuck-at policy None, or an SEU scheme
    // without ECC — can livelock a kernel; cap such runs at the
    // configured budget instead of the hard guard.
    const bool silent_corruption =
        (params_.sm.faults.enabled() &&
         params_.sm.faults.policy == FaultPolicy::None) ||
        (params_.sm.seu.enabled() && params_.sm.seu.canCorrupt());
    const Cycle hang_budget =
        silent_corruption ? params_.sm.faults.hangCycles : 0;
    const bool skip = params_.skipIdleCycles;

    Ending end;
    if (!run_ahead) {
        end = stepLockstep(sms, stores, gmem_, dims.gridDim, hang_budget,
                           skip, kernel);
    } else {
        // No budget means the deadlock guard; a budget past the guard
        // hits the guard first, as in lockstep.
        const Cycle limit = hang_budget != 0
            ? std::min(hang_budget, kMaxCycles) : kMaxCycles;
        GlobalConflictDetector detector(gmem_.size());
        for (auto &sm : sms)
            sm->armDetector(&detector);
        const u32 threads = std::min({
            resolveThreadCount(params_.hostThreads), num_sms,
            dims.gridDim});
        RunAhead ahead(sms, stores, dims.gridDim, limit, skip, headroom,
                       detector);
        runOnThreads(threads, [&] { ahead.work(); });
        // Memory was never written: the logs are simply dropped.
        if (detector.conflict())
            return std::nullopt;

        bool busy = false;
        for (u32 i = 0; i < num_sms; ++i) {
            end.cycles = std::max(end.cycles, ahead.stoppedAt(i));
            busy = busy || sms[i]->busy();
        }
        if (ahead.ctasPending()) {
            // Every SM stopped idle with its launch blocked (or at the
            // limit). Lockstep stops after two cycles in a row with no
            // launch and every SM idle: the cycle in which the last SM
            // went idle (0 if none ever held a CTA) and the next one,
            // unless the budget comes first.
            const Cycle stalled = std::max<Cycle>(end.cycles + 1, 2);
            if (stalled < limit) {
                end.unschedulable = true;
                end.cycles = stalled;
            } else {
                end.hung = true;
                end.cycles = limit;
            }
        } else {
            end.hung = busy;
        }
        WC_ASSERT(!end.hung || limit == hang_budget,
                  "simulation exceeded " << kMaxCycles
                  << " cycles; likely a deadlock in kernel "
                  << kernel.name());
        // Bring every SM to the run's end: idle SMs still account
        // their cycles, and scrub ticks and SEU sampling replay.
        std::atomic<u32> next_sm{0};
        runOnThreads(threads, [&] {
            for (u32 i = next_sm++; i < num_sms; i = next_sm++) {
                for (Cycle now = ahead.stoppedAt(i); now < end.cycles;)
                    now = advance(*sms[i], now, end.cycles, skip,
                                  stores[i].buffer, headroom);
            }
        });
        commitInCycleOrder(stores, gmem_);
    }

    const Cycle now = end.cycles;
    RunResult result(params_.energy);
    result.cycles = now;
    result.unschedulable = end.unschedulable;
    result.hung = end.hung;
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

    WC_ASSERT(end.unschedulable || end.hung ||
              result.ctas == dims.gridDim,
              "grid did not fully execute: " << result.ctas << " of "
              << dims.gridDim);
    return result;
}

} // namespace warpcomp
