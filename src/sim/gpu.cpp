#include "sim/gpu.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/host_threads.hpp"
#include "common/log.hpp"
#include "obs/trace_stream.hpp"

namespace warpcomp {

namespace {

/** Hard deadlock guard: no workload in the suite runs this long. */
constexpr Cycle kMaxCycles = 200'000'000;
static_assert(kMaxCycles < (Cycle{1} << 32),
              "store stamps and detector marks hold 32-bit cycles");

/** One SM's store buffer and, while an observed launch runs ahead,
 *  its event log, on their own cache line: those of SMs that step on
 *  different host threads never false-share. */
struct alignas(64) SmLogs
{
    explicit SmLogs(std::size_t capacity) : buffer(capacity) {}
    GlobalStoreBuffer buffer;
    /** Null unless the launch is observed and runs ahead. */
    ObsLog *events = nullptr;
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
 * ahead bulk-accounts the span up to it (skipCycles); otherwise it
 * steps cycle @p now, after its store buffer regains room for one
 * cycle's stores (@p headroom) and its event log, if any, for one
 * cycle's events, so Sm::cycle grows neither.
 */
Cycle
advance(Sm &sm, Cycle now, Cycle to, bool skip, SmLogs &logs, u32 headroom)
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
    logs.buffer.reserveHeadroom(headroom);
    if (logs.events != nullptr)
        logs.events->reserveHeadroom(now);
    sm.cycle(now);
    return now + 1;
}

/**
 * SM @p sm's attempt to take CTA @p cta at cycle @p now. With an event
 * log, the attempt's events are logged in the cycle's launch phase,
 * which lockstep runs before every SM's step.
 */
bool
tryLaunch(Sm &sm, u32 cta, Cycle now, ObsLog *events)
{
    if (events == nullptr)
        return sm.tryLaunchCta(cta, now);
    events->reserveHeadroom(now);
    events->setLaunchPhase(true);
    const bool launched = sm.tryLaunchCta(cta, now);
    events->setLaunchPhase(false);
    return launched;
}

/**
 * Write every SM's store log to @p gmem in (cycle, SM, issue) order,
 * the order lockstep commits in, and empty the logs. Each log is
 * already in cycle order.
 */
void
commitInCycleOrder(std::vector<SmLogs> &stores, GlobalMemory &gmem)
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
    for (SmLogs &s : stores)
        s.buffer.clear();
}

/**
 * The serial reference: in every cycle, each SM with room may accept
 * one CTA, in SM order, then every SM advances through the cycle and
 * the cycle's global stores commit in SM order, so every SM of a cycle
 * reads memory as it was before that cycle. Runs with
 * GpuParams::runAhead off and run-ahead fallbacks step this way. An
 * observed run's hooks write straight through to its ObsRun here: this
 * order, launches then steps, each in SM order, is the order its
 * events must reach the ring and the sink in.
 *
 * Event-driven idle skipping: while some SM is busy and no SM can take
 * a CTA (none is pending, or every SM is launchBlocked, which only a
 * stepped cycle's CTA completion lifts), the step ends at the lowest
 * cached next event across SMs instead, so the cycles before it are
 * bulk-accounted on every SM.
 */
Ending
stepLockstep(std::vector<std::unique_ptr<Sm>> &sms,
             std::vector<SmLogs> &stores, GlobalMemory &gmem,
             u32 grid, Cycle hang_budget, bool skip, u32 headroom,
             const Kernel &kernel)
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
        bool can_launch = false;
        bool sm_busy = false;
        for (u32 i = 0; i < sms.size(); ++i) {
            if (next_cta < grid && sms[i]->tryLaunchCta(next_cta, now)) {
                ++next_cta;
                launched = true;
            }
            can_launch = can_launch || !sms[i]->launchBlocked();
            sm_busy = sm_busy || sms[i]->busy();
        }

        Cycle to = now + 1;
        if (skip && sm_busy && (next_cta >= grid || !can_launch)) {
            Cycle ev = Sm::kNoEvent;
            for (auto &sm : sms)
                ev = std::min(ev, sm->cachedNextEvent());
            WC_ASSERT(ev != Sm::kNoEvent,
                      "busy GPU reported no future event");
            WC_ASSERT(ev < kMaxCycles,
                      "next event beyond the deadlock guard in kernel "
                      << kernel.name());
            if (hang_budget != 0)
                ev = std::min(ev, hang_budget);
            to = std::max(to, ev);
        }

        sm_busy = false;
        for (u32 i = 0; i < sms.size(); ++i) {
            advance(*sms[i], now, to, skip, stores[i], headroom);
            sm_busy = sm_busy || sms[i]->busy();
        }
        for (SmLogs &s : stores) {
            if (!s.buffer.empty())
                s.buffer.commit(gmem);
        }
        now = to;
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
        WC_ASSERT(now < kMaxCycles,
                  "simulation exceeded " << kMaxCycles
                  << " cycles; likely a deadlock in kernel "
                  << kernel.name());
    }
    end.cycles = now;
    return end;
}

/**
 * Runs every SM of one launch ahead of the others, each on
 * its own clock, with no per-cycle barrier (conservative parallel
 * discrete-event simulation). Host threads pull SMs, lowest clock
 * first, and step each for a turn of kTurnCycles, until it must wait,
 * or until it is done. Host thread t of T has home SMs t, t + T,
 * t + 2T, ...: it takes its own lowest-clock ready SM, and the global
 * lowest-clock ready SM only when none of its own is ready, so an SM's
 * state mostly stays in one core's caches (the SMs of a thread the
 * system could not start are only ever stolen). Which thread steps an
 * SM never changes the result.
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
 *
 * A traced or streamed launch's events wait in per-SM logs too
 * (ObsLog). Each time an SM stops running (turn end, park, finish) its
 * thread seals its log and raises the drain floor, the lowest cycle at
 * which any SM can still log an event (sealEvents), and then, outside
 * the mutex, passes every sealed event below it on in lockstep's order
 * (drainEvents). No SM runs more than kObservedLead cycles past the
 * last drain's floor, so the logs hold only the events of that spread.
 */
class RunAhead
{
  public:
    RunAhead(std::vector<std::unique_ptr<Sm>> &sms,
             std::vector<SmLogs> &stores, u32 grid, Cycle limit,
             bool skip, u32 headroom,
             const GlobalConflictDetector &detector, u32 threads,
             ObsRun *obs)
        : sms_(sms), stores_(stores), grid_(grid), limit_(limit),
          skip_(skip), headroom_(headroom), detector_(detector),
          threads_(threads), obs_(obs),
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
            const u32 thread = nextThread_++;
            while (true) {
                u32 sm = kNone;
                cv_.wait(lock, [&] {
                    sm = pickReady(thread);
                    return sm != kNone || stopped() || !waiting();
                });
                if (sm == kNone || stopped())
                    return;
                state_[sm] = Slot::Running;
                const Cycle turn_end =
                    std::min(clock_[sm] + kTurnCycles, leadLimit());
                lock.unlock();
                run(sm, turn_end);
                drainEvents();
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

    /** Cycles an SM steps per turn before its thread picks an SM
     *  again (pickReady): the SMs stay near each other, so the
     *  global-memory lines they share stay in the host's caches
     *  (perfbench suite on a 4-vCPU x86 VM: about 10% less wall time
     *  than unbounded turns on one host thread, none lost on four). */
    static constexpr Cycle kTurnCycles = 128;
    /** How far an observed launch's SMs may run ahead of the events
     *  drained so far: their events wait in the logs meanwhile. */
    static constexpr Cycle kObservedLead = 2 * kTurnCycles;
    static constexpr u32 kNone = ~0u;
    static constexpr u64 kSmMask = 0xFFFF;
    static constexpr u64 kDone = ~u64{0};

    static u64 key(Cycle c, u32 sm) { return (c << 16) | sm; }

    /** One SM's published key, on its own cache line. */
    struct alignas(64) Key
    {
        std::atomic<u64> key{0};
    };

    /** Step SM @p i from its clock until it parks or stops, or up to
     *  @p turn_end. */
    void
    run(u32 i, Cycle turn_end)
    {
        Sm &sm = *sms_[i];
        SmLogs &logs = stores_[i];
        Cycle now = clock_[i];
        bool pending = true;
        while (now < limit_ && !detector_.conflict()) {
            if (now >= turn_end) {
                std::lock_guard<std::mutex> lock(m_);
                clock_[i] = now;
                state_[i] = Slot::Ready;
                sealEvents(i);
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
            const Cycle next = advance(sm, now, limit_, skip_, logs,
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
                sealEvents(i);
                return false;
            }
            minParked_.store(lowestParked(nullptr));
        }
        if (tryLaunch(*sms_[i], nextCta_, now, stores_[i].events) &&
            ++nextCta_ == grid_) {
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
        sealEvents(i);
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

    /** The ready home SM of host thread @p thread with the lowest
     *  clock; failing that, the ready SM with the lowest clock; kNone
     *  when no SM is ready. An SM at the lead limit is not ready.
     *  Needs m_. */
    u32
    pickReady(u32 thread) const
    {
        const Cycle limit = leadLimit();
        u32 home = kNone, any = kNone;
        for (u32 i = 0; i < state_.size(); ++i) {
            if (state_[i] != Slot::Ready || clock_[i] >= limit)
                continue;
            if (any == kNone || clock_[i] < clock_[any])
                any = i;
            if (i % threads_ == thread &&
                (home == kNone || clock_[i] < clock_[home]))
                home = i;
        }
        return home != kNone ? home : any;
    }

    /** Some SM is ready or parked. Needs m_. */
    bool
    waiting() const
    {
        return std::any_of(state_.begin(), state_.end(), [](Slot s) {
            return s == Slot::Ready || s == Slot::Parked;
        });
    }

    /**
     * SM @p i just stopped running: seal its events, and raise the
     * drain floor to the lowest cycle at which some SM can still log
     * an event. Every SM was sealed when it last stopped, so an SM
     * logs at its clock or later: a running one from the clock it
     * started at, a ready or parked one from its clock, possibly with
     * a launch. A finished SM is stepped again only by the tail, which
     * logs nothing before its next event: never, for an idle SM
     * without scrubbing. Needs m_.
     */
    void
    sealEvents(u32 i)
    {
        if (obs_ == nullptr)
            return;
        stores_[i].events->seal();
        Cycle floor = Sm::kNoEvent;
        Cycle live = Sm::kNoEvent;
        for (u32 j = 0; j < state_.size(); ++j) {
            if (state_[j] == Slot::Done) {
                floor = std::min(floor, std::max(clock_[j],
                                                 sms_[j]->cachedNextEvent()));
            } else {
                live = std::min(live, clock_[j]);
            }
        }
        drainFloor_.store(std::min(floor, live));
        // A finished SM holding the floor until the tail must not hold
        // back the others: they may lead the slowest one still moving.
        if (floor < live && live > doneHeld_) {
            doneHeld_ = live;
            cv_.notify_all();
        }
    }

    /**
     * Pass the sealed events below the drain floor to the ring and the
     * sink (ObsRun::drainLogs), unless another thread is at it: that
     * one drains again if the floor rose meanwhile. A floor stays
     * valid as it ages, since SMs only move forward. Outside m_, so
     * the other threads keep stepping and sealing.
     */
    void
    drainEvents()
    {
        while (obs_ != nullptr && drainMutex_.try_lock()) {
            const Cycle floor = drainFloor_.load();
            obs_->drainLogs(floor);
            drainMutex_.unlock();
            {
                // SMs held back at the lead limit may move again.
                std::lock_guard<std::mutex> lock(m_);
                if (floor > drained_) {
                    drained_ = floor;
                    cv_.notify_all();
                }
            }
            if (drainFloor_.load() == floor)
                return;
        }
    }

    /** The clock a launch's SMs must stay below while they log
     *  events: the lead past the last drain's floor, or past the
     *  slowest SM still moving while a finished one holds the floor
     *  (Cycle max otherwise). The slowest SM is never held back, and a
     *  drain follows every stop, so the limit keeps rising. Needs m_. */
    Cycle
    leadLimit() const
    {
        const Cycle base = std::max(drained_, doneHeld_);
        return obs_ == nullptr || base >= Sm::kNoEvent - kObservedLead
            ? Sm::kNoEvent : base + kObservedLead;
    }

    /** A conflict or a failed thread ends the run. Needs m_. */
    bool stopped() const { return failed_ || detector_.conflict(); }

    std::vector<std::unique_ptr<Sm>> &sms_;
    std::vector<SmLogs> &stores_;
    const u32 grid_;
    const Cycle limit_;
    const bool skip_;
    const u32 headroom_;
    const GlobalConflictDetector &detector_;
    /** Host threads the SMs are homed over. */
    const u32 threads_;
    /** The launch's observability state; null when it records no
     *  events. */
    ObsRun *const obs_;

    /** Published keys, read by any thread. */
    std::vector<Key> keys_;
    /** The lowest parked key (kDone when none), read by every SM that
     *  publishes. */
    alignas(64) std::atomic<u64> minParked_{kDone};
    /** Some CTA is not yet out; false only after the last launch. */
    std::atomic<bool> pending_{true};
    /** Sealed events below it may be drained (sealEvents). */
    std::atomic<Cycle> drainFloor_{0};
    /** Held by the one thread draining events. */
    std::mutex drainMutex_;

    /** Guards everything below, and each SM's clock while it is not
     *  running. */
    std::mutex m_;
    std::condition_variable cv_;
    std::vector<Slot> state_;
    std::vector<Cycle> clock_;
    /** The floor of the last drain (drainEvents). */
    Cycle drained_ = 0;
    /** The slowest moving SM's clock while a finished SM holds the
     *  drain floor below it; 0 otherwise. */
    Cycle doneHeld_ = 0;
    /** The index the next host thread to call work() takes. */
    u32 nextThread_ = 0;
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

    SteppingCensus census;
    census.ranAhead = params_.runAhead;
    std::optional<RunResult> result =
        launch(kernel, dims, collect_bdi_breakdown, census.ranAhead);
    if (!result) {
        ++census.fallbacks;
        // The rerun gets a fresh ObsRun (ring and window rows), and the
        // dump drops what the attempt had streamed.
        if (params_.obs.sink != nullptr)
            params_.obs.sink->rewind();
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
    std::vector<SmLogs> stores;
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

    // One shared observability state for the whole run. Running
    // ahead, each SM logs its events and window rows, and RunAhead
    // merges them in lockstep's order; in lockstep they write through.
    std::shared_ptr<ObsRun> obs;
    if (params_.obs.enabled()) {
        obs = std::make_shared<ObsRun>(params_.obs);
        if (run_ahead)
            obs->armLogs(num_sms, stepEventBound(params_.sm));
        for (u32 i = 0; i < sms.size(); ++i) {
            sms[i]->attachObs(obs.get(), static_cast<u16>(i));
            stores[i].events = obs->log(static_cast<u16>(i));
        }
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
                           skip, headroom, kernel);
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
        // Window rows are sums: a run that records no events needs no
        // drain, and its SMs need not stay near each other.
        const bool events = params_.obs.trace || params_.obs.sink != nullptr;
        RunAhead ahead(sms, stores, dims.gridDim, limit, skip, headroom,
                       detector, threads, events ? obs.get() : nullptr);
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
        parallelFor(num_sms, threads, [&](std::size_t i) {
            for (Cycle now = ahead.stoppedAt(i); now < end.cycles;)
                now = advance(*sms[i], now, end.cycles, skip, stores[i],
                              headroom);
        });
        commitInCycleOrder(stores, gmem_);
        if (obs != nullptr) {
            obs->closeLogs();
#if defined(__GLIBC__)
            // The event chunks, store logs and CTA memory the host
            // threads freed stay in their malloc arenas, which do not
            // trim below a threshold a large free (the ring's) raised:
            // hand them back before the caller exports the run.
            malloc_trim(0);
#endif
        }
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
