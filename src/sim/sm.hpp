/**
 * @file
 * The streaming multiprocessor model: warp schedulers, operand
 * collectors, bank arbiter, execution pipelines, and the compression /
 * decompression path of Fig 1. One Sm instance simulates one SM for one
 * kernel launch.
 */

#ifndef WARPCOMP_SIM_SM_HPP
#define WARPCOMP_SIM_SM_HPP

#include <deque>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "analysis/similarity.hpp"
#include "common/types.hpp"
#include "compress/unit.hpp"
#include "mem/memory.hpp"
#include "power/energy_meter.hpp"
#include "regfile/rfc.hpp"
#include "sim/arbiter.hpp"
#include "sim/collector.hpp"
#include "sim/exec_unit.hpp"
#include "sim/functional.hpp"
#include "sim/params.hpp"
#include "sim/scheduler.hpp"
#include "sim/scoreboard.hpp"
#include "sim/warp.hpp"

namespace warpcomp {

/** Counters gathered during one simulation (figures 2,3,5,8,11,12). */
struct SimStats
{
    u64 issued = 0;             ///< instructions issued (incl. dummy MOVs)
    u64 issuedDivergent = 0;    ///< issued with a partial active mask
    u64 dummyMovs = 0;          ///< injected decompress-MOVs (Fig 11)
    u64 regWrites = 0;          ///< GPR-writing instructions
    u64 regWritesDivergent = 0;
    u64 writesStoredCompressed = 0;

    SimilarityBins simBins{};   ///< Fig 2
    RatioAccum ratio{};         ///< Fig 8 (potential compressibility)

    /** Fig 5: best <base,delta> histogram; indices follow
     *  fullBdiCandidates() order, last slot = not compressible. */
    u64 bdiSelect[8] = {};

    /** Fig 12: mean fraction of allocated registers in compressed
     *  state, sampled at each issue, per phase. */
    double compressedFracSum[2] = {};
    u64 compressedFracSamples[2] = {};

    void merge(const SimStats &other);

    double
    compressedFraction(Phase phase) const
    {
        const u64 n = compressedFracSamples[phase];
        return n == 0 ? 0.0 : compressedFracSum[phase] /
            static_cast<double>(n);
    }
};

/**
 * A bound on the trace events one Sm step, a launch attempt or a
 * cycle, can emit: the headroom of a run-ahead event log (ObsLog). It
 * covers every bank gating and waking, every collector operand
 * conflicting or decompressing, and every scheduler issuing; the 19
 * workloads emit at most 22 in a cycle. A burst beyond it would grow
 * the log inside Sm::cycle, which costs an allocation, not a result.
 */
inline u32
stepEventBound(const SmParams &p)
{
    return 2 * p.regfile.numBanks + 4 * p.numCollectors +
           4 * p.numSchedulers + 8;
}

/** One streaming multiprocessor executing one kernel launch. */
class Sm
{
  public:
    /**
     * @param params SM configuration (call params.applyScheme() first)
     * @param energy energy constants for the meter
     * @param gmem global memory
     * @param cmem constant bank
     * @param kernel kernel being launched
     * @param dims grid/block dimensions
     * @param collect_bdi_breakdown enable the Fig 5 explorer stats
     */
    Sm(const SmParams &params, const EnergyParams &energy,
       GlobalMemory &gmem, ConstantMemory &cmem, const Kernel &kernel,
       const LaunchDims &dims, bool collect_bdi_breakdown = false);

    /**
     * Try to make CTA @p cta_id resident at cycle @p now; false when out
     * of resources. @p now must be the current simulation cycle: the
     * register allocation timestamps bank valid bits and power-gate
     * wakeups, and a stale cycle makes the gate FSM see time run
     * backwards (second and later CTA waves always launch after 0).
     */
    bool tryLaunchCta(u32 cta_id, Cycle now);

    /**
     * Simulate one cycle at global time @p now. A cycle below
     * cachedNextEvent is provably uneventful and is accounted as
     * skipCycles(now, now + 1); any other cycle steps the pipeline.
     */
    void cycle(Cycle now);

    /** Returned by nextEventCycle when the SM has no future event at
     *  all (idle, no scrub engine): the GPU may skip arbitrarily far. */
    static constexpr Cycle kNoEvent = std::numeric_limits<Cycle>::max();

    /**
     * Earliest cycle >= @p now at which executing a cycle on this SM
     * could change architectural or counted state. Returns @p now when
     * anything might happen this very cycle (an operand collector is
     * retrying, an in-flight op is ready, a warp can issue), the
     * minimum in-flight readyAt / power-gate wake otherwise, capped at
     * the next scrub-engine tick, and kNoEvent for an idle SM with no
     * scrubbing. Cycles in (now, nextEventCycle) are provably
     * uneventful and may be bulk-accounted with skipCycles.
     */
    Cycle nextEventCycle(Cycle now);

    /**
     * The cached next-event cycle maintained by cycle()/tryLaunchCta:
     * cycles strictly before it are uneventful for this SM (cycle()
     * only accounts them, and the GPU may bulk-skip to the minimum
     * across SMs). 0 until the first cycle executes.
     */
    Cycle cachedNextEvent() const { return nextEvent_; }

    /**
     * Bulk-account the uneventful span [@p from, @p to): the per-cycle
     * SEU flip stream (replayed cycle by cycle so pending flips
     * accumulate bit-identically), then accountSpan. Only valid for
     * spans nextEventCycle declared event-free.
     */
    void skipCycles(Cycle from, Cycle to);

    /**
     * Attach shared observability state (nullptr detaches). Forwarded
     * to the register file so bank gate transitions are traced too.
     * Every hook site branches on the pointer: an unattached SM runs
     * the exact pre-observability instruction stream.
     */
    void attachObs(ObsRun *obs, u16 sm_id);

    /**
     * Hold this SM's global stores in @p stores until the owner
     * commits them (nullptr, the default, writes through). Gpu::run
     * arms one buffer per SM so the SMs of a cycle can step on any
     * host threads; an SM driven directly writes through.
     */
    void
    armStoreBuffer(GlobalStoreBuffer *stores)
    {
        fex_.armStoreBuffer(stores);
    }

    /** Mark this SM's global accesses in @p detector (nullptr, the
     *  default, marks nothing); Gpu::run arms it for run-ahead. */
    void
    armDetector(GlobalConflictDetector *detector)
    {
        fex_.armDetector(detector);
    }

    /** True while any CTA is resident or instructions are in flight. */
    bool busy() const;

    /** The last launch attempt failed and no CTA has completed since:
     *  the next attempt would fail too (see tryLaunchCta). */
    bool launchBlocked() const { return launchBlocked_; }

    const SmParams &params() const { return params_; }
    const EnergyMeter &meter() const { return meter_; }
    const SimStats &stats() const { return stats_; }
    const RegisterFile &regfile() const { return rf_; }
    /** Memory accesses squashed by fault containment (policy None). */
    u64 unrecoverableAccesses() const { return fex_.containedAccesses(); }
    const RegFileCache &rfc() const { return rfc_; }
    u64 ctasCompleted() const { return ctasCompleted_; }

  private:
    /** Resident CTA bookkeeping. */
    struct Cta
    {
        bool active = false;
        u32 ctaId = 0;
        std::unique_ptr<SharedMemory> smem;
        std::vector<u32> warpSlots;
        u32 liveWarps = 0;
        u32 atBarrier = 0;
        u32 inFlight = 0;
    };

    /** Claim a slab entry ready for issue (InFlight::resetForIssue) /
     *  return one to the freelist. */
    InFlight *allocFlight();
    void freeFlight(InFlight *f);

    /** Account the cycles [@p from, @p to) whose bank state is the
     *  current one: energy-meter cycles, the active/drowsy bank census
     *  and the obs window row. Every cycle passes through here once. */
    void accountSpan(Cycle from, Cycle to);
    void stepWritebackAndExec(Cycle now);
    void stepCollect(Cycle now);
    void stepIssue(Cycle now);
    /** Per-cycle SEU work: draw this cycle's flips, run the scrubber. */
    void stepSeu(SeuEngine &seu, Cycle now);
    /** Consume pending flips of (slot, reg) before its value is read,
     *  committing corruption architecturally when unprotected. */
    void resolveSeuRead(SeuEngine &seu, u32 slot, u32 reg, Cycle now);
    /** Issue probe for @p slot of @p sched; blocks the slot in @p sched
     *  when it fails for a sticky reason. */
    bool canIssueFrom(WarpScheduler &sched, u32 slot);
    /** The scheduler owning warp slot @p slot. */
    WarpScheduler &
    schedulerOf(u32 slot)
    {
        return schedulers_[slot % params_.numSchedulers];
    }
    void issueFrom(u32 slot, Cycle now);
    /** Set up operand @p op of @p f as a read of (slot, reg): its bank
     *  footprint, the compressed-source count and remap accounting. */
    void setupRead(InFlight &f, u32 op, u32 slot, u32 reg);
    void issueDummyMov(u32 slot, u8 dst, Cycle now);
    void finishInFlight(InFlight &f, Cycle now);
    void recordWriteStats(const Warp &warp, const Instruction &inst,
                          LaneMask eff, bool divergent,
                          std::span<const u8> img, const BdiChoice &choice,
                          const LaneScan &scan);
    void tryReleaseBarrier(Cta &cta);
    void maybeCompleteCta(u32 cta_slot, Cycle now);
    u32 freeSmemBytes() const;

    SmParams params_;
    const Kernel &kernel_;
    LaunchDims dims_;
    bool collectBdi_;

    RegisterFile rf_;
    RegFileCache rfc_;
    Scoreboard scoreboard_;
    BankArbiter arbiter_;
    CollectorPool collectors_;
    std::vector<InFlight *> execList_;
    /** execReady_[i] == execList_[i]->readyAt: the writeback walk skips
     *  entries that are not due without touching their InFlight. */
    std::vector<Cycle> execReady_;
    /** Stable backing store for in-flight entries: deque growth never
     *  moves existing entries, and freed ones recycle through
     *  flightFree_, so the steady-state pipeline allocates nothing and
     *  moves pointers instead of InFlight payloads. */
    std::deque<InFlight> flightSlab_;
    std::vector<InFlight *> flightFree_;
    /** Each scheduler's may-be-ready mask blocks a slot while it is
     *  known unissuable for a sticky reason (scoreboard hazard at the
     *  current pc, or not schedulable), so the issue scan skips it
     *  without touching the large Warp object. canIssueFrom blocks;
     *  the slot is unblocked wherever the sticky reason can lapse:
     *  writeback releases (finishInFlight), barrier release, and CTA
     *  launch. Volatile reasons (no free collector, MSHR budget) never
     *  block. */
    std::vector<WarpScheduler> schedulers_;
    UnitPool compPool_;
    UnitPool decompPool_;
    DispatchLimiter simtDispatch_;
    DispatchLimiter memDispatch_;
    FunctionalExecutor fex_;

    std::vector<Warp> warps_;
    std::vector<Cta> ctas_;
    /** Scratch for tryLaunchCta's free-slot scan (capacity reserved at
     *  construction so the launch path performs no per-wave allocation
     *  for it). */
    std::vector<u32> launchSlots_;
    u32 outstandingMem_ = 0;
    /** Cycles before this are provably uneventful (see
     *  cachedNextEvent); recomputed after every fully executed cycle,
     *  reset by a successful CTA launch. */
    Cycle nextEvent_ = 0;
    /** Earliest cycle any execList_ entry can act (kNoEvent when the
     *  list is empty): lets stepWritebackAndExec skip its walk on
     *  cycles where nothing is due and feeds nextEventCycle. */
    Cycle execMinReady_ = kNoEvent;
    /** False while the last complete issue scan found nothing issuable
     *  and no event since (scoreboard release, freed collector, MSHR
     *  release, barrier release, CTA launch) could change that — the
     *  scheduler scan is provably fruitless and is skipped. */
    bool issueCandidate_ = true;
    /** The most recent cycle's issue scan completed with no issuable
     *  warp; consumed by nextEventCycle in place of a re-scan. */
    bool noIssuable_ = false;
    /** A failed CTA launch stays failed until some CTA completes:
     *  every CTA of one kernel launch has identical resource needs,
     *  and resources are only freed at CTA completion. */
    bool launchBlocked_ = false;
    u64 ageCounter_ = 0;
    u64 ctasCompleted_ = 0;
    /** Cached: SEC-DED active, so reads/writes charge decode/encode. */
    bool seuEcc_ = false;

    EnergyMeter meter_;
    SimStats stats_;

    /** Shared observability sink; nullptr = disabled (zero cost). */
    ObsRun *obs_ = nullptr;
    u16 obsSmId_ = 0;
};

} // namespace warpcomp

#endif // WARPCOMP_SIM_SM_HPP
