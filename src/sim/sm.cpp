#include "sim/sm.hpp"

#include <algorithm>

#include "common/bitops.hpp"
#include "common/log.hpp"

namespace warpcomp {

void
SimStats::merge(const SimStats &other)
{
    issued += other.issued;
    issuedDivergent += other.issuedDivergent;
    dummyMovs += other.dummyMovs;
    regWrites += other.regWrites;
    regWritesDivergent += other.regWritesDivergent;
    writesStoredCompressed += other.writesStoredCompressed;
    simBins.merge(other.simBins);
    ratio.merge(other.ratio);
    for (u32 i = 0; i < 8; ++i)
        bdiSelect[i] += other.bdiSelect[i];
    for (u32 p = 0; p < 2; ++p) {
        compressedFracSum[p] += other.compressedFracSum[p];
        compressedFracSamples[p] += other.compressedFracSamples[p];
    }
}

Sm::Sm(const SmParams &params, const EnergyParams &energy,
       GlobalMemory &gmem, ConstantMemory &cmem, const Kernel &kernel,
       const LaunchDims &dims, bool collect_bdi_breakdown)
    : params_(params), kernel_(kernel), dims_(dims),
      collectBdi_(collect_bdi_breakdown),
      rf_(params.regfile, params.faults, params.seu),
      rfc_(params.maxWarps, params.rfcEntriesPerWarp),
      scoreboard_(params.maxWarps),
      arbiter_(params.regfile.numBanks),
      collectors_(params.numCollectors),
      compPool_(params.numCompressors, params.compressLatency),
      decompPool_(params.numDecompressors, params.decompressLatency),
      simtDispatch_(params.simtDispatch),
      memDispatch_(params.memDispatch),
      fex_(gmem, cmem),
      warps_(params.maxWarps),
      ctas_(params.maxCtas),
      meter_(energy,
             params.compressionEnabled() ? params.numCompressors : 0,
             params.compressionEnabled() ? params.numDecompressors : 0)
{
    WC_ASSERT(dims.blockDim >= 1 && dims.blockDim <= params.maxThreads,
              "CTA size " << dims.blockDim << " unsupported");
    meter_.setRfcPresent(rfc_.enabled());
    // With stuck-at faults and no tolerance policy, corrupted address
    // registers produce wild memory accesses; contain them as detected
    // unrecoverable faults instead of panicking the simulation.
    if (rf_.faultMap() != nullptr &&
        rf_.faultPolicy() == FaultPolicy::None)
        fex_.enableFaultContainment();
    // Same containment for transient flips that can silently reach
    // architectural state (Unprotected / Scrub-only SEU schemes).
    if (const SeuEngine *e = rf_.seu()) {
        seuEcc_ = e->params().eccEnabled();
        meter_.setEccPresent(seuEcc_);
        if (e->params().canCorrupt())
            fex_.enableFaultContainment();
    }
    // Steady-state cycle loop is allocation-free: pre-size the exec
    // list to its bound (every in-flight op holds either an MSHR slot
    // or a collector-dispatched short-latency op) and the launch
    // scratch to the warp count.
    execList_.reserve(params.mem.maxOutstanding + params.maxWarps);
    execReady_.reserve(execList_.capacity());
    launchSlots_.reserve(params.maxWarps);
    // Scheduler s owns warp slots s, s + n, s + 2n, ... (schedulerOf).
    WC_ASSERT(params_.numSchedulers >= 1, "an SM needs a warp scheduler");
    for (u32 s = 0; s < params_.numSchedulers; ++s) {
        std::vector<u32> slots;
        for (u32 w = s; w < params_.maxWarps; w += params_.numSchedulers)
            slots.push_back(w);
        schedulers_.emplace_back(params_.sched, std::move(slots));
    }
}

u32
Sm::freeSmemBytes() const
{
    u32 used = 0;
    for (const Cta &c : ctas_) {
        if (c.active)
            used += kernel_.smemBytes();
    }
    return params_.smemBytes - used;
}

bool
Sm::tryLaunchCta(u32 cta_id, Cycle now)
{
    // Every CTA of one launch has the same resource footprint, and
    // resources are only returned at CTA completion (which clears the
    // flag): a failed attempt stays failed, skip the rescans.
    if (launchBlocked_)
        return false;

    const u32 warps_per_cta = ceilDiv(dims_.blockDim, kWarpSize);
    WC_ASSERT(warps_per_cta <= params_.maxWarps,
              "CTA needs more warps than the SM has");

    // Resident-CTA slot.
    u32 cta_slot = ~0u;
    for (u32 i = 0; i < ctas_.size(); ++i) {
        if (!ctas_[i].active) {
            cta_slot = i;
            break;
        }
    }
    if (cta_slot == ~0u) {
        launchBlocked_ = true;
        return false;
    }

    // Threads and shared memory.
    u32 resident_threads = 0;
    for (const Cta &c : ctas_) {
        if (c.active)
            resident_threads += dims_.blockDim;
    }
    if (resident_threads + dims_.blockDim > params_.maxThreads) {
        launchBlocked_ = true;
        return false;
    }
    if (kernel_.smemBytes() > freeSmemBytes()) {
        launchBlocked_ = true;
        return false;
    }

    // Free warp slots.
    std::vector<u32> &slots = launchSlots_;
    slots.clear();
    for (u32 s = 0; s < warps_.size() &&
         slots.size() < warps_per_cta; ++s) {
        if (warps_[s].status() == Warp::Status::Idle)
            slots.push_back(s);
    }
    if (slots.size() < warps_per_cta) {
        launchBlocked_ = true;
        return false;
    }

    // Register allocation, with rollback on partial failure. Later
    // waves launch at now > 0; the allocation timestamp must be the
    // real cycle or gated banks see time run backwards on wakeup.
    u32 allocated = 0;
    for (; allocated < warps_per_cta; ++allocated) {
        if (!rf_.allocate(slots[allocated], kernel_.numRegs(), now)) {
            for (u32 a = 0; a < allocated; ++a)
                rf_.release(slots[a], now);
            launchBlocked_ = true;
            return false;
        }
    }

    Cta &cta = ctas_[cta_slot];
    cta.active = true;
    cta.ctaId = cta_id;
    cta.warpSlots = slots;
    cta.liveWarps = warps_per_cta;
    cta.atBarrier = 0;
    cta.inFlight = 0;
    cta.smem = kernel_.smemBytes() > 0
        ? std::make_unique<SharedMemory>(kernel_.smemBytes()) : nullptr;

    u32 remaining = dims_.blockDim;
    for (u32 w = 0; w < warps_per_cta; ++w) {
        const u32 lanes = std::min(remaining, kWarpSize);
        remaining -= lanes;
        warps_[slots[w]].launch(kernel_, cta_slot, cta_id, w, lanes,
                                ageCounter_++);
        schedulerOf(slots[w]).unblock(slots[w]);
    }
    // Fresh warps can issue immediately: drop the uneventful-span
    // cache so the next cycle takes the full path, and re-derive the
    // GTO oldest-first order (new age stamps).
    nextEvent_ = 0;
    issueCandidate_ = true;
    for (WarpScheduler &sched : schedulers_)
        sched.invalidateOrder();
    return true;
}

bool
Sm::busy() const
{
    for (const Cta &c : ctas_) {
        if (c.active)
            return true;
    }
    return false;
}

inline void
Sm::accountSpan(Cycle from, Cycle to)
{
    meter_.addCycles(to - from);
    // The bank state is constant over the span: a stepped cycle
    // accounts after its own accesses and gate transitions, and nothing
    // touches a bank inside a skipped span, so the closed form is
    // exact. A bank is gated when it is neither active nor drowsy.
    u64 active = 0;
    u64 drowsy = 0;
    rf_.activitySpan(from, to, active, drowsy);
    meter_.addAwakeBankCycles(active);
    meter_.addDrowsyBankCycles(drowsy);
    if (obs_ != nullptr) {
        const u32 total = params_.regfile.numBanks;
        obs_->onCycleSpan(obsSmId_, total - rf_.awakeBanks(), total, from,
                          to);
    }
}

void
Sm::cycle(Cycle now)
{
    // A cycle below the cached next event is provably uneventful
    // (nothing ready, nothing issuable, no collector in flight): only
    // the per-cycle streams run. nextEventCycle caps the cache at scrub
    // ticks, so scrubTick work never lands here.
    if (now < nextEvent_) {
        skipCycles(now, now + 1);
        return;
    }
    if (SeuEngine *e = rf_.seu())
        stepSeu(*e, now);
    if (busy()) {
        arbiter_.newCycle();
        stepWritebackAndExec(now);
        stepCollect(now);
        stepIssue(now);
    }
    nextEvent_ = nextEventCycle(now + 1);
    accountSpan(now, now + 1);
}

Cycle
Sm::nextEventCycle(Cycle now)
{
    // Precondition: called at the end of a fully executed cycle
    // (cycle now - 1), so noIssuable_ and execMinReady_ reflect the
    // state the next cycle will see.
    Cycle ev = kNoEvent;
    if (busy()) {
        // Operand collectors retry bank reads, decompressor slots, and
        // dispatch ports every cycle: any occupied collector means the
        // very next cycle can make progress.
        if (!collectors_.occupiedOrder().empty())
            return now;

        // The issue scan this cycle was complete (every scheduler
        // probed every slot) and fruitless, and nothing after it could
        // unblock a warp; a fresh scan would find the same answer.
        if (!noIssuable_)
            return now;

        // In-flight ops act at execMinReady_ (maintained as
        // max(readyAt, retry cycle) by the writeback walk).
        ev = execMinReady_;

        // A busy SM always has a future event (barriers release at
        // issue time, so all-at-barrier implies an in-flight release
        // already happened). Never skip on an unmodeled dependency.
        if (ev == kNoEvent)
            return now;
        WC_ASSERT(ev >= now, "stale exec-list ready cache");
    }

    // The scrub engine advances its cursor and counters at every
    // interval tick, even over an otherwise idle SM: cap the skip so
    // tick cycles always execute normally.
    if (const SeuEngine *e = rf_.seu();
        e != nullptr && e->params().scrubEnabled()) {
        const Cycle interval = e->params().scrubInterval;
        const Cycle tick = (now != 0 && now % interval == 0)
            ? now
            : (now / interval + 1) * interval;
        ev = std::min(ev, tick);
    }
    return ev;
}

void
Sm::skipCycles(Cycle from, Cycle to)
{
    WC_ASSERT(to >= from, "skip span runs backwards");
    // The flip stream is a per-cycle function of (seed, cycle): replay
    // it so pending flips accumulate bit-identically to per-cycle
    // stepping. Scrub ticks never fall inside a span (nextEventCycle
    // caps at them), and scrubTick is a pure no-op off-tick.
    if (SeuEngine *e = rf_.seu()) {
        for (Cycle c = from; c < to; ++c)
            e->sampleCycle(c);
    }
    accountSpan(from, to);
}

void
Sm::attachObs(ObsRun *obs, u16 sm_id)
{
    obs_ = obs;
    obsSmId_ = sm_id;
    rf_.attachObs(obs, sm_id);
}

void
Sm::stepSeu(SeuEngine &seu, Cycle now)
{
    seu.sampleCycle(now);
    const SeuEngine::ScrubVisit v = seu.scrubTick(now);
    if (v.banks == 0)
        return;
    // The scrubber reads the live row and writes it back (re-encoding
    // the check bits when ECC is present). It runs beside the arbiter
    // on spare port cycles, so only energy is charged, not bandwidth.
    for (u32 b = 0; b < v.banks; ++b) {
        rf_.noteBankRead(v.firstBank + b, now);
        rf_.noteBankWrite(v.firstBank + b, now);
    }
    meter_.addBankReads(v.banks);
    meter_.addBankWrites(v.banks);
    if (seuEcc_) {
        meter_.addEccDecodes(1);
        meter_.addEccEncodes(1);
    }
    if (obs_ != nullptr)
        obs_->onScrubVisit(obsSmId_, static_cast<u16>(v.firstBank),
                           v.banks, now);
}

void
Sm::resolveSeuRead(SeuEngine &seu, u32 slot, u32 reg, Cycle now)
{
    const SeuEngine::ReadResolution res = seu.resolveRead(slot, reg);
    if (!res.corrupt)
        return;

    // XOR the pending flips into the bytes the banks hold and decode
    // back. A flipped byte inside a BDI base or delta corrupts every
    // lane that chunk feeds: the amplification the paper's reliability
    // tradeoff has to own.
    Warp &w = warps_[slot];
    const WarpRegValue before = w.reg(reg);
    BdiEncoded stored = storedImage(before, rf_.isCompressed(slot, reg),
                                    params_.scheme);
    // Flip positions were recorded against the stored extent; a
    // position beyond the stored size (possible only after composed
    // stuck-at corruption changed compressibility) is dropped.
    for (u32 i = 0; i < res.tracked; ++i) {
        const u32 byte = res.pos[i] / 8;
        if (byte < stored.sizeBytes())
            stored.bytes[byte] ^= static_cast<u8>(1u << (res.pos[i] % 8));
    }
    const WarpRegValue after = fromBytes(bdiDecompress(stored));

    u32 lanes = 0;
    for (u32 l = 0; l < kWarpSize; ++l) {
        if (after[l] != before[l])
            ++lanes;
    }
    if (lanes == 0)
        return;
    w.reg(reg) = after;
    const bool amplified = stored.compressed;
    seu.noteCorruption(lanes, amplified);
    if (obs_ != nullptr)
        obs_->onSeuCorruption(obsSmId_, static_cast<u16>(slot), lanes,
                              amplified, now);
}

void
Sm::finishInFlight(InFlight &f, Cycle now)
{
    // Completion releases scoreboard entries (the callers) and CTA
    // in-flight counts; both can unblock issue.
    issueCandidate_ = true;
    schedulerOf(f.warpSlot).unblock(f.warpSlot);
    f.stage = InFlight::Stage::Done;
    Cta &cta = ctas_[warps_[f.warpSlot].ctaSlot()];
    WC_ASSERT(cta.inFlight > 0, "in-flight underflow");
    --cta.inFlight;
    maybeCompleteCta(warps_[f.warpSlot].ctaSlot(), now);
}

InFlight *
Sm::allocFlight()
{
    if (flightFree_.empty())
        return &flightSlab_.emplace_back();
    InFlight *f = flightFree_.back();
    flightFree_.pop_back();
    f->resetForIssue();
    return f;
}

void
Sm::freeFlight(InFlight *f)
{
    flightFree_.push_back(f);
}

void
Sm::stepWritebackAndExec(Cycle now)
{
    // Nothing in flight is due yet: the walk below would visit every
    // entry and do nothing.
    if (execMinReady_ > now)
        return;

    Cycle min_ready = kNoEvent;
    for (std::size_t i = 0; i < execList_.size();) {
        // Not due: neither stage below can act on the entry this cycle,
        // so its InFlight stays untouched.
        if (execReady_[i] > now) {
            min_ready = std::min(min_ready, execReady_[i]);
            ++i;
            continue;
        }
        InFlight &f = *execList_[i];

        if (f.stage == InFlight::Stage::Exec && now >= f.readyAt) {
            if (f.inst.isMemory() && !f.memReleased) {
                WC_ASSERT(outstandingMem_ > 0, "MSHR underflow");
                --outstandingMem_;
                f.memReleased = true;
                // A freed MSHR slot can unblock memory issue.
                issueCandidate_ = true;
            }
            if (!f.writesBack) {
                // Stores, compares, zero-mask writers: nothing reaches
                // the register banks.
                if (f.inst.dstPred != kNoPred)
                    scoreboard_.releasePred(f.warpSlot, f.inst.dstPred);
                if (f.inst.hasDst())
                    scoreboard_.releaseReg(f.warpSlot, f.inst.dst);
                finishInFlight(f, now);
            } else if (params_.compressionEnabled() && !f.divergentWrite) {
                // Full-mask writes pass through a compressor unit.
                if (const auto done = compPool_.tryIssue(now)) {
                    meter_.addCompActivations(1);
                    f.stage = InFlight::Stage::Writeback;
                    f.readyAt = *done;
                }
                // else: every compressor accepted an op this cycle;
                // retry next cycle.
            } else {
                f.stage = InFlight::Stage::Writeback;
                f.readyAt = now;
            }
        }

        // Intentional same-cycle Exec -> Writeback fall-through: an
        // entry the block above just promoted with readyAt == now (the
        // compression-disabled and divergent-write paths) writes back
        // this very cycle — zero-latency writeback is the modeled
        // baseline, and compressLatency adds on top of it. The
        // `now >= f.readyAt` re-test is what stops a double advance:
        // when a compressor assigned readyAt = now + compressLatency,
        // the promoted entry is skipped here and again on every walk
        // until its readyAt arrives (test_pipeline_latency.cpp pins
        // both behaviours).
        if (f.stage == InFlight::Stage::Writeback && now >= f.readyAt) {
            if (!f.wbRecorded) {
                auto [ready, acc] = rf_.recordWrite(f.warpSlot, f.inst.dst,
                                                    f.choice, now);
                f.wbRecorded = true;
                f.writeAcc = acc;
                if (ready > now) {
                    // Gated banks are waking up for this write.
                    f.readyAt = ready;
                }
            }
            if (now >= f.readyAt &&
                arbiter_.tryWriteRange(f.writeAcc.firstBank,
                                       f.writeAcc.numBanks)) {
                meter_.addBankWrites(f.writeAcc.numBanks);
                if (obs_ != nullptr)
                    obs_->onWriteback(obsSmId_,
                                      static_cast<u16>(f.warpSlot),
                                      f.writeAcc.numBanks,
                                      f.writeAcc.compressed, now);
                if (seuEcc_)
                    meter_.addEccEncodes(1);
                if (f.writeAcc.compressed)
                    ++stats_.writesStoredCompressed;
                if (f.writeAcc.remapped)
                    meter_.addRemapAccesses(1);
                // Fault injection, policy None: the stored image passes
                // through stuck cells unmitigated. Any change becomes
                // architectural state (decompression of a corrupted
                // payload amplifies the damage, exactly as in hardware).
                if (const FaultMap *fm = rf_.faultMap();
                    fm != nullptr &&
                    rf_.faultPolicy() == FaultPolicy::None) {
                    WarpRegValue &value = warps_[f.warpSlot].reg(f.inst.dst);
                    BdiEncoded stored = storedImage(
                        value, f.choice.compressed, params_.scheme);
                    if (fm->corrupt(f.writeAcc.firstBank,
                                    f.writeAcc.entry,
                                    stored.bytes.data(),
                                    stored.bytes.size())) {
                        rf_.noteCorruptedWrite();
                        value = fromBytes(bdiDecompress(stored));
                        if (obs_ != nullptr)
                            obs_->onFaultCorruptedWrite(
                                obsSmId_, static_cast<u16>(f.warpSlot),
                                now);
                    }
                }
                if (rfc_.enabled()) {
                    // Write-allocate into the register file cache.
                    rfc_.fill(f.warpSlot, f.inst.dst);
                    meter_.addRfcAccesses(1);
                }
                scoreboard_.releaseReg(f.warpSlot, f.inst.dst);
                finishInFlight(f, now);
            }
        }

        if (f.stage == InFlight::Stage::Done) {
            freeFlight(execList_[i]);
            execList_[i] = execList_.back();
            execList_.pop_back();
            execReady_[i] = execReady_.back();
            execReady_.pop_back();
        } else {
            // Entries blocked this cycle (compressor pool, arbiter
            // conflict) retry next cycle; future entries act at their
            // readyAt.
            execReady_[i] = f.readyAt;
            min_ready = std::min(min_ready,
                                 std::max(f.readyAt, now + 1));
            ++i;
        }
    }
    execMinReady_ = min_ready;
}

void
Sm::stepCollect(Cycle now)
{
    // Iterate the pool's occupancy order in place. take() erases
    // exactly the entry at the current position (indices are unique),
    // shifting the tail left, so the cursor only advances when the
    // current unit stays occupied — no per-cycle snapshot copy, same
    // visit order as the old copied snapshot (inserts happen in
    // stepIssue, never during this walk).
    const std::vector<u32> &order = collectors_.occupiedOrder();
    for (std::size_t i = 0; i < order.size();) {
        const u32 idx = order[i];
        InFlight *f = collectors_.at(idx);
        WC_ASSERT(f != nullptr, "stale collector index");

        for (u32 o = 0; o < f->numOps; ++o) {
            InFlight::OpFetch &op = f->ops[o];
            while (!op.done()) {
                const u32 bank = op.acc.firstBank + op.granted;
                if (!arbiter_.tryRead(bank)) {
                    if (obs_ != nullptr)
                        obs_->onBankConflict(obsSmId_,
                                             static_cast<u16>(bank),
                                             static_cast<u16>(
                                                 f->warpSlot),
                                             now);
                    break;
                }
                ++op.granted;
                meter_.addBankReads(1);
                rf_.noteBankRead(bank, now);
                // SEC-DED decode once per completed row fetch.
                if (seuEcc_ && op.done())
                    meter_.addEccDecodes(1);
            }
        }
        if (!f->collected()) {
            ++i;
            continue;
        }

        if (params_.compressionEnabled()) {
            while (f->decompIssued < f->compressedSrcs) {
                const auto done = decompPool_.tryIssue(now);
                if (!done)
                    break;
                meter_.addDecompActivations(1);
                if (obs_ != nullptr)
                    obs_->onDecompress(obsSmId_,
                                       static_cast<u16>(f->warpSlot),
                                       now);
                f->decompReadyAt = std::max(f->decompReadyAt, *done);
                ++f->decompIssued;
            }
            if (f->decompIssued < f->compressedSrcs ||
                now < f->decompReadyAt) {
                ++i;
                continue;
            }
        }

        DispatchLimiter &lim = f->inst.isMemory() ? memDispatch_
                                                  : simtDispatch_;
        if (!lim.tryDispatch(now)) {
            ++i;
            continue;
        }

        InFlight *moved = collectors_.take(idx);
        // A freed collector can unblock pipeline-bound issue.
        issueCandidate_ = true;
        if (obs_ != nullptr)
            obs_->onOperandCollect(obsSmId_,
                                   static_cast<u16>(moved->warpSlot),
                                   moved->numOps, moved->compressedSrcs,
                                   now);
        moved->stage = InFlight::Stage::Exec;
        moved->readyAt = now + (moved->inst.isMemory()
                                ? moved->memLatency
                                : resultLatency(moved->inst.op));
        execMinReady_ = std::min(execMinReady_,
                                 std::max(moved->readyAt, now + 1));
        execList_.push_back(moved);
        execReady_.push_back(moved->readyAt);
    }
}

bool
Sm::canIssueFrom(WarpScheduler &sched, u32 slot)
{
    const Warp &w = warps_[slot];
    if (!w.schedulable()) {
        sched.block(slot);
        return false;
    }
    const Instruction &inst = kernel_.at(w.stack().pc());
    if (!scoreboard_.canIssue(slot, inst)) {
        sched.block(slot);
        return false;
    }
    if (inst.sbPipeline && !collectors_.hasFree())
        return false;
    if (inst.sbMemory && outstandingMem_ >= params_.mem.maxOutstanding)
        return false;
    return true;
}

void
Sm::stepIssue(Cycle now)
{
    // The last complete scan found nothing issuable and no event since
    // could unblock a warp (see issueCandidate_): the answer is still
    // "nothing".
    if (!issueCandidate_) {
        noIssuable_ = true;
        return;
    }

    bool issued_any = false;
    for (WarpScheduler &sched : schedulers_) {
        const i32 slot = sched.pick(
            [this, &sched](u32 s) { return canIssueFrom(sched, s); },
            [this](u32 s) { return warps_[s].ageStamp(); });
        if (slot < 0)
            continue;
        issueFrom(static_cast<u32>(slot), now);
        sched.noteIssued(static_cast<u32>(slot));
        issued_any = true;
    }
    // pick() == -1 means that scheduler probed every unblocked slot it
    // owns (blocked ones are unissuable by construction); if
    // none issued anywhere, the combined scan was complete and the
    // outcome stays valid until an unblocking event flips
    // issueCandidate_ back on.
    noIssuable_ = !issued_any;
    issueCandidate_ = issued_any;
}

void
Sm::recordWriteStats(const Warp &warp, const Instruction &inst,
                     LaneMask eff, bool divergent,
                     std::span<const u8> img, const BdiChoice &choice,
                     const LaneScan &scan)
{
    // A full-mask write's Fig 2 bins come from the same lane pass that
    // fed the encoder.
    if (eff == kFullMask)
        stats_.simBins.recordScanned(scan, divergent);
    else
        stats_.simBins.record(warp.reg(inst.dst), eff, divergent);

    // Potential compressibility of the merged register (Fig 8 semantics:
    // divergent writes measured as decompress-update-recompress). The
    // decision is made once by the caller and shared with the bank
    // write path.
    stats_.ratio.record(choice.sizeBytes, divergent);

    if (collectBdi_) {
        const auto best = bdiBestParams(img, fullBdiCandidates());
        u32 idx = 7;
        if (best.has_value()) {
            const auto all = fullBdiCandidates();
            for (u32 i = 0; i < all.size(); ++i) {
                if (all[i] == *best)
                    idx = i;
            }
        }
        ++stats_.bdiSelect[idx];
    }
}

void
Sm::setupRead(InFlight &f, u32 op, u32 slot, u32 reg)
{
    RegAccess &acc = f.ops[op].acc;
    acc = rf_.readAccess(slot, reg);
    if (acc.compressed)
        ++f.compressedSrcs;
    if (acc.remapped) {
        rf_.noteRemapRead();
        meter_.addRemapAccesses(1);
    }
}

void
Sm::issueDummyMov(u32 slot, u8 dst, Cycle now)
{
    Warp &w = warps_[slot];

    // The MOV reads dst's current value below; pending flips must land
    // first so the decompress-MOV reads what the banks actually hold.
    if (SeuEngine *e = rf_.seu(); e != nullptr && e->hasPending())
        resolveSeuRead(*e, slot, dst, now);

    ++stats_.issued;
    ++stats_.dummyMovs;
    if (obs_ != nullptr)
        obs_->onDummyMov(obsSmId_, static_cast<u16>(slot), dst, now);

    Instruction mov;
    mov.op = Opcode::Mov;
    mov.dst = dst;
    mov.src[0] = Operand::fromReg(dst);
    mov.finalizeIssueMasks();

    InFlight &f = *allocFlight();
    f.inst = mov;
    f.warpSlot = slot;
    f.effMask = w.fullMask();
    f.dummyMov = true;
    // The decompress-MOV always stores back uncompressed (Sec. 5.2).
    f.divergentWrite = true;
    f.writesBack = true;
    f.numOps = 1;
    setupRead(f, 0, slot, dst);

    f.choice = BdiChoice{};

    scoreboard_.reserve(slot, mov);
    ++ctas_[w.ctaSlot()].inFlight;
    collectors_.insert(&f);
}

void
Sm::issueFrom(u32 slot, Cycle now)
{
    Warp &w = warps_[slot];
    const u32 pc = w.stack().pc();
    const Instruction &inst = kernel_.at(pc);
    const LaneMask active = w.stack().mask();
    const LaneMask eff = w.guardLanes(inst, active);
    const bool divergent = active != w.fullMask();

    // Divergent update of a compressed destination: decompress first
    // via an injected MOV; the real instruction issues once the MOV's
    // writeback releases the scoreboard (Sec. 5.2). The MergeRecompress
    // ablation instead folds the old content into the write below.
    if (params_.compressionEnabled() &&
        params_.divPolicy == DivergencePolicy::WriteUncompressed &&
        inst.hasDst() && eff != 0 && eff != w.fullMask() &&
        rf_.isCompressed(slot, inst.dst)) {
        issueDummyMov(slot, inst.dst, now);
        return;
    }

    ++stats_.issued;
    if (divergent)
        ++stats_.issuedDivergent;
    if (obs_ != nullptr)
        obs_->onWarpIssue(obsSmId_, static_cast<u16>(slot), pc,
                          popcount(active), now);

    // Fig 12 sampling: compressed share of the allocated registers,
    // attributed to the issuing warp's phase.
    {
        const auto [comp, written] = rf_.compressedCensus();
        (void)written;
        const u32 alloc = rf_.allocatedRegs();
        if (alloc > 0) {
            const u32 phase = divergent ? kDivergent : kNonDivergent;
            stats_.compressedFracSum[phase] +=
                static_cast<double>(comp) / static_cast<double>(alloc);
            ++stats_.compressedFracSamples[phase];
        }
    }

    // Transient flips resolve at the read port: every register value
    // the instruction consumes settles before the functional execute.
    // A partial write also "reads" the inactive lanes of its
    // destination (they retain the stored value), so pending flips
    // there become architectural too.
    if (SeuEngine *e = rf_.seu(); e != nullptr && e->hasPending()) {
        const u32 nsrc = inst.numRegSources();
        for (u32 i = 0; i < nsrc; ++i)
            resolveSeuRead(*e, slot, inst.regSource(i), now);
        if (inst.hasDst() && eff != 0 && eff != w.fullMask() &&
            rf_.isWritten(slot, inst.dst))
            resolveSeuRead(*e, slot, inst.dst, now);
    }

    Cta &cta = ctas_[w.ctaSlot()];
    SharedMemory *smem = cta.smem.get();
    const ExecOutcome out = fex_.execute(w, pc, smem, dims_, now);
    // The SIMT stack only changes inside execute, so reconverged
    // entries are popped eagerly here — the next fetch (any later
    // cycle) sees the post-reconvergence pc/mask without a per-cycle
    // sweep over every warp slot.
    w.stack().popReconverged();

    if (inst.isBarrier()) {
        w.setStatus(Warp::Status::AtBarrier);
        ++cta.atBarrier;
        tryReleaseBarrier(cta);
        return;
    }
    if (out.warpFinished) {
        w.setStatus(Warp::Status::Finished);
        WC_ASSERT(cta.liveWarps > 0, "live-warp underflow");
        --cta.liveWarps;
        tryReleaseBarrier(cta);
        maybeCompleteCta(w.ctaSlot(), now);
        // The warp may still have writes in flight; CTA teardown waits
        // for cta.inFlight to drain.
    }
    if (!inst.sbPipeline)
        return;

    InFlight &f = *allocFlight();
    f.inst = inst;
    f.warpSlot = slot;
    f.effMask = eff;
    f.divergentWrite = inst.hasDst() && eff != w.fullMask();
    f.writesBack = inst.hasDst() && eff != 0;

    const u32 nsrc = inst.numRegSources();
    f.numOps = nsrc;
    for (u32 i = 0; i < nsrc; ++i) {
        // A register-file-cache hit satisfies the operand without
        // touching any bank (comparator mode; disabled by default).
        if (rfc_.enabled() && rfc_.lookup(slot, inst.regSource(i))) {
            meter_.addRfcAccesses(1);
            continue;           // acc stays zero-bank
        }
        setupRead(f, i, slot, inst.regSource(i));
    }

    // MergeRecompress: a divergent write also fetches the destination's
    // current content (read + possible decompression through the merge
    // buffer) and then recompresses the merged register.
    if (f.divergentWrite && f.writesBack &&
        params_.compressionEnabled() &&
        params_.divPolicy == DivergencePolicy::MergeRecompress) {
        f.divergentWrite = false;       // take the compression path
        bool dup = false;
        for (u32 i = 0; i < nsrc; ++i) {
            if (inst.regSource(i) == inst.dst)
                dup = true;
        }
        if (!dup && rf_.isWritten(slot, inst.dst))
            setupRead(f, f.numOps++, slot, inst.dst);
    }

    if (inst.isMemory()) {
        ++outstandingMem_;
        if (eff == 0) {
            f.memLatency = params_.mem.zeroMaskLatency;
        } else if (inst.op == Opcode::Ldg || inst.op == Opcode::Stg) {
            const u32 segs = coalescedSegments(out.addrs, eff);
            f.memLatency = globalAccessLatency(params_.mem, segs);
        } else if (inst.op == Opcode::Lds || inst.op == Opcode::Sts) {
            const u32 deg = sharedConflictDegree(out.addrs, eff);
            f.memLatency = sharedAccessLatency(params_.mem, deg);
        } else {
            f.memLatency = params_.mem.constLatency;
        }
    }

    if (f.writesBack) {
        ++stats_.regWrites;
        if (divergent)
            ++stats_.regWritesDivergent;

        // Scan the written register and decide its compression exactly
        // once: one lane pass feeds the decision's base-4 fits and the
        // Fig 2 bins, and the same decision feeds the Fig 8 ratio stats
        // and the bank write. Under the None scheme the stats still
        // measure potential compressibility over the warped candidates
        // while the write stays raw, so the candidate list below
        // matches what recordWriteStats always used; for every enabled
        // scheme it equals the write path's schemeCandidates(scheme).
        const WarpRegValue &value = w.reg(inst.dst);
        const LaneScan scan = scanLanes(value);
        const auto img = regBytes(value);
        const auto cands = params_.scheme == CompressionScheme::None
            ? warpedCandidates() : schemeCandidates(params_.scheme);
        const BdiChoice choice = bdiChoose(img, cands, scan.fits4);
        recordWriteStats(w, inst, eff, divergent, img, choice, scan);
        const bool stores_compressed =
            params_.compressionEnabled() && !f.divergentWrite;
        f.choice = stores_compressed ? choice : BdiChoice{};
        if (obs_ != nullptr)
            obs_->onCompressDecision(
                obsSmId_, static_cast<u16>(slot), choice.sizeBytes,
                f.choice.sizeBytes, static_cast<u16>(inst.dst), now);
    }

    scoreboard_.reserve(slot, inst);
    ++cta.inFlight;
    collectors_.insert(&f);
}

void
Sm::tryReleaseBarrier(Cta &cta)
{
    if (cta.liveWarps == 0 || cta.atBarrier < cta.liveWarps)
        return;
    for (u32 s : cta.warpSlots) {
        if (warps_[s].status() == Warp::Status::AtBarrier) {
            warps_[s].setStatus(Warp::Status::Running);
            schedulerOf(s).unblock(s);
        }
    }
    cta.atBarrier = 0;
}

void
Sm::maybeCompleteCta(u32 cta_slot, Cycle now)
{
    Cta &cta = ctas_[cta_slot];
    if (!cta.active || cta.liveWarps != 0 || cta.inFlight != 0)
        return;
    for (u32 s : cta.warpSlots) {
        WC_ASSERT(scoreboard_.idle(s),
                  "completing CTA with pending scoreboard entries");
        scoreboard_.clearWarp(s);
        rfc_.clearWarp(s);
        rf_.release(s, now);
        warps_[s].reset();
    }
    cta.smem.reset();
    cta.active = false;
    cta.warpSlots.clear();
    ++ctasCompleted_;
    // Freed warp slots / registers / smem: launches may succeed again.
    launchBlocked_ = false;
}

} // namespace warpcomp
