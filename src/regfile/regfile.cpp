#include "regfile/regfile.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace warpcomp {

RegisterFile::RegisterFile(const RegFileParams &params,
                           const FaultParams &faults,
                           const SeuParams &seu)
    : params_(params),
      banks_(params.numBanks, params.entriesPerBank, params.wakeupLatency,
             params.gatingEnabled),
      store_(params.numClusters(), params.entriesPerBank)
{
    WC_ASSERT(params.numBanks % kBanksPerWarpReg == 0,
              "bank count must be a multiple of " << kBanksPerWarpReg);
    WC_ASSERT(params.numBanks > 0 && params.entriesPerBank > 0,
              "degenerate register file");
    regs_.resize(params.totalWarpRegs());
    if (seu.enabled())
        seu_ = std::make_unique<SeuEngine>(*this, seu);

    const u32 total = params.totalWarpRegs();
    faultStats_.totalRegs = total;
    faultStats_.usableRegs = total;
    if (faults.enabled()) {
        faults_ = std::make_unique<FaultMap>(
            params.numBanks, params.entriesPerBank, faults.ber,
            faults.seed);
        faultPolicy_ = faults.policy;
        faultStats_.faultyCells = faults_->faultyCells();

        // Static capacity census under the configured policy: None and
        // DisableEntry can only trust fully healthy stripes, while
        // CompressRemap also salvages stripes whose healthy prefix can
        // still host a compressed register.
        u32 healthy = 0, compress_usable = 0;
        for (u32 id = 0; id < total; ++id) {
            const RegSlot s = slotOf(id);
            const u32 prefix =
                faults_->healthyPrefixBytes(s.firstBank(), s.entry);
            if (prefix == kWarpRegBytes)
                ++healthy;
            if (prefix >= FaultMap::kMinCompressedBytes)
                ++compress_usable;
        }
        faultStats_.usableRegs =
            faultPolicy_ == FaultPolicy::CompressRemap ? compress_usable
                                                       : healthy;

        if (faultPolicy_ == FaultPolicy::DisableEntry) {
            // Faulty stripes leave the allocator entirely; the healthy
            // ids no longer form contiguous ranges, so allocation
            // switches to the explicit free-id list.
            idAlloc_ = true;
            freeIds_.reserve(healthy);
            for (u32 id = 0; id < total; ++id) {
                const RegSlot s = slotOf(id);
                if (!faults_->stripeFaulty(s.firstBank(), s.entry))
                    freeIds_.push_back(id);
            }
            faultStats_.disabledRegs = total - healthy;
            return;
        }
    }
    freeRanges_.emplace_back(0, total);
}

bool
RegisterFile::canAllocate(u32 num_regs) const
{
    if (idAlloc_)
        return freeIds_.size() >= num_regs;
    for (const auto &[base, count] : freeRanges_) {
        (void)base;
        if (count >= num_regs)
            return true;
    }
    return false;
}

bool
RegisterFile::allocate(u32 warp_slot, u32 num_regs, Cycle now)
{
    WC_ASSERT(num_regs > 0, "allocating zero registers");
    if (warp_slot >= slots_.size())
        slots_.resize(warp_slot + 1);
    WC_ASSERT(!slots_[warp_slot].active,
              "warp slot " << warp_slot << " already allocated");

    if (idAlloc_) {
        // DisableEntry mode: hand out the lowest healthy ids. The slot
        // keeps an explicit id list because faulty stripes fragment the
        // id space.
        if (freeIds_.size() < num_regs)
            return false;
        SlotAlloc &slot = slots_[warp_slot];
        slot.ids.assign(freeIds_.begin(), freeIds_.begin() + num_regs);
        freeIds_.erase(freeIds_.begin(), freeIds_.begin() + num_regs);
        slot.base = 0;
        slot.count = num_regs;
        slot.active = true;
        allocatedRegs_ += num_regs;

        if (params_.validAtAlloc) {
            for (u32 id : slot.ids) {
                const RegSlot s = slotOf(id);
                for (u32 b = 0; b < kBanksPerWarpReg; ++b) {
                    banks_.wake(s.firstBank() + b, now);
                    banks_.setValid(s.firstBank() + b, s.entry, true,
                                    now);
                }
            }
        }
        return true;
    }

    for (auto it = freeRanges_.begin(); it != freeRanges_.end(); ++it) {
        if (it->second < num_regs)
            continue;
        const u32 base = it->first;
        it->first += num_regs;
        it->second -= num_regs;
        if (it->second == 0)
            freeRanges_.erase(it);

        slots_[warp_slot].base = base;
        slots_[warp_slot].count = num_regs;
        slots_[warp_slot].active = true;
        allocatedRegs_ += num_regs;

        if (params_.validAtAlloc) {
            // Baseline: every register occupies its full 8-bank stripe
            // from allocation on.
            for (u32 r = 0; r < num_regs; ++r) {
                const RegSlot s = slotOf(base + r);
                for (u32 b = 0; b < kBanksPerWarpReg; ++b) {
                    banks_.wake(s.firstBank() + b, now);
                    banks_.setValid(s.firstBank() + b, s.entry, true,
                                    now);
                }
            }
        }
        return true;
    }
    return false;
}

void
RegisterFile::releaseId(u32 id, Cycle now)
{
    const RegSlot s = slotOf(id);
    // Pending transient flips die with the row's content.
    if (seu_ != nullptr && seu_->hasPending())
        seu_->clearEntry(s.cluster, s.entry);
    store_.clear(rowOf(s));
    // Valid entries of a register form a prefix of its bank stripe:
    // recordWrite sets banks [0, footprint) and clears the rest (all
    // 8 under validAtAlloc). Probing only the prefix makes teardown
    // proportional to the compressed footprint, not the stripe.
    const u32 nb = params_.validAtAlloc ? kBanksPerWarpReg
                                        : footprintBanks(id);
    for (u32 b = 0; b < nb; ++b) {
        const u32 bank = s.firstBank() + b;
        if (banks_.valid(bank, s.entry)) {
            banks_.setValid(bank, s.entry, false, now);
            // A bank holding valid data cannot have been gated, so an
            // off gate here means this invalidation just gated it.
            if (obs_ != nullptr && banks_.isOff(bank, now))
                obs_->onGateOff(smId_, static_cast<u16>(bank), now);
        }
    }
    if (regs_[id].written) {
        --writtenCount_;
        if (regs_[id].ind != RangeIndicator::Uncompressed)
            --compressedCount_;
    }
    regs_[id] = RegState{};
}

void
RegisterFile::release(u32 warp_slot, Cycle now)
{
    WC_ASSERT(warp_slot < slots_.size() && slots_[warp_slot].active,
              "releasing inactive warp slot " << warp_slot);
    SlotAlloc &slot = slots_[warp_slot];

    if (idAlloc_) {
        for (u32 id : slot.ids)
            releaseId(id, now);
        // Merge the slot's (ascending) ids back into the sorted free
        // list. Launch/teardown path: allocation here is fine.
        const std::size_t mid = freeIds_.size();
        freeIds_.insert(freeIds_.end(), slot.ids.begin(),
                        slot.ids.end());
        std::inplace_merge(freeIds_.begin(),
                           freeIds_.begin() + static_cast<long>(mid),
                           freeIds_.end());
        WC_ASSERT(allocatedRegs_ >= slot.count, "allocation underflow");
        allocatedRegs_ -= slot.count;
        slot.ids.clear();
        slot.base = 0;
        slot.count = 0;
        slot.active = false;
        return;
    }

    for (u32 r = 0; r < slot.count; ++r)
        releaseId(slot.base + r, now);

    // Return the range, keeping the free list sorted and coalesced.
    auto pos = std::lower_bound(
        freeRanges_.begin(), freeRanges_.end(),
        std::make_pair(slot.base, 0u),
        [](const auto &a, const auto &b) { return a.first < b.first; });
    pos = freeRanges_.insert(pos, {slot.base, slot.count});
    // Coalesce with successor, then predecessor.
    if (auto next = std::next(pos); next != freeRanges_.end() &&
        pos->first + pos->second == next->first) {
        pos->second += next->second;
        freeRanges_.erase(next);
    }
    if (pos != freeRanges_.begin()) {
        auto prev = std::prev(pos);
        if (prev->first + prev->second == pos->first) {
            prev->second += pos->second;
            freeRanges_.erase(pos);
        }
    }

    WC_ASSERT(allocatedRegs_ >= slot.count, "allocation underflow");
    allocatedRegs_ -= slot.count;
    slot = SlotAlloc{};
}

RegSlot
RegisterFile::locate(u32 warp_slot, u32 reg) const
{
    return slotOf(regId(warp_slot, reg));
}

RangeIndicator
RegisterFile::indicator(u32 warp_slot, u32 reg) const
{
    return regs_[regId(warp_slot, reg)].ind;
}

std::pair<Cycle, RegAccess>
RegisterFile::recordWrite(u32 warp_slot, u32 reg, const BdiEncoded &enc,
                          Cycle now)
{
    const u32 id = regId(warp_slot, reg);
    const RegSlot s = slotOf(id);
    RegState &st = regs_[id];

    // A write replaces the whole row (data and, in the ECC schemes,
    // freshly encoded check bits): accumulated flips are gone. This is
    // also what gives ECC its correct no-detection-if-overwritten
    // semantics.
    if (seu_ != nullptr && seu_->hasPending())
        seu_->clearEntry(s.cluster, s.entry);

    const u32 old_banks = footprintBanks(id);
    const RangeIndicator ind = indicatorFor(enc);
    const u32 new_banks = params_.validAtAlloc ? kBanksPerWarpReg
                                               : indicatorBanks(ind);

    // CompressRemap (RRCD-style): a faulty stripe still hosts the
    // register when the encoded form lies entirely inside the healthy
    // leading bytes; otherwise the write is redirected to a healthy
    // spare entry through the remap table. Either way no corruption can
    // occur. The spare's bank traffic is modeled on the home stripe
    // (same footprint), only the remap-table traffic is extra.
    bool remapped = false;
    if (faults_ != nullptr &&
        faultPolicy_ == FaultPolicy::CompressRemap) {
        const u32 healthy =
            faults_->healthyPrefixBytes(s.firstBank(), s.entry);
        if (healthy < kWarpRegBytes) {
            if (enc.sizeBytes() <= healthy) {
                ++faultStats_.toleratedWrites;
            } else {
                remapped = true;
                ++faultStats_.remapWrites;
            }
        }
    }

    // Wake every bank the write touches; the write completes when the
    // slowest wakeup finishes.
    Cycle ready = now;
    for (u32 b = 0; b < new_banks; ++b) {
        const u32 bank = s.firstBank() + b;
        const bool was_off = banks_.isOff(bank, now);
        ready = std::max(ready, banks_.wake(bank, now));
        if (was_off && obs_ != nullptr)
            obs_->onGateWake(smId_, static_cast<u16>(bank),
                             banks_.gate(bank).wakeupLatency(), now);
    }
    for (u32 b = 0; b < new_banks; ++b) {
        const u32 bank = s.firstBank() + b;
        banks_.noteWrite(bank, now);
        banks_.setValid(bank, s.entry, true, now);
    }
    // A shrinking footprint frees the banks beyond the new extent.
    for (u32 b = new_banks; b < old_banks; ++b) {
        const u32 bank = s.firstBank() + b;
        if (banks_.valid(bank, s.entry)) {
            banks_.setValid(bank, s.entry, false, now);
            if (obs_ != nullptr && banks_.isOff(bank, now))
                obs_->onGateOff(smId_, static_cast<u16>(bank), now);
        }
    }

    // The banks now hold exactly this encoding (fidelity invariant).
    store_.store(rowOf(s), enc);

    if (!st.written) {
        ++writtenCount_;
        if (ind != RangeIndicator::Uncompressed)
            ++compressedCount_;
    } else {
        const bool was = st.ind != RangeIndicator::Uncompressed;
        const bool is = ind != RangeIndicator::Uncompressed;
        if (was && !is)
            --compressedCount_;
        else if (!was && is)
            ++compressedCount_;
    }
    st.written = true;
    st.ind = ind;
    st.remapped = remapped;

    RegAccess a;
    a.firstBank = s.firstBank();
    a.entry = s.entry;
    a.numBanks = new_banks;
    a.compressed = ind != RangeIndicator::Uncompressed;
    a.bytes = enc.sizeBytes();
    a.remapped = remapped;
    return {ready, a};
}

BdiEncoded
RegisterFile::storedEncoding(u32 warp_slot, u32 reg) const
{
    const RegSlot s = locate(warp_slot, reg);
    WC_ASSERT(regs_[regId(warp_slot, reg)].written,
              "stored encoding of an unwritten register");
    return store_.load(rowOf(s));
}

void
RegisterFile::refreshStored(u32 warp_slot, u32 reg,
                            const BdiEncoded &enc)
{
    const RegSlot s = locate(warp_slot, reg);
    store_.store(rowOf(s), enc);
}

RegisterFile::EntryExtent
RegisterFile::entryExtent(u32 cluster, u32 entry) const
{
    const u32 id = entry * params_.numClusters() + cluster;
    const RegState &st = regs_[id];
    if (st.written)
        return {indicatorBytes(st.ind),
                st.ind != RangeIndicator::Uncompressed};
    // Baseline (validAtAlloc): an allocated register exposes its full
    // stripe from allocation on, written or not — the bank valid bit
    // is the allocation witness. The compressed design only ever
    // exposes written bytes, which is the cross-section shrinkage the
    // SEU sweep measures.
    if (params_.validAtAlloc &&
        banks_.valid(cluster * kBanksPerWarpReg, entry))
        return {kWarpRegBytes, false};
    return {};
}

void
RegisterFile::activitySpan(Cycle from, Cycle to, u64 &active,
                           u64 &drowsy) const
{
    banks_.activitySpan(from, to, params_.drowsyEnabled,
                        params_.drowsyAfterCycles, active, drowsy);
}

u64
RegisterFile::gatedCycles(u32 bank, Cycle now) const
{
    WC_ASSERT(bank < banks_.numBanks(), "bank index out of range");
    return banks_.gatedCycles(bank, now);
}

} // namespace warpcomp
