#include "fault/fault.hpp"

#include "common/log.hpp"

namespace warpcomp {

std::string
faultPolicyName(FaultPolicy policy)
{
    const auto i = static_cast<std::size_t>(policy);
    WC_ASSERT(i < std::size(kFaultPolicyNames), "unknown fault policy");
    return kFaultPolicyNames[i];
}

void
FaultStats::merge(const FaultStats &other)
{
    totalRegs += other.totalRegs;
    usableRegs += other.usableRegs;
    disabledRegs += other.disabledRegs;
    faultyCells += other.faultyCells;
    toleratedWrites += other.toleratedWrites;
    remapWrites += other.remapWrites;
    remapReads += other.remapReads;
    corruptedWrites += other.corruptedWrites;
    unrecoverableAccesses += other.unrecoverableAccesses;
}

FaultMap::FaultMap(u32 num_banks, u32 entries_per_bank, double ber,
                   u64 seed)
    : numBanks_(num_banks), entries_(entries_per_bank)
{
    WC_ASSERT(num_banks > 0 && entries_per_bank > 0,
              "degenerate fault map geometry");
    WC_ASSERT(ber >= 0.0 && ber <= 1.0,
              "bit-error rate " << ber << " outside [0, 1]");
    WC_ASSERT(num_banks % kBanksPerWarpReg == 0,
              "bank count must be a multiple of " << kBanksPerWarpReg);

    const u32 bits_per_entry = kBankEntryBytes * 8;
    const std::size_t n_entries =
        static_cast<std::size_t>(num_banks) * entries_per_bank;
    stuck0_.assign(n_entries * 2, 0);
    stuck1_.assign(n_entries * 2, 0);

    // One bernoulli draw per cell, in (bank, entry, bit) order, from a
    // generator owned by this map: the layout is a pure function of
    // (geometry, ber, seed) regardless of who builds it or when.
    Rng rng(seed);
    for (u32 bank = 0; bank < num_banks; ++bank) {
        for (u32 entry = 0; entry < entries_per_bank; ++entry) {
            const std::size_t base =
                (static_cast<std::size_t>(bank) * entries_ + entry) * 2;
            for (u32 bit = 0; bit < bits_per_entry; ++bit) {
                if (!rng.nextBool(ber))
                    continue;
                ++faultyCells_;
                const u64 mask = u64{1} << (bit % 64);
                if ((rng.next() & 1) != 0)
                    stuck1_[base + bit / 64] |= mask;
                else
                    stuck0_[base + bit / 64] |= mask;
            }
        }
    }

    // Cache the healthy prefix of every warp-register stripe.
    const u32 stripes = num_banks / kBanksPerWarpReg;
    healthyPrefix_.assign(
        static_cast<std::size_t>(stripes) * entries_per_bank, 0);
    for (u32 s = 0; s < stripes; ++s) {
        for (u32 entry = 0; entry < entries_per_bank; ++entry) {
            u32 prefix = 0;
            while (prefix < kWarpRegBytes) {
                const u32 bank =
                    s * kBanksPerWarpReg + prefix / kBankEntryBytes;
                const u32 byte = prefix % kBankEntryBytes;
                if ((maskByte(stuck0_, bank, entry, byte) |
                     maskByte(stuck1_, bank, entry, byte)) != 0)
                    break;
                ++prefix;
            }
            healthyPrefix_[static_cast<std::size_t>(s) * entries_ +
                           entry] = static_cast<u8>(prefix);
        }
    }
}

u8
FaultMap::maskByte(const std::vector<u64> &masks, u32 bank, u32 entry,
                   u32 byte_in_entry) const
{
    const std::size_t base =
        (static_cast<std::size_t>(bank) * entries_ + entry) * 2;
    const u64 word = masks[base + byte_in_entry / 8];
    return static_cast<u8>(word >> ((byte_in_entry % 8) * 8));
}

bool
FaultMap::corrupt(u32 first_bank, u32 entry, u8 *bytes, u32 n) const
{
    WC_ASSERT(entry < entries_, "fault map entry " << entry
              << " out of range");
    WC_ASSERT(first_bank + (n + kBankEntryBytes - 1) / kBankEntryBytes
              <= numBanks_,
              "corrupt span of " << n << " bytes from bank "
              << first_bank << " leaves the register file");
    bool changed = false;
    for (u32 k = 0; k < n; ++k) {
        const u32 bank = first_bank + k / kBankEntryBytes;
        const u32 byte = k % kBankEntryBytes;
        const u8 s0 = maskByte(stuck0_, bank, entry, byte);
        const u8 s1 = maskByte(stuck1_, bank, entry, byte);
        const u8 out = static_cast<u8>((bytes[k] & ~s0) | s1);
        changed = changed || out != bytes[k];
        bytes[k] = out;
    }
    return changed;
}

u32
FaultMap::healthyPrefixBytes(u32 first_bank, u32 entry) const
{
    WC_ASSERT(first_bank % kBanksPerWarpReg == 0,
              "stripe must start on a cluster boundary, not bank "
              << first_bank);
    WC_ASSERT(first_bank < numBanks_ && entry < entries_,
              "stripe (" << first_bank << ", " << entry
              << ") out of range");
    const u32 stripe = first_bank / kBanksPerWarpReg;
    return healthyPrefix_[static_cast<std::size_t>(stripe) * entries_ +
                          entry];
}

} // namespace warpcomp
