/**
 * @file
 * Fault-injection subsystem tests: deterministic map generation,
 * stuck-at corruption semantics, the three tolerance policies end to
 * end (silent corruption must be architecturally visible, DisableEntry
 * and CompressRemap must be architecturally invisible), capacity
 * census ordering, and interaction with divergent uncompressed writes
 * and multi-wave scheduling.
 */

#include <gtest/gtest.h>

#include <array>

#include "fault/fault.hpp"
#include "harness/config_spec.hpp"
#include "regfile/regfile.hpp"
#include "sim/gpu.hpp"
#include "workloads/registry.hpp"

namespace warpcomp {
namespace {

constexpr u32 kBanks = 32;
constexpr u32 kEntries = 256;
constexpr u64 kSeed = 0xDEC0DEull;

TEST(FaultMap, GenerationIsDeterministicPerSeed)
{
    const FaultMap a(kBanks, kEntries, 1e-3, kSeed);
    const FaultMap b(kBanks, kEntries, 1e-3, kSeed);
    ASSERT_EQ(a.faultyCells(), b.faultyCells());
    for (u32 bank = 0; bank < kBanks; bank += kBanksPerWarpReg) {
        for (u32 e = 0; e < kEntries; ++e) {
            ASSERT_EQ(a.healthyPrefixBytes(bank, e),
                      b.healthyPrefixBytes(bank, e));
        }
    }

    // A different seed draws a different map (at ~10^3 expected faults
    // an identical census would be a generator bug, not luck).
    const FaultMap c(kBanks, kEntries, 1e-3, kSeed + 1);
    u32 diff = 0;
    for (u32 bank = 0; bank < kBanks; bank += kBanksPerWarpReg) {
        for (u32 e = 0; e < kEntries; ++e) {
            if (a.healthyPrefixBytes(bank, e) !=
                c.healthyPrefixBytes(bank, e))
                ++diff;
        }
    }
    EXPECT_GT(diff, 0u);

    // Per-SM salting derives distinct seeds from one base.
    EXPECT_NE(faultSeedForSm(kSeed, 0), faultSeedForSm(kSeed, 1));
}

TEST(FaultMap, BerZeroIsFaultFree)
{
    const FaultMap m(kBanks, kEntries, 0.0, kSeed);
    EXPECT_EQ(m.faultyCells(), 0u);
    std::array<u8, kWarpRegBytes> buf;
    buf.fill(0xA5);
    for (u32 bank = 0; bank < kBanks; bank += kBanksPerWarpReg) {
        for (u32 e = 0; e < kEntries; ++e) {
            EXPECT_EQ(m.healthyPrefixBytes(bank, e), kWarpRegBytes);
            EXPECT_FALSE(m.stripeFaulty(bank, e));
            EXPECT_FALSE(m.corrupt(bank, e, buf.data(),
                                   static_cast<u32>(buf.size())));
        }
    }
    for (u8 byte : buf)
        EXPECT_EQ(byte, 0xA5);
}

TEST(FaultMap, CorruptIsIdempotentStuckAtSemantics)
{
    const FaultMap m(kBanks, kEntries, 2e-3, kSeed);
    ASSERT_GT(m.faultyCells(), 0u);

    u32 faulty_stripes = 0;
    for (u32 bank = 0; bank < kBanks; bank += kBanksPerWarpReg) {
        for (u32 e = 0; e < kEntries; ++e) {
            std::array<u8, kWarpRegBytes> ones, zeros;
            ones.fill(0xFF);
            zeros.fill(0x00);
            const bool ch1 = m.corrupt(bank, e, ones.data(),
                                       kWarpRegBytes);
            const bool ch0 = m.corrupt(bank, e, zeros.data(),
                                       kWarpRegBytes);
            // All-ones exposes every stuck-at-0 cell, all-zeros every
            // stuck-at-1 cell; a stripe is faulty iff one of the two
            // patterns changes.
            EXPECT_EQ(m.stripeFaulty(bank, e), ch1 || ch0);
            if (m.stripeFaulty(bank, e))
                ++faulty_stripes;

            // Stuck cells are stateless: re-applying the map to an
            // already-corrupted buffer is a no-op.
            std::array<u8, kWarpRegBytes> again = ones;
            EXPECT_FALSE(m.corrupt(bank, e, again.data(),
                                   kWarpRegBytes));
            EXPECT_EQ(again, ones);

            // The healthy prefix is exactly that: corruption never
            // touches bytes before it.
            const u32 prefix = m.healthyPrefixBytes(bank, e);
            for (u32 k = 0; k < prefix; ++k) {
                EXPECT_EQ(ones[k], 0xFF);
                EXPECT_EQ(zeros[k], 0x00);
            }
        }
    }
    EXPECT_GT(faulty_stripes, 0u);
}

/** Architectural outcome of one workload under a fault config. */
struct FaultOutcome
{
    std::vector<u8> gmemImage;
    RunResult run;

    FaultOutcome(std::vector<u8> image, RunResult r)
        : gmemImage(std::move(image)), run(std::move(r))
    {
    }
};

FaultOutcome
runFaulty(const std::string &name, double ber, FaultPolicy policy,
          u32 num_sms = 2)
{
    ExperimentConfig cfg;
    cfg.numSms = num_sms;
    cfg.faults.ber = ber;
    cfg.faults.policy = policy;
    WorkloadInstance wl = makeWorkload(name, cfg.scale, cfg.seedSalt);
    Gpu gpu(makeGpuParams(cfg), *wl.gmem, *wl.cmem);
    RunResult run = gpu.run(wl.kernel, wl.dims);
    const auto img = wl.gmem->bytes();
    return FaultOutcome(std::vector<u8>(img.begin(), img.end()),
                        std::move(run));
}

TEST(FaultPolicies, BerZeroIsBitIdenticalToBaseline)
{
    // --faults=0,<anything> must leave no trace: same memory image,
    // same cycle count, same energy events as a run with the subsystem
    // absent.
    const FaultOutcome base = runFaulty("nw", 0.0, FaultPolicy::None);
    for (FaultPolicy p : {FaultPolicy::None, FaultPolicy::DisableEntry,
                          FaultPolicy::CompressRemap}) {
        const FaultOutcome f = runFaulty("nw", 0.0, p);
        EXPECT_EQ(f.gmemImage, base.gmemImage);
        EXPECT_EQ(f.run.cycles, base.run.cycles);
        EXPECT_EQ(f.run.meter.bankAccesses(),
                  base.run.meter.bankAccesses());
        EXPECT_EQ(f.run.meter.remapAccesses(), 0u);
        EXPECT_EQ(f.run.fault.faultyCells, 0u);
        EXPECT_EQ(f.run.fault.usableRegs, f.run.fault.totalRegs);
    }
}

TEST(FaultPolicies, NonePolicySilentlyCorruptsArchState)
{
    // With no mitigation, stuck cells under written registers must
    // surface as architectural divergence — this is exactly what the
    // differential layer is meant to catch.
    const FaultOutcome base = runFaulty("nw", 0.0, FaultPolicy::None);
    const FaultOutcome f = runFaulty("nw", 5e-3, FaultPolicy::None);
    EXPECT_GT(f.run.fault.corruptedWrites, 0u);
    EXPECT_NE(f.gmemImage, base.gmemImage)
        << "silent corruption never reached architectural state";
    // Corrupted address registers surface as contained memory faults
    // rather than simulator panics.
    EXPECT_GT(f.run.fault.unrecoverableAccesses, 0u);
    // The census still reports how little of the file is trustworthy.
    EXPECT_LT(f.run.fault.usableRegs, f.run.fault.totalRegs);
}

TEST(FaultPolicies, CompressRemapPreservesArchState)
{
    const FaultOutcome base = runFaulty("nw", 0.0, FaultPolicy::None);
    const FaultOutcome f =
        runFaulty("nw", 5e-3, FaultPolicy::CompressRemap);
    // Tolerance must be exercised AND invisible.
    EXPECT_GT(f.run.fault.toleratedWrites, 0u);
    EXPECT_GT(f.run.fault.remapWrites, 0u);
    EXPECT_GT(f.run.meter.remapAccesses(), 0u);
    EXPECT_EQ(f.run.fault.corruptedWrites, 0u);
    EXPECT_EQ(f.run.ctas, base.run.ctas);
    EXPECT_EQ(f.gmemImage, base.gmemImage)
        << "CompressRemap leaked a corrupted value";
}

TEST(FaultPolicies, CompressRemapHandlesDivergentUncompressedWrites)
{
    // bfs diverges heavily; under WriteUncompressed its divergent
    // writes store full 128-byte images, which can never fit a faulty
    // stripe's healthy prefix and must all take the remap path.
    const FaultOutcome base = runFaulty("bfs", 0.0, FaultPolicy::None);
    const FaultOutcome f =
        runFaulty("bfs", 2e-3, FaultPolicy::CompressRemap);
    EXPECT_GT(f.run.fault.remapWrites, 0u);
    EXPECT_EQ(f.run.fault.corruptedWrites, 0u);
    EXPECT_EQ(f.gmemImage, base.gmemImage);
}

TEST(FaultPolicies, DisableEntryMultiWaveCompletesCorrectly)
{
    // One SM forces multiple CTA waves through a capacity-reduced
    // file: allocate/release must recycle the fragmented id list
    // without ever touching a faulty stripe.
    const FaultOutcome base =
        runFaulty("nw", 0.0, FaultPolicy::None, /*num_sms=*/1);
    const FaultOutcome f =
        runFaulty("nw", 1e-4, FaultPolicy::DisableEntry, /*num_sms=*/1);
    EXPECT_FALSE(f.run.unschedulable);
    EXPECT_GT(f.run.fault.disabledRegs, 0u);
    EXPECT_EQ(f.run.fault.corruptedWrites, 0u);
    EXPECT_EQ(f.run.ctas, base.run.ctas);
    EXPECT_EQ(f.gmemImage, base.gmemImage);
    // Lost capacity can stretch the schedule, never shrink it.
    EXPECT_GE(f.run.cycles, base.run.cycles);
}

TEST(FaultPolicies, CorruptionLivelockIsContained)
{
    // bfs under uncontained corruption livelocks (a stuck cell lands
    // under loop-control state); the run must stop at the hang budget
    // and report it rather than spin to the 200M-cycle guard.
    ExperimentConfig cfg;
    cfg.numSms = 2;
    cfg.faults.ber = 1e-4;
    cfg.faults.policy = FaultPolicy::None;
    cfg.faults.hangCycles = 2'000'000;
    WorkloadInstance wl = makeWorkload("bfs", cfg.scale, cfg.seedSalt);
    Gpu gpu(makeGpuParams(cfg), *wl.gmem, *wl.cmem);
    const RunResult run = gpu.run(wl.kernel, wl.dims);
    EXPECT_TRUE(run.hung);
    EXPECT_EQ(run.cycles, cfg.faults.hangCycles);
}

TEST(FaultPolicies, ExtremeBerMakesDisableEntryUnschedulable)
{
    // At BER 0.2 essentially no stripe survives; the run must report
    // the grid unschedulable instead of spinning to the deadlock guard.
    const FaultOutcome f =
        runFaulty("nw", 0.2, FaultPolicy::DisableEntry);
    EXPECT_TRUE(f.run.unschedulable);
    EXPECT_EQ(f.run.fault.usableRegs, 0u);
}

TEST(FaultCensus, CapacityOrderingAcrossPolicies)
{
    RegFileParams rp;
    for (double ber : {1e-4, 1e-3, 5e-3}) {
        FaultParams fp;
        fp.ber = ber;
        fp.seed = kSeed;

        fp.policy = FaultPolicy::None;
        const RegisterFile none(rp, fp);
        fp.policy = FaultPolicy::DisableEntry;
        const RegisterFile disable(rp, fp);
        fp.policy = FaultPolicy::CompressRemap;
        const RegisterFile remap(rp, fp);

        // Same seed, same map: the census must only depend on policy.
        ASSERT_EQ(none.faultStats().faultyCells,
                  remap.faultStats().faultyCells);

        // CompressRemap salvages every stripe DisableEntry discards
        // whose healthy prefix still fits a compressed register.
        const u64 u_none = none.faultStats().usableRegs;
        const u64 u_disable = disable.faultStats().usableRegs;
        const u64 u_remap = remap.faultStats().usableRegs;
        EXPECT_EQ(u_none, u_disable);
        EXPECT_GE(u_remap, u_disable);
        EXPECT_LT(u_disable, none.faultStats().totalRegs);
    }

    // At a BER where faulty stripes are common, the salvage is strict.
    FaultParams fp;
    fp.ber = 5e-3;
    fp.seed = kSeed;
    fp.policy = FaultPolicy::DisableEntry;
    const RegisterFile disable(rp, fp);
    fp.policy = FaultPolicy::CompressRemap;
    const RegisterFile remap(rp, fp);
    EXPECT_GT(remap.faultStats().usableRegs,
              disable.faultStats().usableRegs);
}

TEST(FaultAllocation, DisableEntryOnlyHandsOutHealthyStripes)
{
    RegFileParams rp;
    FaultParams fp;
    fp.ber = 1e-3;
    fp.policy = FaultPolicy::DisableEntry;
    fp.seed = kSeed;
    RegisterFile rf(rp, fp);
    const FaultMap *map = rf.faultMap();
    ASSERT_NE(map, nullptr);

    const u32 regs_per_slot = 24;
    u32 slot = 0;
    while (rf.canAllocate(regs_per_slot)) {
        ASSERT_TRUE(rf.allocate(slot, regs_per_slot, 0));
        for (u32 r = 0; r < regs_per_slot; ++r) {
            const RegSlot s = rf.locate(slot, r);
            EXPECT_FALSE(map->stripeFaulty(s.firstBank(), s.entry))
                << "allocator handed out disabled stripe (cluster "
                << s.cluster << ", entry " << s.entry << ")";
        }
        ++slot;
    }
    EXPECT_EQ(rf.allocatedRegs(), slot * regs_per_slot);
    // Draining the allocator leaves only a sub-slot remainder of the
    // healthy capacity unclaimed.
    EXPECT_LT(rf.faultStats().usableRegs - rf.allocatedRegs(),
              regs_per_slot);

    // Release in interleaved order and reallocate: the free-id list
    // must recycle cleanly.
    for (u32 s = 0; s < slot; s += 2)
        rf.release(s, 10);
    for (u32 s = 0; s < slot; s += 2)
        ASSERT_TRUE(rf.allocate(s, regs_per_slot, 20));
    EXPECT_EQ(rf.allocatedRegs(), slot * regs_per_slot);
}

TEST(FaultPolicies, PolicyNamesRoundTrip)
{
    // The config spec's `fpolicy` key reads back every printed name.
    for (FaultPolicy p : {FaultPolicy::None, FaultPolicy::DisableEntry,
                          FaultPolicy::CompressRemap}) {
        const auto parsed =
            configFromSpec("fpolicy=" + faultPolicyName(p), nullptr);
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(parsed->faults.policy, p);
    }
    EXPECT_FALSE(configFromSpec("fpolicy=Bogus", nullptr).has_value());
}

TEST(FaultDeterminism, RepeatedRunsAreBitIdentical)
{
    // The whole pipeline — map generation, corruption, remap traffic —
    // must be a pure function of (workload, config, seed).
    const FaultOutcome a = runFaulty("nw", 1e-3, FaultPolicy::None);
    const FaultOutcome b = runFaulty("nw", 1e-3, FaultPolicy::None);
    EXPECT_EQ(a.gmemImage, b.gmemImage);
    EXPECT_EQ(a.run.cycles, b.run.cycles);
    EXPECT_EQ(a.run.fault.corruptedWrites, b.run.fault.corruptedWrites);
    EXPECT_EQ(a.run.fault.faultyCells, b.run.fault.faultyCells);
}

} // namespace
} // namespace warpcomp
