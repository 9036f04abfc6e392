/**
 * @file
 * Transient-fault (SEU) subsystem tests: engine-level flip accounting
 * (pending accumulation, read resolution, write/release clearing,
 * scrubbing), the rate-0 bit-identity contract, the three protection
 * schemes end to end (Unprotected must corrupt, ECC must correct and
 * stay architecturally invisible, scrubbing must flush), compression
 * amplification, composition with the stuck-at layer, energy-model
 * hooks, and parallel-runner / hang determinism.
 */

#include <gtest/gtest.h>

#include <array>

#include "compress/bdi.hpp"
#include "fault/seu.hpp"
#include "harness/config_spec.hpp"
#include "regfile/regfile.hpp"
#include "sim/gpu.hpp"
#include "workloads/registry.hpp"

namespace warpcomp {
namespace {

constexpr u64 kSeed = 0x5EEDull;

TEST(SeuParams, SchemeNamesRoundTrip)
{
    // The config spec's `seuscheme` key reads back every printed name.
    for (SeuScheme s : {SeuScheme::Unprotected, SeuScheme::Ecc,
                        SeuScheme::Scrub, SeuScheme::EccScrub}) {
        const auto parsed =
            configFromSpec("seuscheme=" + seuSchemeName(s), nullptr);
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(parsed->seu.scheme, s);
    }
    EXPECT_FALSE(configFromSpec("seuscheme=Bogus", nullptr).has_value());
}

TEST(SeuParams, SchemePredicates)
{
    SeuParams p;
    EXPECT_FALSE(p.enabled());
    p.flipsPerCycle = 1e-4;
    EXPECT_TRUE(p.enabled());

    p.scheme = SeuScheme::Unprotected;
    EXPECT_FALSE(p.eccEnabled());
    EXPECT_FALSE(p.scrubEnabled());
    EXPECT_TRUE(p.canCorrupt());
    p.scheme = SeuScheme::Ecc;
    EXPECT_TRUE(p.eccEnabled());
    EXPECT_FALSE(p.scrubEnabled());
    EXPECT_FALSE(p.canCorrupt());
    p.scheme = SeuScheme::Scrub;
    EXPECT_FALSE(p.eccEnabled());
    EXPECT_TRUE(p.scrubEnabled());
    EXPECT_TRUE(p.canCorrupt());
    p.scheme = SeuScheme::EccScrub;
    EXPECT_TRUE(p.eccEnabled());
    EXPECT_TRUE(p.scrubEnabled());
    EXPECT_FALSE(p.canCorrupt());

    // Per-SM salting derives distinct streams from one base seed.
    EXPECT_NE(seuSeedForSm(kSeed, 0), seuSeedForSm(kSeed, 1));
}

/** A register file with @p live_regs written uncompressible registers
 *  in slot 0 (each occupying a full 128-byte stripe). */
struct EngineFixture
{
    RegisterFile rf;
    u32 liveRegs;

    explicit EngineFixture(const SeuParams &seu, u32 live_regs = 4)
        : rf(RegFileParams{}, FaultParams{}, seu), liveRegs(live_regs)
    {
        EXPECT_TRUE(rf.allocate(0, live_regs, 0));
        for (u32 r = 0; r < live_regs; ++r)
            rf.recordWrite(0, r, encodeLaneIds(), 0);
    }

    /** Lane-id ramp: deltas overflow every BDI candidate, so the
     *  stored image is the full uncompressed stripe. */
    static BdiChoice
    encodeLaneIds()
    {
        WarpRegValue v{};
        for (u32 lane = 0; lane < kWarpSize; ++lane)
            v[lane] = lane * 0x01010101u;
        return bdiChoose(regBytes(v), warpedCandidates(),
                         scanLanes(v).fits4);
    }
};

TEST(SeuEngine, SampleStreamIsDeterministicAndSeedSensitive)
{
    SeuParams p;
    p.flipsPerCycle = 1.0;
    p.seed = kSeed;
    EngineFixture a(p), b(p);
    SeuParams other = p;
    other.seed = kSeed + 1;
    EngineFixture c(other);

    for (Cycle t = 0; t < 2000; ++t) {
        a.rf.seu()->sampleCycle(t);
        b.rf.seu()->sampleCycle(t);
        c.rf.seu()->sampleCycle(t);
    }
    EXPECT_EQ(a.rf.seu()->stats().flips, b.rf.seu()->stats().flips);
    EXPECT_EQ(a.rf.seu()->stats().liveHits,
              b.rf.seu()->stats().liveHits);
    EXPECT_GT(a.rf.seu()->stats().flips, 0u);
    // At one flip per cycle, identical live-hit patterns from a
    // different seed would be a stream bug, not luck.
    EXPECT_NE(a.rf.seu()->stats().liveHits + a.rf.seu()->stats().flips,
              c.rf.seu()->stats().liveHits + c.rf.seu()->stats().flips);
}

TEST(SeuEngine, FlipsOnDeadRowsAreMasked)
{
    SeuParams p;
    p.flipsPerCycle = 4.0;
    p.seed = kSeed;
    // No registers written at all: every flip must be masked.
    RegisterFile rf(RegFileParams{}, FaultParams{}, p);
    for (Cycle t = 0; t < 500; ++t)
        rf.seu()->sampleCycle(t);
    const SeuStats &st = rf.seu()->stats();
    EXPECT_GT(st.flips, 0u);
    EXPECT_EQ(st.liveHits, 0u);
    EXPECT_EQ(st.maskedFlips, st.flips);
    EXPECT_FALSE(rf.seu()->hasPending());
}

TEST(SeuEngine, UnprotectedReadReportsCorruption)
{
    SeuParams p;
    p.flipsPerCycle = 8.0;
    p.seed = kSeed;
    p.scheme = SeuScheme::Unprotected;
    EngineFixture fx(p);
    SeuEngine &e = *fx.rf.seu();
    for (Cycle t = 0; e.stats().liveHits == 0; ++t) {
        ASSERT_LT(t, 100'000u) << "flip stream never hit a live row";
        e.sampleCycle(t);
    }
    ASSERT_TRUE(e.hasPending());

    u32 corrupt_reads = 0;
    for (u32 r = 0; r < fx.liveRegs; ++r) {
        const auto res = e.resolveRead(0, r);
        if (res.flips == 0)
            continue;
        EXPECT_TRUE(res.corrupt);
        EXPECT_GT(res.tracked, 0u);
        // Tracked positions index into the stored 128-byte image.
        for (u32 i = 0; i < res.tracked; ++i)
            EXPECT_LT(res.pos[i], kWarpRegBytes * 8);
        ++corrupt_reads;
    }
    EXPECT_GT(corrupt_reads, 0u);
    // Reads consumed everything; the next read of each row is clean.
    EXPECT_FALSE(e.hasPending());
    EXPECT_EQ(e.resolveRead(0, 0).flips, 0u);
}

TEST(SeuEngine, EccCorrectsSingleBitAndDetectsMultiBit)
{
    SeuParams p;
    p.flipsPerCycle = 8.0;
    p.seed = kSeed;
    p.scheme = SeuScheme::Ecc;
    EngineFixture fx(p);
    SeuEngine &e = *fx.rf.seu();
    // Let flips accumulate long enough that some row collects two or
    // more (deterministic for the fixed seed; ~8 flips/cycle over four
    // live rows makes multi-bit accumulation certain).
    for (Cycle t = 0; t < 5000; ++t)
        e.sampleCycle(t);
    ASSERT_GT(e.stats().liveHits, fx.liveRegs);

    for (u32 r = 0; r < fx.liveRegs; ++r) {
        const auto res = e.resolveRead(0, r);
        // ECC never lets damage reach architectural state.
        EXPECT_FALSE(res.corrupt);
    }
    const SeuStats &st = e.stats();
    EXPECT_GT(st.detectedUncorrectable, 0u);
    EXPECT_EQ(st.corruptedReads, 0u);
    // Check-bit census: 12 bits per 1024-bit row over the whole file.
    const RegFileParams rp;
    EXPECT_EQ(st.eccCheckBitBytes,
              static_cast<u64>(rp.totalWarpRegs()) *
                  SeuEngine::kCheckBitsPerEntry / 8);
}

TEST(SeuEngine, WriteAndReleaseDiscardPendingFlips)
{
    SeuParams p;
    p.flipsPerCycle = 8.0;
    p.seed = kSeed;
    EngineFixture fx(p);
    SeuEngine &e = *fx.rf.seu();
    for (Cycle t = 0; e.stats().liveHits < 8; ++t) {
        ASSERT_LT(t, 100'000u);
        e.sampleCycle(t);
    }
    ASSERT_TRUE(e.hasPending());

    // Rewriting every live register replaces row contents (and check
    // bits): all pending damage must vanish without being counted as
    // corrupted or detected.
    for (u32 r = 0; r < fx.liveRegs; ++r)
        fx.rf.recordWrite(0, r, EngineFixture::encodeLaneIds(), 100);
    EXPECT_FALSE(e.hasPending());
    EXPECT_EQ(e.stats().corruptedReads, 0u);
    EXPECT_EQ(e.stats().detectedUncorrectable, 0u);

    // Same for release: accumulate again, then free the slot.
    for (Cycle t = 1000; e.stats().liveHits < 16; ++t) {
        ASSERT_LT(t, 200'000u);
        e.sampleCycle(t);
    }
    ASSERT_TRUE(e.hasPending());
    fx.rf.release(0, 2000);
    EXPECT_FALSE(e.hasPending());
}

TEST(SeuEngine, ScrubWalksLiveRowsAndFlushesPending)
{
    SeuParams p;
    p.flipsPerCycle = 8.0;
    p.seed = kSeed;
    p.scheme = SeuScheme::Scrub;
    p.scrubInterval = 1;        // visit one row every cycle
    EngineFixture fx(p);
    SeuEngine &e = *fx.rf.seu();

    const RegFileParams rp;
    const u32 rows = rp.totalWarpRegs();
    for (Cycle t = 1; t <= rows; ++t) {
        e.sampleCycle(t);
        const auto v = e.scrubTick(t);
        // Only the live rows cost bank traffic; dead rows are skipped
        // for free.
        if (v.banks > 0) {
            EXPECT_EQ(v.banks, banksForBytes(kWarpRegBytes));
        }
    }
    // One full sweep: every row visited once, every live row rewritten.
    EXPECT_EQ(e.stats().scrubVisits, rows);
    EXPECT_EQ(e.stats().scrubWrites, fx.liveRegs);
    EXPECT_GT(e.stats().liveHits, 0u);
    const u64 flushed = e.stats().scrubCorrected;
    // Flips deposited behind the cursor are still pending; consuming
    // them via reads must account for exactly the rest — no flip is
    // double-counted or lost between the scrubber and the read port.
    u64 still_pending = 0;
    for (u32 r = 0; r < fx.liveRegs; ++r)
        still_pending += e.resolveRead(0, r).flips;
    EXPECT_EQ(flushed + still_pending, e.stats().liveHits);
    EXPECT_FALSE(e.hasPending());
    // resolveRead only reports; corruption is counted when the SM
    // commits damage (noteCorruption), which never happened here.
    EXPECT_EQ(e.stats().corruptedReads, 0u);
}

/** Architectural outcome of one workload under an SEU config. */
struct SeuOutcome
{
    std::vector<u8> gmemImage;
    RunResult run;
};

SeuOutcome
runSeu(const std::string &name, double rate, SeuScheme scheme,
       ExperimentConfig cfg = {})
{
    cfg.numSms = 2;
    cfg.seu.flipsPerCycle = rate;
    cfg.seu.scheme = scheme;
    WorkloadInstance wl = makeWorkload(name, cfg.scale, cfg.seedSalt);
    Gpu gpu(makeGpuParams(cfg), *wl.gmem, *wl.cmem);
    RunResult run = gpu.run(wl.kernel, wl.dims);
    const auto img = wl.gmem->bytes();
    return SeuOutcome{std::vector<u8>(img.begin(), img.end()),
                      std::move(run)};
}

TEST(SeuSchemes, RateZeroIsBitIdenticalToBaseline)
{
    // --seu=0,<anything> must leave no trace: same memory image, same
    // cycle count, same energy events as a run without the subsystem.
    const SeuOutcome base = runSeu("nw", 0.0, SeuScheme::Unprotected);
    EXPECT_EQ(base.run.seu.flips, 0u);
    for (SeuScheme s : {SeuScheme::Unprotected, SeuScheme::Ecc,
                        SeuScheme::Scrub, SeuScheme::EccScrub}) {
        const SeuOutcome o = runSeu("nw", 0.0, s);
        EXPECT_EQ(o.gmemImage, base.gmemImage);
        EXPECT_EQ(o.run.cycles, base.run.cycles);
        EXPECT_EQ(o.run.meter.bankAccesses(),
                  base.run.meter.bankAccesses());
        EXPECT_EQ(o.run.meter.eccEncodes(), 0u);
        EXPECT_EQ(o.run.meter.eccDecodes(), 0u);
        EXPECT_FALSE(o.run.meter.eccPresent());
        EXPECT_EQ(o.run.seu.flips, 0u);
        EXPECT_EQ(o.run.seu.scrubVisits, 0u);
    }
}

TEST(SeuSchemes, UnprotectedCorruptsArchState)
{
    // With no protection a high flip rate must surface as silent data
    // corruption: reads commit damaged values into warp registers.
    const SeuOutcome base = runSeu("nw", 0.0, SeuScheme::Unprotected);
    ExperimentConfig cfg;
    cfg.faults.hangCycles = 2'000'000;
    const SeuOutcome f =
        runSeu("nw", 0.5, SeuScheme::Unprotected, cfg);
    EXPECT_GT(f.run.seu.liveHits, 0u);
    EXPECT_GT(f.run.seu.corruptedReads, 0u);
    EXPECT_GT(f.run.seu.corruptedLanes, 0u);
    // The corruption must be architecturally visible one way or
    // another: a damaged output image, a contained bad access, or a
    // livelocked kernel stopped at the hang budget.
    EXPECT_TRUE(f.gmemImage != base.gmemImage || f.run.hung ||
                f.run.fault.unrecoverableAccesses > 0)
        << "silent corruption never reached architectural state";
}

TEST(SeuSchemes, EccIsArchitecturallyInvisible)
{
    const SeuOutcome base = runSeu("nw", 0.0, SeuScheme::Unprotected);
    const SeuOutcome f = runSeu("nw", 0.5, SeuScheme::Ecc);
    // Protection must be exercised AND invisible.
    EXPECT_GT(f.run.seu.liveHits, 0u);
    EXPECT_GT(f.run.seu.eccCorrectedReads, 0u);
    EXPECT_EQ(f.run.seu.corruptedReads, 0u);
    EXPECT_EQ(f.run.seu.corruptedLanes, 0u);
    EXPECT_FALSE(f.run.hung);
    EXPECT_EQ(f.run.cycles, base.run.cycles);
    EXPECT_EQ(f.gmemImage, base.gmemImage)
        << "ECC leaked a corrupted value";
    // ...and costs energy: check-bit storage overhead plus
    // encode/decode events on every row write/read.
    EXPECT_TRUE(f.run.meter.eccPresent());
    EXPECT_GT(f.run.meter.eccEncodes(), 0u);
    EXPECT_GT(f.run.meter.eccDecodes(), 0u);
    EnergyParams ep;
    const EnergyBreakdown eb = f.run.meter.breakdownWith(ep);
    const EnergyBreakdown bb = base.run.meter.breakdownWith(ep);
    EXPECT_GT(eb.eccPj, 0.0);
    EXPECT_GT(eb.totalPj(), bb.totalPj());
}

TEST(SeuSchemes, ScrubFlushesAndScalesWithPeriod)
{
    ExperimentConfig fast;
    fast.seu.scrubInterval = 16;
    ExperimentConfig slow;
    slow.seu.scrubInterval = 1024;
    const SeuOutcome f = runSeu("nw", 0.5, SeuScheme::Scrub, fast);
    const SeuOutcome s = runSeu("nw", 0.5, SeuScheme::Scrub, slow);
    EXPECT_GT(f.run.seu.scrubVisits, 0u);
    EXPECT_GT(f.run.seu.scrubWrites, 0u);
    EXPECT_GT(f.run.seu.scrubCorrected, 0u);
    // A 64x shorter period must scrub more, and flush more flips
    // before reads consume them.
    EXPECT_GT(f.run.seu.scrubVisits, s.run.seu.scrubVisits);
    EXPECT_GT(f.run.seu.scrubWrites, s.run.seu.scrubWrites);
    EXPECT_GE(f.run.seu.scrubCorrected, s.run.seu.scrubCorrected);
    // Scrub traffic shows up as bank energy on top of the baseline.
    const SeuOutcome base = runSeu("nw", 0.0, SeuScheme::Unprotected);
    EXPECT_GT(f.run.meter.bankAccesses(),
              base.run.meter.bankAccesses());
}

TEST(SeuSchemes, CompressionAmplifiesCorruption)
{
    // A flipped byte inside a BDI-compressed row damages every lane
    // that decompresses through it; the amplification counter must see
    // this under the compressed design.
    ExperimentConfig cfg;
    cfg.faults.hangCycles = 2'000'000;
    const SeuOutcome f =
        runSeu("nw", 0.5, SeuScheme::Unprotected, cfg);
    EXPECT_GT(f.run.seu.hitsCompressed, 0u);
    EXPECT_GT(f.run.seu.amplifiedReads, 0u);
    // An amplified read damages at least as many lanes on average as
    // the raw flip count could alone.
    EXPECT_GE(f.run.seu.corruptedLanes, f.run.seu.corruptedReads);

    // The uncompressed baseline has no compressed rows to amplify.
    ExperimentConfig none = cfg;
    none.scheme = CompressionScheme::None;
    const SeuOutcome b =
        runSeu("nw", 0.5, SeuScheme::Unprotected, none);
    EXPECT_EQ(b.run.seu.hitsCompressed, 0u);
    EXPECT_EQ(b.run.seu.amplifiedReads, 0u);
}

TEST(SeuSchemes, ComposesWithStuckAtFaults)
{
    // Both fault layers active at once: permanent stuck-at cells under
    // CompressRemap plus transient flips under ECC. Both must be
    // exercised, and the protected run must stay architecturally clean.
    const SeuOutcome base = runSeu("nw", 0.0, SeuScheme::Unprotected);
    ExperimentConfig cfg;
    cfg.faults.ber = 1e-3;
    cfg.faults.policy = FaultPolicy::CompressRemap;
    const SeuOutcome f = runSeu("nw", 0.5, SeuScheme::Ecc, cfg);
    EXPECT_GT(f.run.fault.faultyCells, 0u);
    EXPECT_GT(f.run.fault.toleratedWrites, 0u);
    EXPECT_GT(f.run.seu.liveHits, 0u);
    EXPECT_EQ(f.run.seu.corruptedReads, 0u);
    EXPECT_EQ(f.run.fault.corruptedWrites, 0u);
    EXPECT_EQ(f.gmemImage, base.gmemImage);
}

TEST(SeuDeterminism, RepeatedRunsAreBitIdentical)
{
    ExperimentConfig cfg;
    cfg.faults.hangCycles = 2'000'000;
    const SeuOutcome a =
        runSeu("nw", 0.5, SeuScheme::Unprotected, cfg);
    const SeuOutcome b =
        runSeu("nw", 0.5, SeuScheme::Unprotected, cfg);
    EXPECT_EQ(a.gmemImage, b.gmemImage);
    EXPECT_EQ(a.run.cycles, b.run.cycles);
    EXPECT_EQ(a.run.seu.flips, b.run.seu.flips);
    EXPECT_EQ(a.run.seu.corruptedReads, b.run.seu.corruptedReads);
    EXPECT_EQ(a.run.seu.corruptedLanes, b.run.seu.corruptedLanes);
}

TEST(SeuDeterminism, ParallelRunnerIsThreadCountInvariant)
{
    // The flip stream is a pure function of (salted seed, cycle), so
    // the parallel runner must produce bit-identical results at any
    // worker count.
    ExperimentConfig cfg;
    cfg.numSms = 2;
    cfg.seu.flipsPerCycle = 0.5;
    cfg.seu.scheme = SeuScheme::EccScrub;
    const std::vector<std::string> names = {"nw", "bfs", "hotspot"};
    const auto serial = runWorkloadsParallel(names, cfg, 1);
    const auto wide = runWorkloadsParallel(names, cfg, 4);
    ASSERT_EQ(serial.size(), wide.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].run.cycles, wide[i].run.cycles);
        EXPECT_EQ(serial[i].run.seu.flips, wide[i].run.seu.flips);
        EXPECT_EQ(serial[i].run.seu.liveHits,
                  wide[i].run.seu.liveHits);
        EXPECT_EQ(serial[i].run.seu.eccCorrectedReads,
                  wide[i].run.seu.eccCorrectedReads);
        EXPECT_EQ(serial[i].run.seu.scrubWrites,
                  wide[i].run.seu.scrubWrites);
        EXPECT_EQ(serial[i].run.meter.bankAccesses(),
                  wide[i].run.meter.bankAccesses());
    }
}

TEST(SeuDeterminism, HangOutcomeIsReproducible)
{
    // A corrupting run that trips the hang budget must do so
    // identically on every invocation and at every thread count: the
    // hung flag, the stop cycle, and the flip accounting all pin.
    ExperimentConfig cfg;
    cfg.numSms = 2;
    cfg.seu.flipsPerCycle = 2.0;
    cfg.seu.scheme = SeuScheme::Unprotected;
    cfg.faults.hangCycles = 200'000;
    const std::vector<std::string> names = {"bfs"};
    const auto a = runWorkloadsParallel(names, cfg, 1);
    const auto b = runWorkloadsParallel(names, cfg, 1);
    const auto c = runWorkloadsParallel(names, cfg, 4);
    EXPECT_EQ(a[0].run.hung, b[0].run.hung);
    EXPECT_EQ(a[0].run.hung, c[0].run.hung);
    EXPECT_EQ(a[0].run.cycles, b[0].run.cycles);
    EXPECT_EQ(a[0].run.cycles, c[0].run.cycles);
    EXPECT_EQ(a[0].run.seu.flips, b[0].run.seu.flips);
    EXPECT_EQ(a[0].run.seu.flips, c[0].run.seu.flips);
    EXPECT_EQ(a[0].run.seu.corruptedReads, b[0].run.seu.corruptedReads);
    EXPECT_EQ(a[0].run.seu.corruptedReads, c[0].run.seu.corruptedReads);
    // If the budget tripped, the run stopped exactly there.
    if (a[0].run.hung) {
        EXPECT_EQ(a[0].run.cycles, cfg.faults.hangCycles);
    }
}

} // namespace
} // namespace warpcomp
