/**
 * @file
 * How Gpu::run steps one launch's SMs: every result is byte-identical
 * for any GpuParams::hostThreads (stats document and final
 * global-memory image, all 19 workloads with idle skipping on and off,
 * plus fault and SEU configs); running ahead (GpuParams::runAhead)
 * reproduces serial lockstep byte for byte, CTA dispatch included, and
 * its detector reruns a launch in lockstep exactly when a load follows
 * a store to its segment; and the store-visibility rule holds: a
 * cycle's global stores become visible at its end, committed in SM
 * order, while an Sm with no store buffer armed writes through.
 */

#include <gtest/gtest.h>

#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/host_threads.hpp"
#include "harness/experiment.hpp"
#include "isa/builder.hpp"
#include "obs/obs.hpp"
#include "obs/stats_json.hpp"

namespace warpcomp {
namespace {

// ---------------------------------------------------------------------
// Results do not depend on the thread count
// ---------------------------------------------------------------------

/** What a run leaves behind: its stats document and its final
 *  global-memory image. */
struct RunBytes
{
    std::string stats;
    WorkloadInstance wl;
    Cycle cycles = 0;
    SteppingCensus stepping;
    bool unschedulable = false;
    u64 ctas = 0;
};

RunBytes
runWithThreads(const std::string &name, const ExperimentConfig &cfg,
               u32 host_threads, bool run_ahead = true)
{
    RunBytes out{{}, makeWorkload(name, cfg.scale, cfg.seedSalt), 0, {},
                 false, 0};
    GpuParams gp = makeGpuParams(cfg);
    gp.hostThreads = host_threads;
    gp.runAhead = run_ahead;
    const RunResult run = Gpu(gp, *out.wl.gmem, *out.wl.cmem)
        .run(out.wl.kernel, out.wl.dims, cfg.collectBdiBreakdown);
    std::ostringstream os;
    {
        JsonWriter w(os);
        writeRunStatsJson(w, run, cfg.numSms);
    }
    out.stats = os.str();
    out.cycles = run.cycles;
    out.stepping = run.stepping;
    out.unschedulable = run.unschedulable;
    out.ctas = run.ctas;
    return out;
}

/** Same stats document and final global memory. */
void
expectSameBytes(const RunBytes &got, const RunBytes &ref,
                const std::string &what)
{
    EXPECT_EQ(got.stats, ref.stats) << what;
    const std::span<const u8> mem = got.wl.gmem->bytes();
    const std::span<const u8> ref_mem = ref.wl.gmem->bytes();
    EXPECT_TRUE(mem.size() == ref_mem.size() &&
                std::memcmp(mem.data(), ref_mem.data(), mem.size()) == 0)
        << what << ": final global memory differs";
}

/** Runs at hostThreads 2..4 reproduce @p ref byte for byte. */
void
expectMatches(const RunBytes &ref, const std::string &name,
              const ExperimentConfig &cfg)
{
    const std::span<const u8> ref_mem = ref.wl.gmem->bytes();
    for (u32 t = 2; t <= 4; ++t) {
        const RunBytes got = runWithThreads(name, cfg, t);
        EXPECT_EQ(got.stats, ref.stats) << name << " at " << t
                                        << " host threads";
        const std::span<const u8> mem = got.wl.gmem->bytes();
        EXPECT_TRUE(mem.size() == ref_mem.size() &&
                    std::memcmp(mem.data(), ref_mem.data(),
                                mem.size()) == 0)
            << name << ": final global memory differs at " << t
            << " host threads";
    }
}

/** hostThreads 2..4 reproduce hostThreads 1 byte for byte. */
void
expectThreadCountInvariant(const std::string &name,
                           const ExperimentConfig &cfg)
{
    const RunBytes ref = runWithThreads(name, cfg, 1);
    ASSERT_GT(ref.cycles, 0u);
    expectMatches(ref, name, cfg);
}

class CrewDeterminism : public ::testing::TestWithParam<std::string>
{
};

TEST_P(CrewDeterminism, StatsAndMemoryMatchAcrossThreadCounts)
{
    // One single-thread reference serves both skip settings: idle
    // skipping is itself byte-invisible (test_skip_equiv), so a
    // multi-thread run with skipping off must reproduce the
    // single-thread run with it on.
    ExperimentConfig cfg;
    cfg.numSms = 15;
    const RunBytes ref = runWithThreads(GetParam(), cfg, 1);
    ASSERT_GT(ref.cycles, 0u);
    for (bool skip : {true, false}) {
        SCOPED_TRACE(skip ? "idle skipping on" : "idle skipping off");
        cfg.skipIdle = skip;
        expectMatches(ref, GetParam(), cfg);
    }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, CrewDeterminism,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto &info) { return info.param; });

TEST(CrewDeterminismFaults, CompressRemapStuckAt)
{
    ExperimentConfig cfg;
    cfg.numSms = 15;
    cfg.faults.ber = 1e-3;
    cfg.faults.policy = FaultPolicy::CompressRemap;
    expectThreadCountInvariant("nw", cfg);
}

TEST(CrewDeterminismFaults, PolicyNoneStopsAtTheHangBudget)
{
    // Uncontained corruption livelocks bfs; every thread count must
    // stop at the same budget with the same census.
    ExperimentConfig cfg;
    cfg.numSms = 15;
    cfg.faults.ber = 1e-4;
    cfg.faults.policy = FaultPolicy::None;
    cfg.faults.hangCycles = 60'000;
    const RunBytes ref = runWithThreads("bfs", cfg, 1);
    EXPECT_EQ(ref.cycles, cfg.faults.hangCycles);
    expectThreadCountInvariant("bfs", cfg);
}

TEST(CrewDeterminismFaults, EccScrubSeu)
{
    ExperimentConfig cfg;
    cfg.numSms = 15;
    cfg.seu.flipsPerCycle = 1e-3;
    cfg.seu.scheme = SeuScheme::EccScrub;
    expectThreadCountInvariant("pathfinder", cfg);
}

// ---------------------------------------------------------------------
// Run-ahead reproduces lockstep
// ---------------------------------------------------------------------

/** Serial lockstep: the reference every run-ahead run must match. */
RunBytes
runLockstep(const std::string &name, const ExperimentConfig &cfg)
{
    RunBytes ref = runWithThreads(name, cfg, 1, false);
    EXPECT_GT(ref.cycles, 0u);
    EXPECT_FALSE(ref.stepping.ranAhead);
    EXPECT_EQ(ref.stepping.fallbacks, 0u);
    return ref;
}

/** Run-ahead at hostThreads 1..4 reproduces @p ref byte for byte,
 *  falling back to lockstep @p fallbacks times each. */
void
expectRunAheadMatches(const RunBytes &ref, const std::string &name,
                      const ExperimentConfig &cfg, u32 fallbacks)
{
    for (u32 t = 1; t <= 4; ++t) {
        const RunBytes got = runWithThreads(name, cfg, t);
        const std::string what = name + " running ahead on " +
            std::to_string(t) + " host threads";
        expectSameBytes(got, ref, what);
        EXPECT_TRUE(got.stepping.ranAhead) << what;
        EXPECT_EQ(got.stepping.fallbacks, fallbacks) << what;
    }
}

class RunAheadEquivalence : public ::testing::TestWithParam<std::string>
{
};

TEST_P(RunAheadEquivalence, MatchesSerialLockstep)
{
    // Idle skipping is byte-invisible (test_skip_equiv), so one
    // lockstep reference serves run-ahead with skipping on and off.
    ExperimentConfig cfg;
    cfg.numSms = 15;
    const RunBytes ref = runLockstep(GetParam(), cfg);
    for (bool skip : {true, false}) {
        SCOPED_TRACE(skip ? "idle skipping on" : "idle skipping off");
        cfg.skipIdle = skip;
        expectRunAheadMatches(ref, GetParam(), cfg, 0);
    }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, RunAheadEquivalence,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto &info) { return info.param; });

TEST(RunAheadEquivalenceFaults, CompressRemapStuckAt)
{
    ExperimentConfig cfg;
    cfg.numSms = 15;
    cfg.faults.ber = 1e-3;
    cfg.faults.policy = FaultPolicy::CompressRemap;
    expectRunAheadMatches(runLockstep("nw", cfg), "nw", cfg, 0);
}

TEST(RunAheadEquivalenceFaults, PolicyNoneFallsBackToLockstep)
{
    // Corrupted addresses make bfs load words stored earlier in the
    // run, which clean runs never do: the detector must catch it, and
    // the rerun must stop at the same budget with the same census.
    ExperimentConfig cfg;
    cfg.numSms = 15;
    cfg.faults.ber = 1e-4;
    cfg.faults.policy = FaultPolicy::None;
    cfg.faults.hangCycles = 60'000;
    const RunBytes ref = runLockstep("bfs", cfg);
    EXPECT_EQ(ref.cycles, cfg.faults.hangCycles);
    expectRunAheadMatches(ref, "bfs", cfg, 1);
}

TEST(RunAheadEquivalenceFaults, EccScrubSeu)
{
    // Scrub ticks keep idle SMs eventful: the tail that brings
    // finished SMs to the run's end must replay them.
    ExperimentConfig cfg;
    cfg.numSms = 15;
    cfg.seu.flipsPerCycle = 1e-3;
    cfg.seu.scheme = SeuScheme::EccScrub;
    expectRunAheadMatches(runLockstep("pathfinder", cfg), "pathfinder",
                          cfg, 0);
}

/** How many of @p cfg's SMs can hold a CTA of @p name, each SM with
 *  its own salted stuck-at map as Gpu::run draws it. */
u32
smsThatHoldACta(const std::string &name, const ExperimentConfig &cfg)
{
    const WorkloadInstance wl = makeWorkload(name, cfg.scale, cfg.seedSalt);
    const GpuParams gp = makeGpuParams(cfg);
    u32 holders = 0;
    for (u32 i = 0; i < gp.numSms; ++i) {
        SmParams sp = gp.sm;
        sp.faults.seed = faultSeedForSm(gp.sm.faults.seed, i);
        Sm sm(sp, gp.energy, *wl.gmem, *wl.cmem, wl.kernel, wl.dims);
        holders += sm.tryLaunchCta(0, 0) ? 1 : 0;
    }
    return holders;
}

TEST(RunAheadEquivalenceFaults, NoSmHoldsACta)
{
    // Every SM's launch stays blocked from cycle 0: lockstep gives up
    // after two stalled cycles, and running ahead must stop at the
    // same cycle (the stats document holds cycles and unschedulable).
    ExperimentConfig cfg;
    cfg.numSms = 15;
    cfg.faults.ber = 0.2;
    cfg.faults.policy = FaultPolicy::DisableEntry;
    ASSERT_EQ(smsThatHoldACta("nw", cfg), 0u);
    const RunBytes ref = runLockstep("nw", cfg);
    EXPECT_TRUE(ref.unschedulable);
    for (bool skip : {true, false}) {
        SCOPED_TRACE(skip ? "idle skipping on" : "idle skipping off");
        cfg.skipIdle = skip;
        expectRunAheadMatches(ref, "nw", cfg, 0);
    }
}

TEST(RunAheadEquivalenceFaults, SomeSmsHoldNoCtaAndTheOthersFinish)
{
    // The SMs that cannot hold a CTA leave dispatch for good (their key
    // is done) while the others take the whole grid. At this BER and
    // the default fault seed, 10 of the 15 SMs can hold an nw CTA.
    ExperimentConfig cfg;
    cfg.numSms = 15;
    cfg.faults.ber = 1.6e-3;
    cfg.faults.policy = FaultPolicy::DisableEntry;
    const u32 holders = smsThatHoldACta("nw", cfg);
    ASSERT_GT(holders, 0u);
    ASSERT_LT(holders, cfg.numSms);
    const RunBytes ref = runLockstep("nw", cfg);
    EXPECT_FALSE(ref.unschedulable);
    EXPECT_EQ(ref.ctas, ref.wl.dims.gridDim);
    for (bool skip : {true, false}) {
        SCOPED_TRACE(skip ? "idle skipping on" : "idle skipping off");
        cfg.skipIdle = skip;
        expectRunAheadMatches(ref, "nw", cfg, 0);
    }
}

class RunAheadDetectorWorkloads
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(RunAheadDetectorWorkloads, NoFallbackAtSeeds0And7)
{
    // No workload loads a word stored earlier in its run, so none may
    // fall back: a fallback costs the whole run-ahead gain.
    for (u64 seed : {0u, 7u}) {
        ExperimentConfig cfg;
        cfg.numSms = 15;
        cfg.seedSalt = seed;
        const RunBytes got = runWithThreads(GetParam(), cfg, 0);
        EXPECT_TRUE(got.stepping.ranAhead) << "seed " << seed;
        EXPECT_EQ(got.stepping.fallbacks, 0u) << "seed " << seed;
    }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, RunAheadDetectorWorkloads,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto &info) { return info.param; });

// ---------------------------------------------------------------------
// Store visibility
// ---------------------------------------------------------------------

constexpr u64 kWord = 0x100;       ///< the raced-on word
constexpr u64 kOut = 0x200;        ///< where the loader saves its load
constexpr u32 kBefore = 0xDEAD;    ///< the word's value before the race

/** The racy kernel's program counters, for the issue-cycle check. */
struct RacePcs
{
    u32 store = 0;      ///< storers' STG to kWord
    u32 load = 0;       ///< loader's LDG of kWord
};

/**
 * One thread per CTA. CTA 2 loads kWord and saves what it read to
 * kOut; every other CTA c stores c + 1 to kWord. Both paths run the
 * same instructions up to one uniform branch, so with one CTA per SM
 * the STGs of SMs 0 and 1 and the LDG of SM 2 issue in one cycle.
 */
Kernel
raceKernel(RacePcs &pcs)
{
    KernelBuilder b("race");
    Reg cta = b.newReg(), addr = b.newReg(), val = b.newReg(),
        out = b.newReg();
    Pred loader = b.newPred();
    b.s2r(cta, SpecialReg::CtaIdX);
    b.movImm(addr, static_cast<i32>(kWord));
    b.movImm(out, static_cast<i32>(kOut));
    b.iadd(val, cta, KernelBuilder::imm(1));
    b.isetp(loader, CmpOp::Eq, cta, KernelBuilder::imm(2));
    b.ifElse_(loader,
              [&] {
                  pcs.load = b.nextPc();
                  b.ldg(val, addr);
                  b.stg(out, val);
              },
              [&] {
                  pcs.store = b.nextPc();
                  b.stg(addr, val);
              });
    return b.build();
}

struct RaceOutcome
{
    u32 word = 0;
    u32 loaded = 0;
    std::shared_ptr<ObsRun> obs;
    SteppingCensus stepping;
};

RaceOutcome
runRace(u32 host_threads, bool trace)
{
    RacePcs pcs;
    const Kernel kernel = raceKernel(pcs);
    GlobalMemory gmem(4096);
    ConstantMemory cmem(64);
    gmem.write32(kWord, kBefore);
    GpuParams gp;
    gp.numSms = 3;
    gp.hostThreads = host_threads;
    gp.obs.trace = trace;
    RunResult run = Gpu(gp, gmem, cmem).run(kernel, LaunchDims{1, 3});
    return {gmem.read32(kWord), gmem.read32(kOut), run.obs, run.stepping};
}

TEST(StoreVisibility, RacingStoresAndLoadShareOneCycle)
{
    // The premise of the race: the two STGs and the LDG issue in the
    // same cycle on three different SMs.
    RacePcs pcs;
    raceKernel(pcs);
    const RaceOutcome traced = runRace(1, true);
    ASSERT_NE(traced.obs, nullptr);
    const TraceRing &ring = traced.obs->ring();
    std::array<Cycle, 3> issue{};
    std::array<bool, 3> seen{};
    for (u64 i = 0; i < ring.size(); ++i) {
        const TraceEvent &ev = ring.at(i);
        if (ev.kind != TraceEventKind::WarpIssue || ev.sm > 2)
            continue;
        if (ev.a == (ev.sm == 2 ? pcs.load : pcs.store)) {
            issue[ev.sm] = ev.cycle;
            seen[ev.sm] = true;
        }
    }
    ASSERT_TRUE(seen[0] && seen[1] && seen[2]);
    EXPECT_EQ(issue[0], issue[1]);
    EXPECT_EQ(issue[1], issue[2]);
}

TEST(StoreVisibility, HigherSmWinsAndSameCycleLoadSeesTheOldValue)
{
    for (u32 t = 1; t <= 4; ++t) {
        const RaceOutcome r = runRace(t, false);
        // SM 1 stores 2 after SM 0 stores 1, in SM order.
        EXPECT_EQ(r.word, 2u) << t << " host threads";
        // SM 2's load in that cycle reads memory from before it.
        EXPECT_EQ(r.loaded, kBefore) << t << " host threads";
    }
}

TEST(RunAheadDetector, SameCycleRaceDoesNotFallBack)
{
    // The loader's LDG shares its cycle with both STGs: lockstep reads
    // the old value there too, so running ahead is exact.
    for (u32 t = 1; t <= 4; ++t) {
        const RaceOutcome r = runRace(t, false);
        EXPECT_TRUE(r.stepping.ranAhead) << t << " host threads";
        EXPECT_EQ(r.stepping.fallbacks, 0u) << t << " host threads";
        EXPECT_EQ(r.word, 2u) << t << " host threads";
        EXPECT_EQ(r.loaded, kBefore) << t << " host threads";
    }
}

constexpr u32 kStored = 0xBEEF;    ///< what the detector kernels store

/**
 * One thread per CTA. CTA 0 stores kStored to kWord at once; CTA 1
 * first runs a dependent loop, then loads kWord and saves it to kOut,
 * many cycles after the store.
 */
Kernel
lateLoaderKernel()
{
    KernelBuilder b("late_loader");
    Reg cta = b.newReg(), addr = b.newReg(), out = b.newReg(),
        val = b.newReg(), i = b.newReg(), acc = b.newReg();
    Pred loader = b.newPred();
    b.s2r(cta, SpecialReg::CtaIdX);
    b.movImm(addr, static_cast<i32>(kWord));
    b.movImm(out, static_cast<i32>(kOut));
    b.movImm(acc, 0);
    b.isetp(loader, CmpOp::Eq, cta, KernelBuilder::imm(1));
    b.ifElse_(loader,
              [&] {
                  b.forRange(i, KernelBuilder::imm(0),
                             KernelBuilder::imm(64), 1,
                             [&] { b.iadd(acc, acc, i); });
                  b.ldg(val, addr);
                  b.stg(out, val);
              },
              [&] {
                  b.stg(addr, KernelBuilder::imm(static_cast<i32>(kStored)));
              });
    return b.build();
}

constexpr u32 kLate = 0xF00D;      ///< the late storer's value

/**
 * One thread per CTA. CTA 1 stores kStored to kWord at once; CTA 0
 * first runs a dependent loop, then stores kLate to kWord, many cycles
 * later. Lockstep leaves kLate: the later cycle wins, not the higher
 * SM.
 */
Kernel
lateStorerKernel()
{
    KernelBuilder b("late_storer");
    Reg cta = b.newReg(), addr = b.newReg(), i = b.newReg(),
        acc = b.newReg();
    Pred late = b.newPred();
    b.s2r(cta, SpecialReg::CtaIdX);
    b.movImm(addr, static_cast<i32>(kWord));
    b.movImm(acc, 0);
    b.isetp(late, CmpOp::Eq, cta, KernelBuilder::imm(0));
    b.ifElse_(late,
              [&] {
                  b.forRange(i, KernelBuilder::imm(0),
                             KernelBuilder::imm(64), 1,
                             [&] { b.iadd(acc, acc, i); });
                  b.stg(addr, KernelBuilder::imm(static_cast<i32>(kLate)));
              },
              [&] {
                  b.stg(addr, KernelBuilder::imm(static_cast<i32>(kStored)));
              });
    return b.build();
}

/** One thread stores kStored to kWord, then loads kWord back and
 *  saves it to kOut. */
Kernel
ownStoreThenLoadKernel()
{
    KernelBuilder b("own_store_then_load");
    Reg addr = b.newReg(), out = b.newReg(), val = b.newReg();
    b.movImm(addr, static_cast<i32>(kWord));
    b.movImm(out, static_cast<i32>(kOut));
    b.stg(addr, KernelBuilder::imm(static_cast<i32>(kStored)));
    b.ldg(val, addr);
    b.stg(out, val);
    return b.build();
}

/** One thread increments kWord in place: load, add, store back. */
Kernel
inPlaceKernel()
{
    KernelBuilder b("in_place");
    Reg addr = b.newReg(), val = b.newReg();
    b.movImm(addr, static_cast<i32>(kWord));
    b.ldg(val, addr);
    b.iadd(val, val, KernelBuilder::imm(1));
    b.stg(addr, val);
    return b.build();
}

/** @p kernel over @p ctas one-thread CTAs, one SM each, kWord preset
 *  to kBefore. */
RaceOutcome
runOneThreadCtas(const Kernel &kernel, u32 ctas, u32 host_threads,
                 bool run_ahead)
{
    GlobalMemory gmem(4096);
    ConstantMemory cmem(64);
    gmem.write32(kWord, kBefore);
    GpuParams gp;
    gp.numSms = ctas;
    gp.hostThreads = host_threads;
    gp.runAhead = run_ahead;
    const RunResult run =
        Gpu(gp, gmem, cmem).run(kernel, LaunchDims{1, ctas});
    return {gmem.read32(kWord), gmem.read32(kOut), nullptr, run.stepping};
}

TEST(RunAheadDetector, LateLoaderFallsBackAndSeesTheStore)
{
    const Kernel kernel = lateLoaderKernel();
    const RaceOutcome lockstep = runOneThreadCtas(kernel, 2, 1, false);
    EXPECT_EQ(lockstep.loaded, kStored);
    for (u32 t = 1; t <= 4; ++t) {
        const RaceOutcome r = runOneThreadCtas(kernel, 2, t, true);
        EXPECT_TRUE(r.stepping.ranAhead) << t << " host threads";
        EXPECT_EQ(r.stepping.fallbacks, 1u) << t << " host threads";
        EXPECT_EQ(r.loaded, lockstep.loaded) << t << " host threads";
        EXPECT_EQ(r.word, lockstep.word) << t << " host threads";
    }
}

TEST(RunAheadDetector, LaterCycleWinsOverHigherSm)
{
    // Run-ahead logs commit in (cycle, SM) order: SM 0's later store
    // overwrites SM 1's earlier one, as in lockstep. No load, so no
    // fallback.
    const Kernel kernel = lateStorerKernel();
    EXPECT_EQ(runOneThreadCtas(kernel, 2, 1, false).word, kLate);
    for (u32 t = 1; t <= 4; ++t) {
        const RaceOutcome r = runOneThreadCtas(kernel, 2, t, true);
        EXPECT_TRUE(r.stepping.ranAhead) << t << " host threads";
        EXPECT_EQ(r.stepping.fallbacks, 0u) << t << " host threads";
        EXPECT_EQ(r.word, kLate) << t << " host threads";
    }
}

TEST(RunAheadDetector, OwnStoreThenLoadFallsBack)
{
    // An SM's own run-ahead stores wait in its log too, so it must not
    // read its own earlier store from memory either.
    const RaceOutcome r =
        runOneThreadCtas(ownStoreThenLoadKernel(), 1, 1, true);
    EXPECT_TRUE(r.stepping.ranAhead);
    EXPECT_EQ(r.stepping.fallbacks, 1u);
    EXPECT_EQ(r.loaded, kStored);
    EXPECT_EQ(r.word, kStored);
}

TEST(RunAheadDetector, InPlaceUpdateDoesNotFallBack)
{
    // A load before a store to the same word is exact when running
    // ahead: the strict cycle comparison lets it through.
    const RaceOutcome r = runOneThreadCtas(inPlaceKernel(), 1, 1, true);
    EXPECT_TRUE(r.stepping.ranAhead);
    EXPECT_EQ(r.stepping.fallbacks, 0u);
    EXPECT_EQ(r.word, kBefore + 1);
}

/**
 * Drive one Sm through the one-store kernel and report the value of
 * kWord right after the cycle whose STG issued, with @p stores armed
 * (or writing through when null).
 */
u32
wordAfterStoreCycle(GlobalMemory &gmem, GlobalStoreBuffer *stores)
{
    KernelBuilder b("store");
    Reg addr = b.newReg();
    b.movImm(addr, static_cast<i32>(kWord));
    const u32 store_pc = b.nextPc();
    b.stg(addr, KernelBuilder::imm(7));
    const Kernel kernel = b.build();
    ConstantMemory cmem(64);
    SmParams sp;
    sp.applyScheme();
    Sm sm(sp, EnergyParams{}, gmem, cmem, kernel, LaunchDims{1, 1});
    ObsParams op;
    op.trace = true;
    ObsRun obs(op);
    sm.attachObs(&obs, 0);
    sm.armStoreBuffer(stores);
    EXPECT_TRUE(sm.tryLaunchCta(0, 0));
    for (Cycle now = 0; now < 1000 && sm.busy(); ++now) {
        const u64 before = obs.ring().size();
        sm.cycle(now);
        for (u64 i = before; i < obs.ring().size(); ++i) {
            const TraceEvent &ev = obs.ring().at(i);
            if (ev.kind == TraceEventKind::WarpIssue && ev.a == store_pc)
                return gmem.read32(kWord);
        }
    }
    ADD_FAILURE() << "the STG never issued";
    return 0;
}

TEST(StoreVisibility, SmWithoutBufferWritesThrough)
{
    GlobalMemory gmem(4096);
    EXPECT_EQ(wordAfterStoreCycle(gmem, nullptr), 7u);
}

TEST(StoreVisibility, ArmedBufferHoldsStoresUntilCommit)
{
    GlobalMemory gmem(4096);
    GlobalStoreBuffer stores(SmParams{}.numSchedulers * kWarpSize);
    EXPECT_EQ(wordAfterStoreCycle(gmem, &stores), 0u);
    EXPECT_FALSE(stores.empty());
    stores.commit(gmem);
    EXPECT_TRUE(stores.empty());
    EXPECT_EQ(gmem.read32(kWord), 7u);
}

// ---------------------------------------------------------------------
// Host-thread budget
// ---------------------------------------------------------------------

/** Prints the resolved count; HostThreads.AffinityMaskBoundsTheCount
 *  runs it under `taskset`. */
TEST(HostThreads, PrintResolvedCount)
{
    std::printf("resolved=%u\n", resolveThreadCount(0));
}

TEST(HostThreads, AffinityMaskBoundsTheCount)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    ASSERT_EQ(::sched_getaffinity(0, sizeof(set), &set), 0);
    if (!CPU_ISSET(0, &set) || !CPU_ISSET(1, &set))
        GTEST_SKIP() << "CPUs 0 and 1 are not both available";
    if (::access("/usr/bin/taskset", X_OK) != 0 &&
        ::access("/bin/taskset", X_OK) != 0)
        GTEST_SKIP() << "taskset is not installed";
    char self[4096];
    const ssize_t n = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
    ASSERT_GT(n, 0);
    self[n] = '\0';
    const std::string cmd = std::string("taskset -c 0,1 '") + self +
        "' --gtest_filter=HostThreads.PrintResolvedCount";
    FILE *p = ::popen(cmd.c_str(), "r");
    ASSERT_NE(p, nullptr);
    std::string out;
    char buf[256];
    while (std::fgets(buf, sizeof(buf), p) != nullptr)
        out += buf;
    const int status = ::pclose(p);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << out;
    EXPECT_NE(out.find("resolved=2\n"), std::string::npos) << out;
}

} // namespace
} // namespace warpcomp
