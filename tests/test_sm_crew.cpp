/**
 * @file
 * One run's SMs stepped on a crew of host threads (sim/sm_crew.hpp):
 * the crew calls every group exactly once per step, every result is
 * byte-identical for any GpuParams::hostThreads (stats document and
 * final global-memory image, all 19 workloads with idle skipping on
 * and off, plus fault and SEU configs), and the store-visibility rule
 * holds: a cycle's global stores become visible at its end, committed
 * in SM order, while an Sm with no store buffer armed writes through.
 */

#include <gtest/gtest.h>

#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/host_threads.hpp"
#include "harness/experiment.hpp"
#include "isa/builder.hpp"
#include "obs/obs.hpp"
#include "obs/stats_json.hpp"
#include "sim/sm_crew.hpp"

namespace warpcomp {
namespace {

// ---------------------------------------------------------------------
// The crew itself
// ---------------------------------------------------------------------

/** One counter per group, each on its own cache line. */
struct alignas(64) GroupCount
{
    u64 calls = 0;
    u64 lastStep = 0;
    bool inOrder = true;
};

TEST(SmCrew, EveryGroupRunsOncePerStep)
{
    for (u32 threads : {1u, 2u, 3u, 4u}) {
        SmCrew crew(threads);
        std::vector<GroupCount> counts(threads);
        u64 step = 0;
        auto fn = [&](u32 g) {
            GroupCount &c = counts[g];
            c.inOrder = c.inOrder && c.lastStep + 1 == step;
            ++c.calls;
            c.lastStep = step;
        };
        // Alternate parallel and serial steps, as Gpu::run does.
        constexpr u64 kSteps = 20'000;
        for (step = 1; step <= kSteps; ++step)
            crew.run(fn, step % 7 != 0);
        for (u32 g = 0; g < threads; ++g) {
            EXPECT_EQ(counts[g].calls, kSteps) << "group " << g;
            EXPECT_TRUE(counts[g].inOrder) << "group " << g;
        }
        EXPECT_LE(crew.stolenGroups(),
                  crew.parallelSteps() * (threads - 1));
        if (threads == 1) {
            EXPECT_EQ(crew.parallelSteps(), 0u);
        }
    }
}

TEST(SmCrew, SerialStepsRunOnTheCallingThread)
{
    SmCrew crew(4);
    const std::thread::id self = std::this_thread::get_id();
    bool all_here = true;
    auto fn = [&](u32) {
        all_here = all_here && std::this_thread::get_id() == self;
    };
    for (u32 i = 0; i < 100; ++i)
        crew.run(fn, false);
    EXPECT_TRUE(all_here);
    EXPECT_EQ(crew.parallelSteps(), 0u);
}

TEST(SmCrew, GroupZeroStaysOnTheCallingThread)
{
    SmCrew crew(3);
    const std::thread::id self = std::this_thread::get_id();
    bool zero_here = true;
    std::atomic<u64> calls{0};
    auto fn = [&](u32 g) {
        if (g == 0)
            zero_here = zero_here && std::this_thread::get_id() == self;
        calls.fetch_add(1, std::memory_order_relaxed);
    };
    for (u32 i = 0; i < 5'000; ++i)
        crew.run(fn, true);
    EXPECT_TRUE(zero_here);
    EXPECT_EQ(calls.load(), 15'000u);
}

TEST(SmCrew, ExceptionInAGroupReachesTheCaller)
{
    SmCrew crew(2);
    auto fine = [](u32) {};
    auto fail = [](u32 g) {
        if (g == 1)
            throw std::runtime_error("group 1");
    };
    for (u32 i = 0; i < 200; ++i) {
        crew.run(fine, true);
        EXPECT_THROW(crew.run(fail, true), std::runtime_error);
    }
}

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
};

RunBytes
runWithThreads(const std::string &name, const ExperimentConfig &cfg,
               u32 host_threads)
{
    RunBytes out{{}, makeWorkload(name, cfg.scale, cfg.seedSalt), 0};
    GpuParams gp = makeGpuParams(cfg);
    gp.hostThreads = host_threads;
    const RunResult run = Gpu(gp, *out.wl.gmem, *out.wl.cmem)
        .run(out.wl.kernel, out.wl.dims, cfg.collectBdiBreakdown);
    std::ostringstream os;
    {
        JsonWriter w(os);
        writeRunStatsJson(w, run, cfg.numSms);
    }
    out.stats = os.str();
    out.cycles = run.cycles;
    return out;
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
    // One serial reference serves both skip settings: idle skipping
    // is itself byte-invisible (test_skip_equiv), so a crew run with
    // skipping off must reproduce the serial run with it on.
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
    return {gmem.read32(kWord), gmem.read32(kOut), run.obs};
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
