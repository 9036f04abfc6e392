/**
 * @file
 * Heap-allocation regression guard for the simulator hot loop. Replaces
 * the global operator new/delete with versions that count calls and
 * bytes, drives one Sm into steady state, and asserts that a window of
 * cycles with no CTA launch or completion performs zero heap
 * allocations; it also bounds the bytes one Sm allocates when it is
 * built. Built as its own test binary so the replaced allocator does
 * not wrap the main suite.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "isa/builder.hpp"
#include "mem/memory.hpp"
#include "obs/obs.hpp"
#include "obs/trace_stream.hpp"
#include "sim/sm.hpp"

namespace {

std::atomic<unsigned long long> g_allocations{0};
std::atomic<unsigned long long> g_allocatedBytes{0};

} // namespace

void *
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    g_allocatedBytes.fetch_add(size, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc{};
}

void *
operator new[](std::size_t size)
{
    return operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace warpcomp {
namespace {

/** Long uniform ALU loop: thousands of busy cycles between the CTA
 *  launch and its completion, with every pipeline stage exercised.
 *  With @p store, every iteration also stores to global memory. */
Kernel
spinKernel(bool store = false)
{
    KernelBuilder b("spin");
    Reg tid = b.newReg(), acc = b.newReg(), tmp = b.newReg(),
        i = b.newReg(), addr;
    b.s2r(tid, SpecialReg::TidX);
    if (store) {
        addr = b.newReg();
        b.shl(addr, tid, KernelBuilder::imm(2));
    }
    b.movImm(acc, 1);
    b.forRange(i, KernelBuilder::imm(0), KernelBuilder::imm(4000), 1,
               [&] {
                   b.iadd(acc, acc, tid);
                   b.xor_(tmp, acc, KernelBuilder::imm(0x55));
                   b.imad(acc, tmp, KernelBuilder::imm(3), acc);
                   if (store)
                       b.stg(addr, acc);
               });
    return b.build();
}

/** Steady-state window of one Sm run; returns allocations observed.
 *  When @p obs is non-null it is attached before warm-up, so the
 *  measured window covers the tracing hot path too. With @p stores
 *  armed, the kernel stores every iteration and the buffer commits
 *  after each cycle, as in Gpu::run. */
unsigned long long
measureSteadyState(const SmParams &sp, ObsRun *obs = nullptr,
                   GlobalStoreBuffer *stores = nullptr)
{
    GlobalMemory gmem(1 << 20);
    ConstantMemory cmem(64);
    const Kernel kernel = spinKernel(stores != nullptr);

    const EnergyParams ep;
    const LaunchDims dims{256, 1};  // one CTA: no mid-run launches
    Sm sm(sp, ep, gmem, cmem, kernel, dims);
    if (obs != nullptr)
        sm.attachObs(obs, 0);
    sm.armStoreBuffer(stores);
    EXPECT_TRUE(sm.tryLaunchCta(0, 0));

    auto step = [&](Cycle now) {
        sm.cycle(now);
        if (stores != nullptr)
            stores->commit(gmem);
    };
    // Warm up: scratch vectors (exec list, SIMT stacks, collector pool
    // bookkeeping) reach their steady-state capacity.
    Cycle now = 0;
    for (; now < 2000; ++now)
        step(now);
    EXPECT_TRUE(sm.busy()) << "kernel finished during warm-up; "
                              "lengthen the spin loop";

    const auto before = g_allocations.load(std::memory_order_relaxed);
    for (; now < 12000; ++now)
        step(now);
    const auto after = g_allocations.load(std::memory_order_relaxed);

    // The window must lie strictly inside the kernel run: CTA launch
    // and completion are allowed to allocate, the cycle loop is not.
    EXPECT_TRUE(sm.busy()) << "kernel finished inside the measured "
                              "window; lengthen the spin loop";
    EXPECT_EQ(sm.ctasCompleted(), 0u);
    return after - before;
}

TEST(AllocGuard, DefaultSmAllocatesUnder32KiB)
{
    // Register values live once, in the warps; the register file keeps
    // bank state and a per-register indicator, not a second, encoded
    // copy of every value. Gpu::run builds one Sm per SM per launch, and
    // run-ahead threads move SM state between cores, so the footprint
    // is a hot-path cost too.
    SmParams sp;
    sp.applyScheme();
    GlobalMemory gmem(1 << 20);
    ConstantMemory cmem(64);
    const Kernel kernel = spinKernel();
    const auto before = g_allocatedBytes.load(std::memory_order_relaxed);
    const Sm sm(sp, EnergyParams{}, gmem, cmem, kernel, LaunchDims{256, 1});
    const auto bytes =
        g_allocatedBytes.load(std::memory_order_relaxed) - before;
    EXPECT_LT(bytes, 32u * 1024u)
        << "constructing a default Sm allocated " << bytes << " bytes";
}

TEST(AllocGuard, SteadyStateCycleLoopIsAllocationFree)
{
    SmParams sp;
    sp.applyScheme();               // default warped-compression config
    EXPECT_EQ(measureSteadyState(sp), 0u)
        << "steady-state cycle loop allocated over 10000 cycles";
}

TEST(AllocGuard, FaultInjectionKeepsCycleLoopAllocationFree)
{
    // The CompressRemap hooks (healthy-prefix probe on every write,
    // remap accounting on reads) sit on the hot path and must not
    // allocate once the fault map is built.
    SmParams sp;
    sp.applyScheme();
    sp.faults.ber = 1e-3;
    sp.faults.policy = FaultPolicy::CompressRemap;
    EXPECT_EQ(measureSteadyState(sp), 0u)
        << "CompressRemap hot path allocated over 10000 cycles";
}

TEST(AllocGuard, SilentCorruptionPathIsAllocationFree)
{
    // Policy None corrupts the stored image at writeback commit via
    // fixed-size buffers (BdiEncoded copy + decompress into an array);
    // a high BER makes the corrupt branch actually execute.
    SmParams sp;
    sp.applyScheme();
    sp.faults.ber = 5e-3;
    sp.faults.policy = FaultPolicy::None;
    EXPECT_EQ(measureSteadyState(sp), 0u)
        << "stuck-at corruption path allocated over 10000 cycles";
}

TEST(AllocGuard, SeuUnprotectedPathIsAllocationFree)
{
    // The SEU hot path — per-cycle flip sampling, pending bookkeeping,
    // read resolution with re-encode/XOR/decode on corruption — runs
    // entirely in preallocated fixed-size structures. A high rate makes
    // the corrupt branch execute inside the measured window.
    SmParams sp;
    sp.applyScheme();
    sp.seu.flipsPerCycle = 0.05;
    sp.seu.scheme = SeuScheme::Unprotected;
    EXPECT_EQ(measureSteadyState(sp), 0u)
        << "SEU corruption path allocated over 10000 cycles";
}

TEST(AllocGuard, TracingDisabledAddsNoAllocations)
{
    // The observability hooks are a branch on a null pointer when no
    // ObsRun is attached (the default); the hot loop must stay
    // allocation-free exactly as before the subsystem existed.
    SmParams sp;
    sp.applyScheme();
    EXPECT_EQ(measureSteadyState(sp, nullptr), 0u)
        << "null-obs hook path allocated over 10000 cycles";
}

TEST(AllocGuard, TracingEnabledHotPathIsAllocationFree)
{
    // With tracing and windowed counters armed, every emit lands in the
    // preallocated ring and the reserved window table — the cycle loop
    // still must not allocate (ring wrap drops oldest, never grows).
    SmParams sp;
    sp.applyScheme();
    ObsParams op;
    op.trace = true;
    op.ringCapacity = 1u << 16;
    op.windowInterval = 256;
    ObsRun obs(op);
    EXPECT_EQ(measureSteadyState(sp, &obs), 0u)
        << "tracing hot path allocated over 10000 cycles";
    EXPECT_GT(obs.ring().pushed(), 0u)
        << "tracing was armed but no events were recorded";
}

TEST(AllocGuard, StreamingSinkHotPathIsAllocationFree)
{
    // With the --trace-out sink armed, every emit additionally lands
    // in the sink's preallocated batch buffer, and full batches leave
    // via plain write(2) — the cycle loop still must not allocate,
    // however many events stream out.
    SmParams sp;
    sp.applyScheme();
    const std::string path =
        ::testing::TempDir() + "wc_alloc_guard_trace.wctrace";
    TraceStreamMeta meta;
    meta.gitSha = traceStreamGitSha();
    meta.workload = "spin";
    meta.config = "alloc-guard";
    meta.numSms = 1;
    meta.numBanks = sp.regfile.numBanks;
    TraceStreamSink sink(path, meta);
    ObsParams op;
    op.trace = true;
    op.ringCapacity = 1u << 16;
    op.windowInterval = 256;
    op.sink = &sink;
    ObsRun obs(op);
    EXPECT_EQ(measureSteadyState(sp, &obs), 0u)
        << "streaming-sink hot path allocated over 10000 cycles";
    EXPECT_GT(obs.streamedEvents(), 0u)
        << "sink was armed but no events streamed";
    EXPECT_EQ(obs.streamedEvents(), sink.eventsWritten());
    std::remove(path.c_str());
}

TEST(AllocGuard, StoreBufferArmedCycleLoopIsAllocationFree)
{
    // Gpu::run holds each SM's global stores in a buffer reserved at
    // numSchedulers x 32 entries, the most one cycle can issue, and
    // commits it after every cycle: buffering never allocates.
    SmParams sp;
    sp.applyScheme();
    GlobalStoreBuffer stores(sp.numSchedulers * kWarpSize);
    EXPECT_EQ(measureSteadyState(sp, nullptr, &stores), 0u)
        << "store-buffered cycle loop allocated over 10000 cycles";
}

TEST(AllocGuard, RunAheadDetectorArmedCycleIsAllocationFree)
{
    // While SMs run ahead, each STG appends to a store log that grows
    // for the whole run and marks the conflict detector. Gpu::run
    // restores the log's headroom before each cycle, outside
    // Sm::cycle; inside it, logging and marking never allocate.
    SmParams sp;
    sp.applyScheme();
    GlobalMemory gmem(1 << 20);
    ConstantMemory cmem(64);
    const Kernel kernel = spinKernel(true);
    Sm sm(sp, EnergyParams{}, gmem, cmem, kernel, LaunchDims{256, 1});
    const u32 headroom = sp.numSchedulers * kWarpSize;
    GlobalStoreBuffer log(headroom);
    GlobalConflictDetector detector(gmem.size());
    sm.armStoreBuffer(&log);
    sm.armDetector(&detector);
    EXPECT_TRUE(sm.tryLaunchCta(0, 0));

    unsigned long long in_cycle = 0;
    for (Cycle now = 0; now < 12000; ++now) {
        log.reserveHeadroom(headroom);
        const auto before = g_allocations.load(std::memory_order_relaxed);
        sm.cycle(now);
        if (now >= 2000)
            in_cycle += g_allocations.load(std::memory_order_relaxed) -
                before;
    }
    EXPECT_TRUE(sm.busy()) << "kernel finished inside the measured "
                              "window; lengthen the spin loop";
    EXPECT_EQ(in_cycle, 0u)
        << "Sm::cycle allocated with the run-ahead detector armed";
    EXPECT_GT(log.stores().size(), 10'000u)
        << "the log should hold every store of the window";
    EXPECT_FALSE(detector.conflict());
}

TEST(AllocGuard, ObsLogArmedCycleIsAllocationFree)
{
    // While an observed launch's SMs run ahead, each SM's events and
    // window rows go to its own log, which grows until they are
    // drained. Gpu::run restores the log's headroom before each cycle,
    // outside Sm::cycle; inside it, logging never allocates.
    SmParams sp;
    sp.applyScheme();
    GlobalMemory gmem(1 << 20);
    ConstantMemory cmem(64);
    const Kernel kernel = spinKernel();
    Sm sm(sp, EnergyParams{}, gmem, cmem, kernel, LaunchDims{256, 1});
    ObsParams op;
    op.trace = true;
    op.ringCapacity = 1u << 16;
    op.windowInterval = 256;
    ObsRun obs(op);
    obs.armLogs(1, stepEventBound(sp));
    sm.attachObs(&obs, 0);
    ObsLog &log = *obs.log(0);
    EXPECT_TRUE(sm.tryLaunchCta(0, 0));

    unsigned long long in_cycle = 0;
    for (Cycle now = 0; now < 12000; ++now) {
        log.reserveHeadroom(now);
        const auto before = g_allocations.load(std::memory_order_relaxed);
        sm.cycle(now);
        if (now >= 2000)
            in_cycle += g_allocations.load(std::memory_order_relaxed) -
                before;
    }
    EXPECT_TRUE(sm.busy()) << "kernel finished inside the measured "
                              "window; lengthen the spin loop";
    EXPECT_EQ(in_cycle, 0u)
        << "Sm::cycle allocated with its event log armed";
    EXPECT_GT(log.size(), 10'000u)
        << "the log should hold every event of the window";
    EXPECT_EQ(obs.ring().pushed(), 0u)
        << "nothing reaches the ring before the log is drained";
}

TEST(AllocGuard, SeuEccScrubPathIsAllocationFree)
{
    // ECC resolution plus the background scrubber (one row visit every
    // scrubInterval cycles, rewriting live rows) must also stay
    // allocation-free in steady state.
    SmParams sp;
    sp.applyScheme();
    sp.seu.flipsPerCycle = 0.05;
    sp.seu.scheme = SeuScheme::EccScrub;
    sp.seu.scrubInterval = 16;
    EXPECT_EQ(measureSteadyState(sp), 0u)
        << "SEU ECC+scrub path allocated over 10000 cycles";
}

} // namespace
} // namespace warpcomp
