/**
 * @file
 * Google-benchmark microbenchmarks of the hot paths: the BDI codec
 * (hardware-critical path under a 1-2 cycle budget), bank arbitration,
 * the SIMT stack and the functional lane kernels. These size the
 * simulator's own cost, not the paper's results.
 */

#include <benchmark/benchmark.h>

#include <bit>
#include <cstring>

#include "analysis/similarity.hpp"
#include "common/rng.hpp"
#include "compress/bdi.hpp"
#include "mem/memory.hpp"
#include "sim/arbiter.hpp"
#include "sim/functional.hpp"
#include "sim/simt_stack.hpp"

namespace warpcomp {
namespace {

WarpRegValue
strideValue(u32 base, u32 stride)
{
    WarpRegValue v{};
    for (u32 i = 0; i < kWarpSize; ++i)
        v[i] = base + stride * i;
    return v;
}

void
BM_BdiCompressUniform(benchmark::State &state)
{
    const auto img = toBytes(strideValue(42, 0));
    for (auto _ : state) {
        auto enc = bdiCompress(img, warpedCandidates());
        benchmark::DoNotOptimize(enc);
    }
}
BENCHMARK(BM_BdiCompressUniform);

void
BM_BdiCompressStride(benchmark::State &state)
{
    const auto img = toBytes(strideValue(1000, 1));
    for (auto _ : state) {
        auto enc = bdiCompress(img, warpedCandidates());
        benchmark::DoNotOptimize(enc);
    }
}
BENCHMARK(BM_BdiCompressStride);

void
BM_BdiCompressRandom(benchmark::State &state)
{
    Rng rng(1);
    WarpRegValue v{};
    for (u32 i = 0; i < kWarpSize; ++i)
        v[i] = static_cast<u32>(rng.next());
    const auto img = toBytes(v);
    for (auto _ : state) {
        auto enc = bdiCompress(img, warpedCandidates());
        benchmark::DoNotOptimize(enc);
    }
}
BENCHMARK(BM_BdiCompressRandom);

void
BM_BdiDecompress(benchmark::State &state)
{
    const auto img = toBytes(strideValue(1000, 1));
    const BdiEncoded enc = bdiCompress(img, warpedCandidates());
    for (auto _ : state) {
        auto out = bdiDecompress(enc);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_BdiDecompress);

void
BM_BdiExplorerFullCandidates(benchmark::State &state)
{
    const auto img = toBytes(strideValue(7, 300));
    for (auto _ : state) {
        auto best = bdiBestParams(img, fullBdiCandidates());
        benchmark::DoNotOptimize(best);
    }
}
BENCHMARK(BM_BdiExplorerFullCandidates);

/** An image only the 8-byte base compresses: 64-bit chunks
 *  0x0123456789ABCDEF + 3i fit <8,1>, while the 32-bit lanes alternate
 *  between two distant words and fit no <4,Y>. */
std::array<u8, kWarpRegBytes>
base8Image()
{
    std::array<u8, kWarpRegBytes> img{};
    for (u32 i = 0; i < kWarpRegBytes / 8; ++i) {
        const u64 chunk = 0x0123456789ABCDEFull + 3 * i;
        std::memcpy(img.data() + 8 * i, &chunk, 8);
    }
    return img;
}

void
BM_BdiCompressBase8Full(benchmark::State &state)
{
    const auto img = base8Image();
    for (auto _ : state) {
        auto enc = bdiCompress(img, fullBdiCandidates());
        benchmark::DoNotOptimize(enc);
    }
}
BENCHMARK(BM_BdiCompressBase8Full);

void
BM_BdiDecompressBase8(benchmark::State &state)
{
    const BdiEncoded enc = bdiCompress(base8Image(), fullBdiCandidates());
    if (enc.params != BdiParams{8, 1})
        state.SkipWithError("fixture no longer encodes as <8,1>");
    for (auto _ : state) {
        auto out = bdiDecompress(enc);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_BdiDecompressBase8);

void
BM_LaneScan(benchmark::State &state)
{
    // The fused per-write lane pass: base-4 fits plus Fig 2 bins.
    const WarpRegValue v = strideValue(1000, 3);
    for (auto _ : state) {
        auto scan = scanLanes(v);
        benchmark::DoNotOptimize(scan);
    }
}
BENCHMARK(BM_LaneScan);

void
BM_SimilarityRecordFull(benchmark::State &state)
{
    const WarpRegValue v = strideValue(1000, 3);
    SimilarityBins bins;
    for (auto _ : state) {
        bins.record(v, kFullMask, false);
        benchmark::DoNotOptimize(bins);
    }
}
BENCHMARK(BM_SimilarityRecordFull);

void
BM_ArbiterCycle(benchmark::State &state)
{
    BankArbiter arb(32);
    for (auto _ : state) {
        arb.newCycle();
        for (u32 b = 0; b < 32; ++b)
            benchmark::DoNotOptimize(arb.tryRead(b));
        benchmark::DoNotOptimize(arb.tryWriteRange(0, 8));
    }
}
BENCHMARK(BM_ArbiterCycle);

void
BM_SimtStackDivergeReconverge(benchmark::State &state)
{
    for (auto _ : state) {
        SimtStack s;
        s.reset(kFullMask);
        s.branch(10, 20, 0x0000FFFFu, 1);
        s.advance(20);
        s.popReconverged();
        s.advance(20);
        s.popReconverged();
        benchmark::DoNotOptimize(s);
    }
}
BENCHMARK(BM_SimtStackDivergeReconverge);

/**
 * One functional execute of @p op (reading @p num_srcs registers into a
 * separate destination) on a full warp under guard mask @p guard. The
 * kernel is the instruction plus EXIT; each iteration rewinds the pc,
 * so the loop times the lane kernel and its mask merge alone.
 */
void
executeLoop(benchmark::State &state, Opcode op, u32 num_srcs,
            LaneMask guard)
{
    Kernel k("bench_execute", 4, 1);
    Instruction in;
    in.op = op;
    in.dst = 3;
    for (u32 i = 0; i < num_srcs; ++i)
        in.src[i] = Operand::fromReg(static_cast<u8>(i));
    if (guard != kFullMask)
        in.guardPred = 0;
    k.append(in);
    Instruction ex;
    ex.op = Opcode::Exit;
    k.append(ex);

    GlobalMemory gmem(4096);
    ConstantMemory cmem;
    FunctionalExecutor fex(gmem, cmem);
    Warp warp;
    warp.launch(k, 0, 0, 0, kWarpSize, 0);
    for (u32 r = 0; r < num_srcs; ++r) {
        for (u32 lane = 0; lane < kWarpSize; ++lane) {
            warp.reg(r)[lane] =
                std::bit_cast<u32>(1.5f + static_cast<float>(lane + r));
        }
    }
    warp.setPred(0, guard, kFullMask);
    const LaunchDims dims{kWarpSize, 1};
    for (auto _ : state) {
        const ExecOutcome out = fex.execute(warp, 0, nullptr, dims);
        benchmark::DoNotOptimize(out.effMask);
        benchmark::DoNotOptimize(warp.reg(3).data());
        warp.stack().advance(0);
    }
}

void
BM_ExecuteFullMask(benchmark::State &state, Opcode op, u32 num_srcs)
{
    executeLoop(state, op, num_srcs, kFullMask);
}
BENCHMARK_CAPTURE(BM_ExecuteFullMask, iadd, Opcode::IAdd, 2);
BENCHMARK_CAPTURE(BM_ExecuteFullMask, ffma, Opcode::FFma, 3);

void
BM_ExecutePartialMask(benchmark::State &state, Opcode op, u32 num_srcs)
{
    // Alternating nibbles: the blend path, not the full-mask copy.
    executeLoop(state, op, num_srcs, 0x0F0F0F0Fu);
}
BENCHMARK_CAPTURE(BM_ExecutePartialMask, iadd, Opcode::IAdd, 2);

} // namespace
} // namespace warpcomp

BENCHMARK_MAIN();
