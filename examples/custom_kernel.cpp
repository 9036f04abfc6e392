/**
 * @file
 * Custom-kernel example — authoring a block-wide reduction with the
 * KernelBuilder API (shared memory, barriers, a divergent tree loop),
 * running it on the simulated GPU, and verifying the result against a
 * host-side computation. Shows that compression is architecturally
 * invisible: both schemes produce bit-identical sums.
 */

#include <cstdio>
#include <vector>

#include "common/log.hpp"
#include "harness/experiment.hpp"
#include "workloads/inputs.hpp"
#include "workloads/workload.hpp"

using namespace warpcomp;

namespace {

/**
 * Tree reduction: each CTA sums 256 inputs into out[ctaid]. The stride
 * loop halves the active thread count each step, so the warp-level
 * activity is exactly the divergence pattern Sec. 5.2 worries about.
 */
Kernel
buildReduction(u64 in_base, u64 out_base)
{
    KernelBuilder b("block_reduce", 256 * 4);
    Reg tid = b.newReg(), bid = b.newReg(), ntid = b.newReg();
    b.s2r(tid, SpecialReg::TidX);
    b.s2r(bid, SpecialReg::CtaIdX);
    b.s2r(ntid, SpecialReg::NTidX);

    // Stage one element per thread into shared memory.
    Reg gid = b.newReg(), ga = b.newReg(), v = b.newReg(),
        sa = b.newReg();
    b.imad(gid, bid, ntid, tid);
    b.imad(ga, gid, KernelBuilder::imm(4),
           KernelBuilder::imm(static_cast<i32>(in_base)));
    b.ldg(v, ga);
    b.shl(sa, tid, KernelBuilder::imm(2));
    b.sts(sa, v);
    b.bar();

    // for (stride = 128; stride > 0; stride >>= 1)
    //     if (tid < stride) smem[tid] += smem[tid + stride]
    Reg stride = b.newReg();
    b.movImm(stride, 128);
    Pred more = b.newPred(), active = b.newPred();
    b.while_(
        [&] {
            b.isetp(more, CmpOp::Gt, stride, KernelBuilder::imm(0));
            return more;
        },
        [&] {
            b.isetp(active, CmpOp::Lt, tid, stride);
            b.if_(active, [&] {
                Reg pa = b.newReg(), pb = b.newReg(), x = b.newReg(),
                    y = b.newReg();
                b.shl(pa, tid, KernelBuilder::imm(2));
                Reg other = b.newReg();
                b.iadd(other, tid, stride);
                b.shl(pb, other, KernelBuilder::imm(2));
                b.lds(x, pa);
                b.lds(y, pb);
                b.iadd(x, x, y);
                b.sts(pa, x);
            });
            b.bar();
            b.shr(stride, stride, KernelBuilder::imm(1));
        });

    // Thread 0 writes the block sum.
    Pred leader = b.newPred();
    b.isetp(leader, CmpOp::Eq, tid, KernelBuilder::imm(0));
    b.if_(leader, [&] {
        Reg zero = b.newReg(), r = b.newReg(), oa = b.newReg();
        b.movImm(zero, 0);
        b.lds(r, zero);
        b.imad(oa, bid, KernelBuilder::imm(4),
               KernelBuilder::imm(static_cast<i32>(out_base)));
        b.stg(oa, r);
    });
    return b.build();
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1)
        WC_FATAL("unknown argument '" << argv[1] << "' (custom_kernel "
                 "takes no arguments)");
    std::printf("custom kernel: block-wide tree reduction\n");
    std::printf("========================================\n\n");

    const u32 block = 256, grid = 48, n = block * grid;

    for (CompressionScheme scheme :
         {CompressionScheme::None, CompressionScheme::Warped}) {
        GlobalMemory gmem(16 << 20);
        ConstantMemory cmem(64);
        Rng rng(2026);

        const u64 in = gmem.alloc(4ull * n);
        const u64 out = gmem.alloc(4ull * grid);
        std::vector<u32> host(n);
        for (u32 i = 0; i < n; ++i) {
            host[i] = rng.nextU32(100);
            gmem.write32(in + 4ull * i, host[i]);
        }

        Kernel k = buildReduction(in, out);

        GpuParams gp;
        gp.numSms = 8;
        gp.sm.scheme = scheme;
        gp.sm.applyScheme();
        Gpu gpu(gp, gmem, cmem);
        const RunResult r = gpu.run(k, {block, grid});

        u32 mismatches = 0;
        for (u32 c = 0; c < grid; ++c) {
            u32 expect = 0;
            for (u32 i = 0; i < block; ++i)
                expect += host[c * block + i];
            if (gmem.read32(out + 4ull * c) != expect)
                ++mismatches;
        }
        std::printf("%-20s cycles=%7llu  bank accesses=%8llu  "
                    "dummy MOVs=%5llu  mismatching block sums=%u/%u\n",
                    schemeName(scheme).c_str(),
                    static_cast<unsigned long long>(r.cycles),
                    static_cast<unsigned long long>(
                        r.meter.bankAccesses()),
                    static_cast<unsigned long long>(r.stats.dummyMovs),
                    mismatches, grid);
    }
    return 0;
}
