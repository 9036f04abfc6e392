/**
 * @file
 * Quickstart: build a tiny SAXPY kernel with the public KernelBuilder
 * API, run it on the simulated GPU with and without warped-compression,
 * and print the register-file energy breakdown.
 */

#include <cstdio>

#include "common/log.hpp"
#include "harness/experiment.hpp"
#include "isa/disasm.hpp"
#include "power/report.hpp"
#include "workloads/inputs.hpp"
#include "workloads/workload.hpp"

using namespace warpcomp;

namespace {

/** y[i] = a * x[i] + y[i] over one grid. */
WorkloadInstance
makeSaxpy()
{
    const u32 block = 256;
    const u32 grid = 30;
    const u32 n = block * grid;

    auto gmem = std::make_unique<GlobalMemory>(16ull << 20);
    auto cmem = std::make_unique<ConstantMemory>();
    Rng rng(42);

    const u64 x = gmem->alloc(4ull * n);
    const u64 y = gmem->alloc(4ull * n);
    fillRandomF32(*gmem, x, n, 0.0f, 1.0f, rng);
    fillRandomF32(*gmem, y, n, 0.0f, 1.0f, rng);

    pushAddr(*cmem, x);
    pushAddr(*cmem, y);

    KernelBuilder b("saxpy");
    Reg p_x = loadParam(b, 0);
    Reg p_y = loadParam(b, 1);

    Reg tid = b.newReg(), bid = b.newReg(), ntid = b.newReg();
    b.s2r(tid, SpecialReg::TidX);
    b.s2r(bid, SpecialReg::CtaIdX);
    b.s2r(ntid, SpecialReg::NTidX);
    Reg gid = b.newReg();
    b.imad(gid, bid, ntid, tid);

    Reg xa = b.newReg(), ya = b.newReg();
    b.imad(xa, gid, KernelBuilder::imm(4), p_x);
    b.imad(ya, gid, KernelBuilder::imm(4), p_y);
    Reg xv = b.newReg(), yv = b.newReg(), a = b.newReg();
    b.ldg(xv, xa);
    b.ldg(yv, ya);
    b.movFloat(a, 2.5f);
    Reg r = b.newReg();
    b.ffma(r, a, xv, yv);
    b.stg(ya, r);

    return {"saxpy", b.build(), {block, grid}, std::move(gmem),
            std::move(cmem)};
}

void
report(const char *label, const RunResult &run, double baseline_total)
{
    const EnergyBreakdown e = run.meter.breakdown();
    std::printf("%-22s cycles=%8llu  dyn=%9.1f nJ  leak=%9.1f nJ  "
                "comp=%6.1f nJ  decomp=%6.1f nJ  total=%9.1f nJ"
                "  (%.1f%% of baseline)\n",
                label,
                static_cast<unsigned long long>(run.cycles),
                e.dynamicPj() / 1e3, e.leakagePj() / 1e3,
                e.compressionPj / 1e3, e.decompressionPj / 1e3,
                e.totalPj() / 1e3,
                100.0 * e.totalPj() / baseline_total);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1)
        WC_FATAL("unknown argument '" << argv[1] << "' (quickstart takes no "
                 "arguments)");
    std::printf("warped-compression quickstart: SAXPY on the simulated "
                "GPU\n\n");

    // Show the kernel the builder produced.
    WorkloadInstance demo = makeSaxpy();
    std::printf("%s\n", disassemble(demo.kernel).c_str());

    // Baseline run (no compression).
    {
        WorkloadInstance wl = makeSaxpy();
        ExperimentConfig base;
        base.scheme = CompressionScheme::None;
        Gpu gpu(makeGpuParams(base), *wl.gmem, *wl.cmem);
        const RunResult run_base = gpu.run(wl.kernel, wl.dims);
        const double base_total = run_base.meter.breakdown().totalPj();

        // Warped-compression run.
        WorkloadInstance wl2 = makeSaxpy();
        ExperimentConfig wc;
        Gpu gpu2(makeGpuParams(wc), *wl2.gmem, *wl2.cmem);
        const RunResult run_wc = gpu2.run(wl2.kernel, wl2.dims);

        report("baseline", run_base, base_total);
        report("warped-compression", run_wc, base_total);

        std::printf("\ncompression ratio (non-div): %.2f\n",
                    run_wc.stats.ratio.ratio(kNonDivergent));
        std::printf("dummy MOVs: %llu of %llu instructions\n",
                    static_cast<unsigned long long>(run_wc.stats.dummyMovs),
                    static_cast<unsigned long long>(run_wc.stats.issued));
    }
    return 0;
}
