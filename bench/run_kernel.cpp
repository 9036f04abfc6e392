/**
 * @file
 * Binary kernel driver: load an RV32IM kernel image via
 * `--kernel=FILE[,entry=SYM]`, translate it, and run it through the
 * full timing model in the canonical environment, printing the
 * figure-level stats (cycles, compression ratio, register-file
 * energy). `--disasm` prints the translated listing without running.
 *
 * Built-in workloads (including the DSL twins vecadd / saxpy /
 * reduction) remain reachable via `--only=NAME`, so a binary kernel
 * and its twin can be compared side by side:
 *
 *   run_kernel --kernel=examples/kernels/vecadd.hex
 *   run_kernel --only=vecadd
 */

#include <cstring>

#include "bench_common.hpp"
#include "isa/disasm.hpp"

using namespace warpcomp;

int
main(int argc, char **argv)
{
    std::vector<char *> rest;
    const HarnessOptions opt = parseHarnessArgs(argc, argv, &rest);
    bool disasmOnly = false;
    for (std::size_t i = 1; i < rest.size(); ++i) {
        if (std::strcmp(rest[i], "--disasm") != 0)
            WC_FATAL("unknown argument '" << rest[i] << "'");
        disasmOnly = true;
    }

    if (opt.kernelPath.empty() && opt.only.empty())
        WC_FATAL("run_kernel needs --kernel=FILE[,entry=SYM] or "
                 "--only=WORKLOAD");

    if (disasmOnly) {
        if (opt.kernelPath.empty()) {
            WorkloadInstance wl = makeWorkload(opt.only, opt.run.scale, 0);
            std::cout << disassemble(wl.kernel);
            return 0;
        }
        const LoadedKernel lk =
            loadKernelFileOrExit(opt.kernelPath, opt.kernelEntry);
        std::cout << "# image " << lk.path << "\n"
                  << "# sha256 " << lk.imageSha << "\n"
                  << "# block " << lk.blockDim << "\n"
                  << disassemble(lk.kernel);
        return 0;
    }

    bench::banner("Binary kernel frontend", "Sec 5 methodology");

    ExperimentConfig cfg;
    const auto results = bench::runSelected(opt, cfg, "run_kernel");

    TextTable t({"kernel", "frontend", "cycles", "comp ratio",
                 "energy (uJ)"});
    for (const auto &r : results) {
        t.addRow({r.workload, r.frontend,
                  std::to_string(r.run.cycles),
                  fmtDouble(r.run.stats.ratio.overallRatio(), 3),
                  fmtDouble(r.run.meter.breakdown().totalPj() * 1e-6, 3)});
        if (!r.imageSha.empty())
            std::cout << "image sha256: " << r.imageSha << "\n";
    }
    t.print(std::cout);
    return 0;
}
