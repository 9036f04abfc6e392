/**
 * @file
 * Pathfinder walkthrough — the workload whose kernel the paper lists
 * in Fig 4. Shows the ported kernel, runs it under the baseline and
 * warped-compression, and prints the per-figure statistics for this
 * single benchmark: value-similarity bins (Fig 2), divergence ratio
 * (Fig 3), compression ratio by phase (Fig 8), dummy MOVs (Fig 11),
 * and the energy breakdown (Fig 9).
 */

#include <cstdio>

#include "common/log.hpp"
#include "harness/experiment.hpp"
#include "isa/disasm.hpp"
#include "power/report.hpp"

using namespace warpcomp;

int
main(int argc, char **argv)
{
    if (argc > 1)
        WC_FATAL("unknown argument '" << argv[1] << "' (pathfinder_demo "
                 "takes no arguments)");
    std::printf("pathfinder under warped-compression\n");
    std::printf("===================================\n\n");

    WorkloadInstance wl = makeWorkload("pathfinder");
    std::printf("kernel as ported to the warpcomp ISA "
                "(paper Fig 4 lists the CUDA source):\n\n%s\n",
                disassemble(wl.kernel).c_str());

    ExperimentConfig base_cfg;
    base_cfg.scheme = CompressionScheme::None;
    ExperimentConfig wc_cfg;
    // Both configurations simulate concurrently on the grid runner.
    const auto grid = runGrid({base_cfg, wc_cfg}, {"pathfinder"});
    const ExperimentResult &base = grid[0][0];
    const ExperimentResult &wc = grid[1][0];

    const SimStats &st = wc.run.stats;

    std::printf("--- value similarity at register writes (Fig 2) ---\n");
    for (Phase ph : {kNonDivergent, kDivergent}) {
        std::printf("%-14s zero=%5.1f%%  |d|<=128=%5.1f%%  "
                    "|d|<=32K=%5.1f%%  random=%5.1f%%\n",
                    ph == kNonDivergent ? "non-divergent" : "divergent",
                    100 * st.simBins.fraction(ph, DistanceBin::Zero),
                    100 * st.simBins.fraction(ph, DistanceBin::Small128),
                    100 * st.simBins.fraction(ph, DistanceBin::Mid32K),
                    100 * st.simBins.fraction(ph, DistanceBin::Random));
    }

    const double div_ratio = static_cast<double>(st.issuedDivergent) /
        static_cast<double>(st.issued);
    std::printf("\n--- divergence (Fig 3) ---\n");
    std::printf("non-divergent warp instructions: %.1f%%\n",
                100 * (1.0 - div_ratio));

    std::printf("\n--- compression ratio (Fig 8) ---\n");
    std::printf("non-divergent: %.2f   divergent: %.2f\n",
                st.ratio.ratio(kNonDivergent),
                st.ratio.ratio(kDivergent));

    std::printf("\n--- divergence handling (Fig 11) ---\n");
    std::printf("dummy MOVs: %llu (%.2f%% of %llu instructions)\n",
                static_cast<unsigned long long>(st.dummyMovs),
                100.0 * st.dummyMovs / st.issued,
                static_cast<unsigned long long>(st.issued));

    std::printf("\n--- energy (Fig 9) ---\n");
    const EnergyBreakdown eb = base.run.meter.breakdown();
    const EnergyBreakdown ew = wc.run.meter.breakdown();
    std::printf("baseline:           dynamic %8.1f nJ, leakage %8.1f nJ\n",
                eb.dynamicPj() / 1e3, eb.leakagePj() / 1e3);
    std::printf("warped-compression: dynamic %8.1f nJ, leakage %8.1f nJ, "
                "comp %6.1f nJ, decomp %6.1f nJ\n",
                ew.dynamicPj() / 1e3, ew.leakagePj() / 1e3,
                ew.compressionPj / 1e3, ew.decompressionPj / 1e3);
    std::printf("total register-file energy: %.1f%% of baseline "
                "(%.1f%% saved)\n",
                100 * ew.totalPj() / eb.totalPj(),
                100 * (1 - ew.totalPj() / eb.totalPj()));
    std::printf("execution time: %llu -> %llu cycles (%+.2f%%)\n",
                static_cast<unsigned long long>(base.run.cycles),
                static_cast<unsigned long long>(wc.run.cycles),
                100.0 * (static_cast<double>(wc.run.cycles) /
                             base.run.cycles - 1.0));
    return 0;
}
