/**
 * @file
 * Design-space tour — the Sec. 6.6-6.8 exploration on one workload:
 * compression-parameter choices, comp/decomp latency sweeps, and
 * energy-constant scaling, all against the same baseline. Demonstrates
 * driving ExperimentConfig, fanning a config sweep onto the parallel
 * runner with runGrid (--threads=N), and re-pricing meters without
 * re-simulating. The run-shaping flags (--sms, --scale, --faults, --seu,
 * --no-skip, ...) apply to every config the tour runs, the baseline
 * included.
 */

#include <iostream>

#include "harness/experiment.hpp"
#include "power/report.hpp"

using namespace warpcomp;

int
main(int argc, char **argv)
{
    rejectHarnessFlags(argc, argv,
                       {"--kernel=", "--trace=", "--trace-out=",
                        "--trace-window=", "--stats-json="},
                       "the tour runs built-in workloads and records "
                       "nothing");
    const HarnessOptions opt = parseHarnessArgs(argc, argv);
    const std::string name = opt.only.empty() ? "hotspot" : opt.only;
    ExperimentConfig flags_cfg;
    applyHarnessOptions(opt, flags_cfg);

    std::cout << "design-space tour on '" << name << "'\n"
              << "====================================\n\n";

    ExperimentConfig base_cfg = flags_cfg;
    base_cfg.scheme = CompressionScheme::None;
    const ExperimentResult base = runWorkload(name, base_cfg);
    const double base_total = base.run.meter.breakdown().totalPj();

    // 1. Compression scheme choices (Fig 15/16 axis), all schemes
    //    simulated concurrently on the grid runner.
    std::cout << "1) compression parameter choices\n";
    TextTable t1({"scheme", "ratio", "energy vs baseline",
                  "cycles vs baseline"});
    const std::vector<CompressionScheme> schemes = {
        CompressionScheme::Warped, CompressionScheme::Fixed40,
        CompressionScheme::Fixed41, CompressionScheme::Fixed42,
        CompressionScheme::FullBdi};
    std::vector<ExperimentConfig> scheme_cfgs;
    for (CompressionScheme s : schemes) {
        ExperimentConfig cfg = flags_cfg;
        cfg.scheme = s;
        scheme_cfgs.push_back(cfg);
    }
    const auto scheme_grid = runGrid(scheme_cfgs, {name}, opt.threads);
    for (std::size_t i = 0; i < schemes.size(); ++i) {
        const ExperimentResult &r = scheme_grid[i][0];
        t1.addRow({schemeName(schemes[i]),
                   fmtDouble(r.run.stats.ratio.overallRatio(), 2),
                   fmtPercent(r.run.meter.breakdown().totalPj() /
                              base_total),
                   fmtDouble(static_cast<double>(r.run.cycles) /
                                 base.run.cycles, 3)});
    }
    t1.print(std::cout);

    // 2. Latency sensitivity (Fig 20/21 axis), one grid over the
    //    3x3 latency cross product.
    std::cout << "\n2) compression/decompression latency\n";
    TextTable t2({"comp.lat", "decomp.lat", "cycles vs baseline"});
    std::vector<ExperimentConfig> lat_cfgs;
    for (u32 cl : {2u, 4u, 8u}) {
        for (u32 dl : {1u, 4u, 8u}) {
            ExperimentConfig cfg = flags_cfg;
            cfg.compressLatency = cl;
            cfg.decompressLatency = dl;
            lat_cfgs.push_back(cfg);
        }
    }
    const auto lat_grid = runGrid(lat_cfgs, {name}, opt.threads);
    for (std::size_t i = 0; i < lat_cfgs.size(); ++i) {
        const ExperimentResult &r = lat_grid[i][0];
        t2.addRow({std::to_string(lat_cfgs[i].compressLatency),
                   std::to_string(lat_cfgs[i].decompressLatency),
                   fmtDouble(static_cast<double>(r.run.cycles) /
                                 base.run.cycles, 3)});
    }
    t2.print(std::cout);

    // 3. Energy-constant scaling, re-priced from one simulation
    //    (Fig 17/18/19 axis).
    std::cout << "\n3) energy-constant scaling (no re-simulation)\n";
    const ExperimentResult wc = runWorkload(name, flags_cfg);
    TextTable t3({"knob", "value", "wc energy vs baseline"});
    for (double s : {1.0, 1.5, 2.0, 2.5}) {
        EnergyParams p;
        p.compDecompScale = s;
        t3.addRow({"comp/decomp energy", fmtDouble(s, 1) + "x",
                   fmtPercent(wc.run.meter.breakdownWith(p).totalPj() /
                              base_total)});
    }
    for (double a : {0.0, 0.5, 1.0}) {
        EnergyParams p;
        p.wireActivity = a;
        const double b = base.run.meter.breakdownWith(p).totalPj();
        t3.addRow({"wire activity", fmtPercent(a, 0),
                   fmtPercent(wc.run.meter.breakdownWith(p).totalPj() /
                              b)});
    }
    t3.print(std::cout);
    return 0;
}
