/**
 * @file
 * Resilient sweep driver: runs a named (workload, config) grid with
 * every point in a supervised child process — watchdog timeouts,
 * bounded retry with exponential backoff, checkpoint journal, and
 * `--resume` — and emits the merged report on stdout (or `--report`).
 *
 * Grids (`--grid=NAME`):
 *   - smoke: three cheap workloads x three configs (compressed,
 *     uncompressed, faulty) — the CI chaos/resume gate;
 *   - fault: the bench_fault_sweep grid (fault-free ref + BER x
 *     policy cross);
 *   - seu:   a moderate SEU cross (ref + rate x protection);
 *   - perf:  the full suite under Warped and None.
 *
 * The report contains only deterministic per-point data in grid order,
 * so clean, resumed (`--resume=JOURNAL`), and multi-worker
 * (`--threads=N`) runs are byte-identical. Supervision counters go to
 * `--sweep-stats`/stderr instead, where cache hits and retries are
 * allowed to differ.
 */

#include <array>
#include <fstream>

#include "bench_common.hpp"
#include "sweep/sweep.hpp"

using namespace warpcomp;

namespace {

std::vector<ExperimentConfig>
makeGrid(const std::string &grid, const ExperimentConfig &base)
{
    std::vector<ExperimentConfig> configs;
    if (grid == "smoke") {
        configs.push_back(base);
        ExperimentConfig none = base;
        none.scheme = CompressionScheme::None;
        configs.push_back(none);
        ExperimentConfig faulty = base;
        faulty.faults.ber = 1e-3;
        faulty.faults.policy = FaultPolicy::DisableEntry;
        configs.push_back(faulty);
    } else if (grid == "fault") {
        configs.push_back(base);    // fault-free reference
        constexpr std::array<double, 4> bers = {1e-4, 5e-4, 1e-3, 5e-3};
        constexpr std::array<FaultPolicy, 3> policies = {
            FaultPolicy::None, FaultPolicy::DisableEntry,
            FaultPolicy::CompressRemap};
        for (double ber : bers) {
            for (FaultPolicy policy : policies) {
                ExperimentConfig cfg = base;
                cfg.faults.ber = ber;
                cfg.faults.policy = policy;
                configs.push_back(cfg);
            }
        }
    } else if (grid == "seu") {
        configs.push_back(base);    // SEU-free reference
        constexpr std::array<double, 2> rates = {1e-4, 1e-3};
        constexpr std::array<SeuScheme, 3> schemes = {
            SeuScheme::Unprotected, SeuScheme::Ecc, SeuScheme::EccScrub};
        for (double rate : rates) {
            for (SeuScheme scheme : schemes) {
                ExperimentConfig cfg = base;
                cfg.seu.flipsPerCycle = rate;
                cfg.seu.scheme = scheme;
                configs.push_back(cfg);
            }
        }
    } else if (grid == "perf") {
        configs.push_back(base);
        ExperimentConfig none = base;
        none.scheme = CompressionScheme::None;
        configs.push_back(none);
    } else {
        WC_FATAL("unknown --grid '" << grid
                 << "' (smoke, fault, seu, perf)");
    }
    return configs;
}

std::vector<std::string>
gridWorkloads(const std::string &grid, const HarnessOptions &opt)
{
    if (!opt.kernelPath.empty() || !opt.only.empty())
        return bench::selectedWorkloads(opt);
    if (grid == "smoke")
        return {"nw", "lud", "hotspot"};
    return workloadNames();
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<char *> rest;
    const HarnessOptions opt = parseHarnessArgs(argc, argv, &rest);
    const SweepOptions sopt =
        parseSweepArgs(static_cast<int>(rest.size()), rest.data());
    if (sopt.isChild())
        return runSweepChildPoint(sopt);

    ExperimentConfig base;
    base.scale = opt.scale;
    base.numSms = opt.numSms;
    base.skipIdle = !opt.noSkip;
    if (opt.faults.enabled())
        base.faults = opt.faults;
    if (opt.seu.enabled())
        base.seu = opt.seu;
    // Livelock containment inside the sim, independent of the
    // supervisor's wall-clock watchdog around it.
    base.faults.hangCycles =
        opt.hangBudget > 0 ? opt.hangBudget : Cycle{2'000'000};

    const std::vector<ExperimentConfig> configs =
        makeGrid(sopt.grid, base);
    const std::vector<std::string> workloads =
        gridWorkloads(sopt.grid, opt);

    std::vector<SweepPoint> points;
    points.reserve(configs.size() * workloads.size());
    for (const ExperimentConfig &cfg : configs)
        for (const std::string &w : workloads)
            points.push_back({w, cfg});

    const auto outcomes =
        runResilientSweep(argv[0], points, sopt, opt.threads);

    if (sopt.reportPath.empty()) {
        writeSweepReport(std::cout, "bench_sweep", sopt.grid, outcomes);
    } else {
        std::ofstream os(sopt.reportPath, std::ios::binary);
        if (!os)
            WC_FATAL("cannot write report to '" << sopt.reportPath
                     << "'");
        writeSweepReport(os, "bench_sweep", sopt.grid, outcomes);
    }
    return 0;
}
