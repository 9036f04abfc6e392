/**
 * @file
 * Shared scaffolding for the bench binaries: the one suite runner
 * (workload filtering, stats/trace recording) and the figure
 * banner.
 */

#ifndef WARPCOMP_BENCH_BENCH_COMMON_HPP
#define WARPCOMP_BENCH_BENCH_COMMON_HPP

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "frontend/frontend.hpp"
#include "harness/experiment.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/stats_json.hpp"
#include "power/report.hpp"

namespace warpcomp {
namespace bench {

/** Workload list honouring --kernel and --only (in that order). */
inline std::vector<std::string>
selectedWorkloads(const HarnessOptions &opt)
{
    if (!opt.kernelPath.empty())
        return {kernelFileSpec(opt.kernelPath, opt.kernelEntry)};
    if (opt.only.empty())
        return workloadNames();
    return {opt.only};
}

/**
 * Run the selected workloads under one config on the parallel runner
 * (--threads=N; 0 = hardware concurrency). Output is bit-identical to
 * the old serial loop — see runWorkloadsParallel. @p label names the
 * suite in the stats document and trace ("suite N" when omitted).
 *
 * Observability: --stats-json=FILE arms the StatsRecorder (every suite
 * is recorded, flushed at exit); --trace=FILE writes a Chrome trace of
 * the FIRST suite the process runs and requires --only so the file
 * holds exactly one workload's lanes; --trace-out=FILE streams the
 * FIRST suite's full event record to a binary dump for offline
 * analysis with `wc_trace` (same --only requirement, same optional
 * --trace START,END window). All three enable windowed counters at
 * the --trace-window interval.
 */
inline std::vector<ExperimentResult>
runSelected(const HarnessOptions &opt, ExperimentConfig cfg,
            std::string label = "")
{
    applyHarnessOptions(opt, cfg);
    if (!opt.statsJsonPath.empty())
        statsRecorder().setOutput(opt.benchName, opt.statsJsonPath);

    static u32 suite_counter = 0;
    ++suite_counter;
    const std::string suite_label = label.empty()
        ? "suite " + std::to_string(suite_counter) : std::move(label);

    if (!opt.tracePath.empty() || !opt.statsJsonPath.empty() ||
        !opt.traceOutPath.empty())
        cfg.obs.windowInterval = opt.traceWindow;
    const bool trace_this = suite_counter == 1 && !opt.tracePath.empty();
    const bool stream_this =
        suite_counter == 1 && !opt.traceOutPath.empty();
    if (trace_this && opt.only.empty())
        WC_FATAL("--trace requires --only=WORKLOAD (one trace file "
                 "holds one workload's warp/bank lanes)");
    if (stream_this && opt.only.empty())
        WC_FATAL("--trace-out requires --only=WORKLOAD (one dump "
                 "holds one workload's event record)");
    if (trace_this || stream_this) {
        cfg.obs.trace = trace_this;
        cfg.obs.traceStart = opt.traceStart;
        cfg.obs.traceEnd = opt.traceEnd;
    }
    if (stream_this) {
        cfg.obs.streamPath = opt.traceOutPath;
        cfg.obs.streamLabel = suite_label;
    }

    auto results =
        runWorkloadsParallel(selectedWorkloads(opt), cfg, opt.threads);

    if (trace_this && !results.empty() &&
        results.front().run.obs != nullptr) {
        ChromeTraceMeta meta;
        meta.workload = results.front().workload;
        meta.config = suite_label;
        meta.numSms = cfg.numSms;
        meta.numBanks = makeGpuParams(cfg).sm.regfile.numBanks;
        meta.cycles = results.front().run.cycles;
        std::ofstream os(opt.tracePath);
        writeChromeTrace(os, *results.front().run.obs, meta);
        // A failed open, or a full disk that took the open but not the
        // writes, leaves the stream failed.
        if (!os.flush())
            WC_FATAL("cannot write trace to '" << opt.tracePath << "'");
    }

    // Ring wrap-around loses the oldest events; that is invisible in
    // the trace file itself, so say it out loud and name the fix.
    if (opt.traceOutPath.empty()) {
        for (const ExperimentResult &r : results) {
            if (r.run.obs == nullptr)
                continue;
            const u64 dropped = r.run.obs->ring().dropped();
            if (dropped > 0)
                std::cerr << "warning: trace ring dropped " << dropped
                          << " events for '" << r.workload
                          << "' (oldest overwritten); stream the full "
                             "run with --trace-out=FILE\n";
        }
    }

    if (statsRecorder().enabled()) {
        StatsSuiteRecord rec;
        rec.label = suite_label;
        rec.numSms = cfg.numSms;
        rec.scale = cfg.scale;
        rec.seedSalt = cfg.seedSalt;
        rec.rows = results;
        statsRecorder().addSuite(std::move(rec));
    }

    return results;
}

/** Standard figure banner. */
inline void
banner(const std::string &title, const std::string &paper_ref)
{
    std::cout << "== " << title << " ==\n"
              << "(reproduces " << paper_ref << " of Lee et al., "
              << "Warped-Compression, ISCA 2015)\n\n";
}

} // namespace bench
} // namespace warpcomp

#endif // WARPCOMP_BENCH_BENCH_COMMON_HPP
