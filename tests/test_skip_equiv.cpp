/**
 * @file
 * Differential testing of event-driven idle-cycle skipping: for every
 * registered workload, a run with skipping enabled must be
 * bit-identical to per-cycle stepping — same cycle count, same energy
 * events, same SEU flip stream, same fault census, same structured
 * stats document, same final memory image. The harness thread count
 * must be equally invisible. Anything less means skipCycles
 * bulk-accounted a span that was not actually uneventful.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "common/json_writer.hpp"
#include "harness/experiment.hpp"
#include "obs/stats_json.hpp"
#include "sim/gpu.hpp"
#include "workloads/registry.hpp"

namespace warpcomp {
namespace {

/** Everything observable from one run, serialized for equality. */
struct RunImage
{
    std::string statsJson;      ///< full structured-stats document
    std::vector<u8> gmem;       ///< final global-memory image
    Cycle cycles = 0;
    bool ranAhead = false;
};

std::string
toStatsJson(const RunResult &run, u32 num_sms)
{
    std::ostringstream os;
    JsonWriter w(os);
    writeRunStatsJson(w, run, num_sms);
    return os.str();
}

RunImage
runImage(const std::string &name, ExperimentConfig cfg, bool run_ahead)
{
    WorkloadInstance wl = makeWorkload(name, cfg.scale, cfg.seedSalt);
    GpuParams gp = makeGpuParams(cfg);
    gp.runAhead = run_ahead;
    Gpu gpu(gp, *wl.gmem, *wl.cmem);
    const RunResult run = gpu.run(wl.kernel, wl.dims);
    RunImage out;
    out.statsJson = toStatsJson(run, cfg.numSms);
    const auto img = wl.gmem->bytes();
    out.gmem.assign(img.begin(), img.end());
    out.cycles = run.cycles;
    out.ranAhead = run.stepping.ranAhead;
    return out;
}

/** Run @p name under @p cfg with skipping on and off, require the two
 *  runs to be indistinguishable, and return the skipping one. */
RunImage
expectSkipInvisible(const std::string &name, ExperimentConfig cfg,
                    const char *what, bool run_ahead = true)
{
    cfg.skipIdle = true;
    const RunImage on = runImage(name, cfg, run_ahead);
    cfg.skipIdle = false;
    const RunImage off = runImage(name, cfg, run_ahead);

    EXPECT_EQ(on.cycles, off.cycles) << what << ": cycle count differs";
    EXPECT_EQ(on.statsJson, off.statsJson)
        << what << ": structured stats diverge";
    EXPECT_TRUE(on.gmem == off.gmem)
        << what << ": final memory image diverges";
    return on;
}

class SkipEquiv : public ::testing::TestWithParam<std::string>
{};

TEST_P(SkipEquiv, SkipMatchesPerCycleStepping)
{
    ExperimentConfig cfg;
    cfg.numSms = 2;                 // keep the full-registry sweep quick
    expectSkipInvisible(GetParam(), cfg, "warped");

    cfg.scheme = CompressionScheme::None;
    expectSkipInvisible(GetParam(), cfg, "uncompressed");
}

TEST_P(SkipEquiv, SkipMatchesUnderSeuAndScrub)
{
    // The scrub engine ticks on a fixed interval and the SEU flip
    // stream is a per-cycle function of (seed, cycle): both must be
    // replayed exactly across any skipped span.
    ExperimentConfig cfg;
    cfg.numSms = 2;
    cfg.seu.flipsPerCycle = 0.01;
    cfg.seu.scheme = SeuScheme::EccScrub;
    cfg.seu.scrubInterval = 64;
    expectSkipInvisible(GetParam(), cfg, "seu+scrub");
}

TEST_P(SkipEquiv, SkipMatchesUnderStuckAtFaults)
{
    ExperimentConfig cfg;
    cfg.numSms = 2;
    cfg.faults.ber = 1e-5;
    cfg.faults.policy = FaultPolicy::DisableEntry;
    expectSkipInvisible(GetParam(), cfg, "stuck-at faults");
}

TEST_P(SkipEquiv, SkipMatchesInObservedDrowsyLockstep)
{
    // Lockstep's skip against per-cycle stepping, with obs armed: the
    // drowsy census and the window timelines in the stats document
    // must both come out the same. (Observed run-ahead is pinned to
    // observed lockstep in test_stepping.)
    ExperimentConfig cfg;
    cfg.numSms = 2;
    cfg.drowsy = true;
    cfg.obs.windowInterval = 250;
    EXPECT_FALSE(expectSkipInvisible(GetParam(), cfg,
                                     "observed drowsy lockstep", false)
                     .ranAhead);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, SkipEquiv,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto &info) { return info.param; });

/** The share-nothing parallel harness must produce bit-identical
 *  results at any worker count, with skipping on or off. */
TEST(SkipEquivHarness, ThreadCountIsInvisible)
{
    ExperimentConfig cfg;
    cfg.numSms = 2;
    for (const bool skip : {true, false}) {
        cfg.skipIdle = skip;
        const auto serial =
            runWorkloadsParallel(workloadNames(), cfg, 1);
        const auto parallel =
            runWorkloadsParallel(workloadNames(), cfg, 4);
        ASSERT_EQ(serial.size(), parallel.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            EXPECT_EQ(serial[i].workload, parallel[i].workload);
            EXPECT_EQ(toStatsJson(serial[i].run, cfg.numSms),
                      toStatsJson(parallel[i].run, cfg.numSms))
                << serial[i].workload << " (skip=" << skip
                << "): stats differ across thread counts";
        }
    }
}

} // namespace
} // namespace warpcomp
