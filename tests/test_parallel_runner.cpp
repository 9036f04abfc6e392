/**
 * @file
 * Parallel-runner determinism and the host-thread primitive under it:
 * runWorkloadsParallel must produce results bit-identical to a serial
 * runWorkload loop for any thread count, runGrid must match nested
 * serial loops even with far more jobs than threads, parallelFor must
 * call every index exactly once (in order on the caller with one
 * thread) and rethrow a call's exception only after every call has
 * returned, and shareThreads must split a budget as documented.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/host_threads.hpp"
#include "harness/experiment.hpp"

namespace warpcomp {
namespace {

/** Small config so the full suite stays fast under repetition. */
ExperimentConfig
smallConfig()
{
    ExperimentConfig cfg;
    cfg.numSms = 2;
    return cfg;
}

/** Exact equality over every field a run reports; doubles compare
 *  bitwise-equal because both paths execute identical arithmetic. */
void
expectRunsEqual(const ExperimentResult &a, const ExperimentResult &b)
{
    SCOPED_TRACE(a.workload);
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.run.cycles, b.run.cycles);
    EXPECT_EQ(a.run.ctas, b.run.ctas);
    EXPECT_EQ(a.run.rfcHits, b.run.rfcHits);
    EXPECT_EQ(a.run.rfcMisses, b.run.rfcMisses);

    const SimStats &sa = a.run.stats;
    const SimStats &sb = b.run.stats;
    EXPECT_EQ(sa.issued, sb.issued);
    EXPECT_EQ(sa.issuedDivergent, sb.issuedDivergent);
    EXPECT_EQ(sa.dummyMovs, sb.dummyMovs);
    EXPECT_EQ(sa.regWrites, sb.regWrites);
    EXPECT_EQ(sa.regWritesDivergent, sb.regWritesDivergent);
    EXPECT_EQ(sa.writesStoredCompressed, sb.writesStoredCompressed);
    for (Phase ph : {kNonDivergent, kDivergent}) {
        for (u32 bin = 0; bin < kNumDistanceBins; ++bin) {
            EXPECT_EQ(sa.simBins.count(ph, static_cast<DistanceBin>(bin)),
                      sb.simBins.count(ph, static_cast<DistanceBin>(bin)));
        }
        EXPECT_EQ(sa.ratio.writes(ph), sb.ratio.writes(ph));
        EXPECT_EQ(sa.compressedFracSum[ph], sb.compressedFracSum[ph]);
        EXPECT_EQ(sa.compressedFracSamples[ph],
                  sb.compressedFracSamples[ph]);
    }
    for (u32 i = 0; i < 8; ++i)
        EXPECT_EQ(sa.bdiSelect[i], sb.bdiSelect[i]);

    const EnergyMeter &ma = a.run.meter;
    const EnergyMeter &mb = b.run.meter;
    EXPECT_EQ(ma.bankReads(), mb.bankReads());
    EXPECT_EQ(ma.bankWrites(), mb.bankWrites());
    EXPECT_EQ(ma.rfcAccesses(), mb.rfcAccesses());
    EXPECT_EQ(ma.compActivations(), mb.compActivations());
    EXPECT_EQ(ma.decompActivations(), mb.decompActivations());
    EXPECT_EQ(ma.awakeBankCycles(), mb.awakeBankCycles());
    EXPECT_EQ(ma.drowsyBankCycles(), mb.drowsyBankCycles());
    EXPECT_EQ(ma.cycles(), mb.cycles());

    ASSERT_EQ(a.run.bankGatedFraction.size(),
              b.run.bankGatedFraction.size());
    for (std::size_t i = 0; i < a.run.bankGatedFraction.size(); ++i)
        EXPECT_EQ(a.run.bankGatedFraction[i], b.run.bankGatedFraction[i]);
}

void
expectSuitesEqual(const std::vector<ExperimentResult> &a,
                  const std::vector<ExperimentResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        expectRunsEqual(a[i], b[i]);
}

class ParallelRunner : public ::testing::TestWithParam<u32>
{};

TEST_P(ParallelRunner, SuiteMatchesSerialBitExactly)
{
    const ExperimentConfig cfg = smallConfig();
    std::vector<ExperimentResult> serial;
    for (const std::string &name : workloadNames())
        serial.push_back(runWorkload(name, cfg));
    const auto parallel =
        runWorkloadsParallel(workloadNames(), cfg, GetParam());
    expectSuitesEqual(serial, parallel);
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelRunner,
                         ::testing::Values(1u, 2u, 8u));

TEST(ParallelRunner, SameSeedSameOutputAcrossRepeats)
{
    ExperimentConfig cfg = smallConfig();
    cfg.seedSalt = 7;
    const auto first = runWorkloadsParallel(workloadNames(), cfg, 4);
    const auto second = runWorkloadsParallel(workloadNames(), cfg, 4);
    expectSuitesEqual(first, second);
}

TEST(ParallelRunner, SeedSaltChangesInputsDeterministically)
{
    ExperimentConfig cfg = smallConfig();
    const auto canonical = runWorkload("nw", cfg);
    cfg.seedSalt = 0x5EEDu;
    const auto salted = runWorkload("nw", cfg);
    const auto salted2 = runWorkload("nw", cfg);
    // Same salt reproduces bit-exactly...
    expectRunsEqual(salted, salted2);
    // ...while a different salt regenerates nw's RNG-filled score
    // matrix, which must show up in the value-similarity profile.
    bool identical = true;
    for (Phase ph : {kNonDivergent, kDivergent}) {
        for (u32 bin = 0; bin < kNumDistanceBins; ++bin) {
            identical = identical &&
                canonical.run.stats.simBins.count(
                    ph, static_cast<DistanceBin>(bin)) ==
                salted.run.stats.simBins.count(
                    ph, static_cast<DistanceBin>(bin));
        }
    }
    EXPECT_FALSE(identical);
}

/** runGrid(@p schemes x @p workloads) on @p threads matches the nested
 *  serial loops exactly. */
void
expectGridMatchesSerial(std::initializer_list<CompressionScheme> schemes,
                        const std::vector<std::string> &workloads,
                        u32 threads)
{
    std::vector<ExperimentConfig> configs;
    for (CompressionScheme s : schemes) {
        ExperimentConfig cfg = smallConfig();
        cfg.scheme = s;
        configs.push_back(cfg);
    }
    const auto grid = runGrid(configs, workloads, threads);
    ASSERT_EQ(grid.size(), configs.size());
    for (std::size_t c = 0; c < configs.size(); ++c) {
        ASSERT_EQ(grid[c].size(), workloads.size());
        for (std::size_t w = 0; w < workloads.size(); ++w)
            expectRunsEqual(runWorkload(workloads[w], configs[c]),
                            grid[c][w]);
    }
}

TEST(ParallelRunner, GridWithMoreJobsThanThreads)
{
    // 4 configs x 5 workloads = 20 jobs on 2 threads: each thread
    // pulls many jobs, and the grid must still match the nested serial
    // loops exactly.
    expectGridMatchesSerial(
        {CompressionScheme::None, CompressionScheme::Warped,
         CompressionScheme::Fixed40, CompressionScheme::FullBdi},
        {"nw", "lud", "stencil", "pathfinder", "lib"}, 2);
}

TEST(ParallelRunner, SmallGridOnFourThreads)
{
    // 6 jobs on 4 threads, small enough to run under ThreadSanitizer,
    // where the suite-sized cases above take minutes each.
    expectGridMatchesSerial(
        {CompressionScheme::None, CompressionScheme::Warped},
        {"nw", "gaussian", "bfs"}, 4);
}

TEST(ParallelFor, RunsEveryIndexExactlyOnce)
{
    constexpr std::size_t kIndices = 1000;
    std::vector<std::atomic<int>> hits(kIndices);
    for (auto &h : hits)
        h.store(0);
    // Twice in a row: nothing of the first call outlives it.
    for (int round = 0; round < 2; ++round)
        parallelFor(kIndices, 4,
                    [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kIndices; ++i)
        EXPECT_EQ(hits[i].load(), 2) << "index " << i;
}

TEST(ParallelFor, RethrowsTheFirstErrorAfterEveryCallReturned)
{
    // The last index throws, so it is handed out after every other:
    // by the time the error reaches the caller, each of them must have
    // run to its end, even those still sleeping when it was thrown.
    constexpr std::size_t kIndices = 16;
    std::atomic<std::size_t> finished{0};
    EXPECT_THROW(parallelFor(kIndices, 4,
                             [&](std::size_t i) {
                                 if (i == kIndices - 1)
                                     throw std::runtime_error("boom");
                                 std::this_thread::sleep_for(
                                     std::chrono::milliseconds(5));
                                 ++finished;
                             }),
                 std::runtime_error);
    EXPECT_EQ(finished.load(), kIndices - 1);
}

TEST(ParallelFor, OneThreadRunsInOrderOnTheCaller)
{
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    parallelFor(5, 1, [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
    });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(HostThreads, ResolveThreadCount)
{
    EXPECT_EQ(resolveThreadCount(3), 3u);
    EXPECT_GE(resolveThreadCount(0), 1u);
}

TEST(HostThreads, ShareThreadsSplitsTheBudget)
{
    // W = min(budget, jobs) at a time, each max(1, budget / W) threads.
    const ThreadShare one = shareThreads(4, 1);
    EXPECT_EQ(one.workers, 1u);
    EXPECT_EQ(one.perJob, 4u);
    const ThreadShare many = shareThreads(4, 19);
    EXPECT_EQ(many.workers, 4u);
    EXPECT_EQ(many.perJob, 1u);
    const ThreadShare three = shareThreads(8, 3);
    EXPECT_EQ(three.workers, 3u);
    EXPECT_EQ(three.perJob, 2u);
    const ThreadShare none = shareThreads(4, 0);
    EXPECT_EQ(none.workers, 1u);
    EXPECT_EQ(none.perJob, 4u);
}

} // namespace
} // namespace warpcomp
