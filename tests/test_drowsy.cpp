/**
 * @file
 * Drowsy-mode comparator tests: bank last-access tracking, the
 * active/drowsy leakage census, meter arithmetic, and the system-level
 * invariants (drowsy only reduces leakage; composes with compression).
 */

#include <gtest/gtest.h>

#include "harness/experiment.hpp"
#include "regfile/regfile.hpp"

namespace warpcomp {
namespace {

RegFileParams
drowsyParams(u32 after = 10)
{
    RegFileParams p;
    p.gatingEnabled = false;
    p.validAtAlloc = true;
    p.drowsyEnabled = true;
    p.drowsyAfterCycles = after;
    return p;
}

/** One cycle's leakage census at @p now. */
struct Census
{
    u64 active = 0;
    u64 drowsy = 0;
};

Census
censusAt(const RegisterFile &rf, Cycle now)
{
    Census c;
    rf.activitySpan(now, now + 1, c.active, c.drowsy);
    return c;
}

TEST(Drowsy, BanksStartActiveThenDrowse)
{
    RegisterFile rf(drowsyParams(10));
    const auto at0 = censusAt(rf, 5);
    EXPECT_EQ(at0.active, 32u);
    EXPECT_EQ(at0.drowsy, 0u);
    const auto at20 = censusAt(rf, 20);
    EXPECT_EQ(at20.active, 0u);
    EXPECT_EQ(at20.drowsy, 32u);
}

TEST(Drowsy, AccessWakesOneBank)
{
    RegisterFile rf(drowsyParams(10));
    ASSERT_TRUE(rf.allocate(0, 1, 0));
    // Write at cycle 100 refreshes the 8 banks of the register's
    // cluster (baseline footprint).
    rf.recordWrite(0, 0, BdiChoice{}, 100);     // stored uncompressed

    const auto act = censusAt(rf, 105);
    EXPECT_EQ(act.active, 8u);
    EXPECT_EQ(act.drowsy, 24u);
    // Past the threshold everything drowses again.
    const auto later = censusAt(rf, 200);
    EXPECT_EQ(later.active, 0u);
    EXPECT_EQ(later.drowsy, 32u);
}

TEST(Drowsy, DisabledMeansAllActive)
{
    RegFileParams p;
    p.gatingEnabled = false;
    p.validAtAlloc = true;
    RegisterFile rf(p);
    const auto act = censusAt(rf, 1'000'000);
    EXPECT_EQ(act.active, 32u);
    EXPECT_EQ(act.drowsy, 0u);
}

TEST(Drowsy, GatedBanksAreNeitherActiveNorDrowsy)
{
    RegFileParams p;
    p.gatingEnabled = true;
    p.validAtAlloc = false;
    p.drowsyEnabled = true;
    p.drowsyAfterCycles = 10;
    RegisterFile rf(p);
    // All banks start gated in the compressed design.
    const auto act = censusAt(rf, 100);
    EXPECT_EQ(act.active, 0u);
    EXPECT_EQ(act.drowsy, 0u);
}

TEST(Drowsy, MeterChargesFraction)
{
    EnergyParams p;
    EnergyMeter m(p, 0, 0);
    m.addAwakeBankCycles(1000);
    m.addDrowsyBankCycles(1000);
    const EnergyBreakdown e = m.breakdown();
    // Drowsy cycles cost exactly drowsyLeakFraction of full leakage.
    EnergyMeter full(p, 0, 0);
    full.addAwakeBankCycles(1000);
    const double full_leak = full.breakdown().bankLeakagePj;
    EXPECT_NEAR(e.bankLeakagePj, full_leak * (1.0 + p.drowsyLeakFraction),
                1e-9);
}

TEST(Drowsy, MergePreservesDrowsyCycles)
{
    EnergyParams p;
    EnergyMeter a(p, 0, 0), b(p, 0, 0);
    a.addDrowsyBankCycles(10);
    b.addDrowsyBankCycles(20);
    a.merge(b);
    EXPECT_EQ(a.drowsyBankCycles(), 30u);
}

TEST(Drowsy, BaselineDrowsyOnlyReducesLeakage)
{
    ExperimentConfig base;
    base.scheme = CompressionScheme::None;
    base.numSms = 2;
    ExperimentConfig drowsy = base;
    drowsy.drowsy = true;

    const ExperimentResult rb = runWorkload("stencil", base);
    const ExperimentResult rd = runWorkload("stencil", drowsy);
    const EnergyBreakdown eb = rb.run.meter.breakdown();
    const EnergyBreakdown ed = rd.run.meter.breakdown();
    // Timing identical (drowsy wakeup not charged), dynamic identical,
    // leakage strictly reduced on this idle-heavy workload.
    EXPECT_EQ(rb.run.cycles, rd.run.cycles);
    EXPECT_DOUBLE_EQ(eb.dynamicPj(), ed.dynamicPj());
    EXPECT_LT(ed.bankLeakagePj, eb.bankLeakagePj);
}

TEST(Drowsy, ComposesWithCompression)
{
    ExperimentConfig wc;
    wc.numSms = 2;
    ExperimentConfig both = wc;
    both.drowsy = true;

    const ExperimentResult rw = runWorkload("lud", wc);
    const ExperimentResult rb = runWorkload("lud", both);
    EXPECT_LT(rb.run.meter.breakdown().totalPj(),
              rw.run.meter.breakdown().totalPj());
}

TEST(Drowsy, ThresholdControlsDrowsyTime)
{
    ExperimentConfig fast;
    fast.scheme = CompressionScheme::None;
    fast.drowsy = true;
    fast.drowsyAfterCycles = 8;
    fast.numSms = 2;
    ExperimentConfig slow = fast;
    slow.drowsyAfterCycles = 512;

    const ExperimentResult rf_ = runWorkload("nw", fast);
    const ExperimentResult rs = runWorkload("nw", slow);
    EXPECT_GE(rf_.run.meter.drowsyBankCycles(),
              rs.run.meter.drowsyBankCycles());
}

} // namespace
} // namespace warpcomp
