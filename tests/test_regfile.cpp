/**
 * @file
 * Register-file tests: power-gate FSM, per-bank valid bits, warp
 * register allocation/release, compressed footprints, wakeup stalls,
 * and the incremental compressed-register census.
 */

#include <gtest/gtest.h>

#include "regfile/regfile.hpp"

namespace warpcomp {
namespace {

WarpRegValue
uniformValue(u32 value)
{
    WarpRegValue v{};
    v.fill(value);
    return v;
}

WarpRegValue
strideValue(u32 base, u32 stride)
{
    WarpRegValue v{};
    for (u32 i = 0; i < kWarpSize; ++i)
        v[i] = base + stride * i;
    return v;
}

WarpRegValue
randomishValue()
{
    WarpRegValue v{};
    for (u32 i = 0; i < kWarpSize; ++i)
        v[i] = i * 0x9E3779B9u;
    return v;
}

/** The write decision of @p v under the Warped scheme. */
BdiChoice
choose(const WarpRegValue &v)
{
    return bdiChoose(regBytes(v), warpedCandidates(), scanLanes(v).fits4);
}

BdiChoice encodeUniform(u32 value) { return choose(uniformValue(value)); }

BdiChoice
encodeStride(u32 base, u32 stride)
{
    return choose(strideValue(base, stride));
}

BdiChoice encodeRandomish() { return choose(randomishValue()); }

TEST(PowerGate, DisabledNeverGates)
{
    PowerGate g(10, false);
    EXPECT_EQ(g.state(0), PowerGate::State::On);
    g.sleep(5);
    EXPECT_EQ(g.state(6), PowerGate::State::On);
    EXPECT_EQ(g.gatedCycles(100), 0u);
}

TEST(PowerGate, EnabledStartsOff)
{
    PowerGate g(10, true);
    EXPECT_TRUE(g.isOff(0));
    EXPECT_EQ(g.gatedCycles(50), 50u);
}

TEST(PowerGate, WakeTakesLatency)
{
    PowerGate g(10, true);
    const Cycle ready = g.wake(100);
    EXPECT_EQ(ready, 110u);
    EXPECT_EQ(g.state(105), PowerGate::State::Waking);
    EXPECT_EQ(g.state(110), PowerGate::State::On);
    EXPECT_EQ(g.gatedCycles(200), 100u);
}

TEST(PowerGate, WakeWhileWakingJoins)
{
    PowerGate g(10, true);
    const Cycle r1 = g.wake(100);
    const Cycle r2 = g.wake(104);
    EXPECT_EQ(r1, r2);
}

TEST(PowerGate, SleepThenWakeAccumulates)
{
    PowerGate g(10, true);
    g.wake(0);                  // ready at 10
    g.sleep(20);
    EXPECT_EQ(g.wake(50), 60u);
    // 0..0 off before first wake (0 cycles) + 20..50 off = 30.
    EXPECT_EQ(g.gatedCycles(100), 30u);
}

TEST(PowerGate, SleepWhileWakingIgnored)
{
    PowerGate g(10, true);
    g.wake(0);
    g.sleep(5);                 // still waking; must not re-gate
    EXPECT_EQ(g.state(10), PowerGate::State::On);
}

TEST(BankSet, ValidCountTracksEntries)
{
    BankSet bs(1, 16, 10, true);
    bs.wake(0, 0);
    bs.setValid(0, 3, true, 10);
    bs.setValid(0, 4, true, 10);
    EXPECT_EQ(bs.validCount(0), 2u);
    bs.setValid(0, 3, false, 11);
    EXPECT_EQ(bs.validCount(0), 1u);
    EXPECT_FALSE(bs.isOff(0, 11));
    bs.setValid(0, 4, false, 12);
    EXPECT_EQ(bs.validCount(0), 0u);
    EXPECT_TRUE(bs.isOff(0, 12));
}

TEST(BankSet, RedundantSetValidIsIdempotent)
{
    BankSet bs(1, 8, 10, true);
    bs.wake(0, 0);
    bs.setValid(0, 0, true, 10);
    bs.setValid(0, 0, true, 10);
    EXPECT_EQ(bs.validCount(0), 1u);
}

TEST(BankSet, SettingValidInGatedBankDies)
{
    BankSet bs(1, 8, 10, true);
    EXPECT_DEATH(bs.setValid(0, 0, true, 0), "wake it first");
}

TEST(BankSet, OffCountTracksGatingIncrementally)
{
    BankSet bs(8, 8, 10, true);
    EXPECT_EQ(bs.offCount(), 8u);       // enabled gates start Off
    bs.wake(0, 0);
    bs.wake(1, 0);
    EXPECT_EQ(bs.offCount(), 6u);
    bs.wake(1, 3);                      // waking twice counts once
    EXPECT_EQ(bs.offCount(), 6u);
    bs.setValid(0, 2, true, 10);
    bs.setValid(0, 2, false, 20);       // last entry gone: bank gates
    EXPECT_EQ(bs.offCount(), 7u);
    // Bank 1 never held data and never slept: still powered.
    EXPECT_FALSE(bs.isOff(1, 30));
}

TEST(BankSet, OffCountDisabledGatingIsZero)
{
    BankSet bs(8, 8, 10, false);
    EXPECT_EQ(bs.offCount(), 0u);
    bs.setValid(3, 1, true, 0);
    bs.setValid(3, 1, false, 5);
    EXPECT_EQ(bs.offCount(), 0u);
}

TEST(BankSet, ValidMaskPacksStripeBits)
{
    BankSet bs(16, 4, 10, false);
    bs.setValid(8, 2, true, 0);         // cluster 1, bit 0
    bs.setValid(10, 2, true, 0);        // cluster 1, bit 2
    EXPECT_EQ(bs.validMask(1, 2), 0b101u);
    EXPECT_EQ(bs.validMask(0, 2), 0u);
    bs.setValid(8, 2, false, 1);
    EXPECT_EQ(bs.validMask(1, 2), 0b100u);
}

TEST(BankSet, ActivitySpanMatchesPerCycleCensus)
{
    BankSet bs(8, 8, 10, true);
    bs.wake(0, 0);
    bs.wake(3, 0);
    bs.noteWrite(0, 12);
    bs.noteWrite(3, 40);
    const Cycle from = 30, to = 130;
    u64 want_active = 0, want_drowsy = 0;
    for (Cycle c = from; c < to; ++c) {
        const BankSet::Activity a = bs.activity(c, true, 64);
        want_active += a.active;
        want_drowsy += a.drowsy;
    }
    u64 got_active = 0, got_drowsy = 0;
    bs.activitySpan(from, to, true, 64, got_active, got_drowsy);
    EXPECT_EQ(got_active, want_active);
    EXPECT_EQ(got_drowsy, want_drowsy);

    // Non-drowsy closed form: awake banks times span length.
    u64 plain_active = 0, plain_drowsy = 0;
    bs.activitySpan(from, to, false, 64, plain_active, plain_drowsy);
    EXPECT_EQ(plain_active, (to - from) * 2);
    EXPECT_EQ(plain_drowsy, 0u);
}

class RegFileTest : public ::testing::Test
{
  protected:
    RegFileParams
    wcParams()
    {
        RegFileParams p;
        p.gatingEnabled = true;
        p.validAtAlloc = false;
        return p;
    }

    RegFileParams
    baseParams()
    {
        RegFileParams p;
        p.gatingEnabled = false;
        p.validAtAlloc = true;
        return p;
    }
};

TEST_F(RegFileTest, GeometryDefaults)
{
    RegisterFile rf(wcParams());
    EXPECT_EQ(rf.numBanks(), 32u);
    EXPECT_EQ(rf.params().numClusters(), 4u);
    EXPECT_EQ(rf.params().totalWarpRegs(), 1024u);
}

TEST_F(RegFileTest, AllocationInterleavesClusters)
{
    RegisterFile rf(wcParams());
    ASSERT_TRUE(rf.allocate(0, 8, 0));
    const RegSlot s0 = rf.locate(0, 0);
    const RegSlot s1 = rf.locate(0, 1);
    const RegSlot s4 = rf.locate(0, 4);
    EXPECT_EQ(s0.cluster, 0u);
    EXPECT_EQ(s1.cluster, 1u);
    EXPECT_EQ(s4.cluster, 0u);
    EXPECT_EQ(s4.entry, s0.entry + 1);
}

TEST_F(RegFileTest, CapacityExhaustion)
{
    RegisterFile rf(wcParams());
    ASSERT_TRUE(rf.allocate(0, 1000, 0));
    EXPECT_FALSE(rf.canAllocate(25));
    EXPECT_FALSE(rf.allocate(1, 25, 0));
    EXPECT_TRUE(rf.allocate(1, 24, 0));
}

TEST_F(RegFileTest, ReleaseCoalescesFreeList)
{
    RegisterFile rf(wcParams());
    ASSERT_TRUE(rf.allocate(0, 100, 0));
    ASSERT_TRUE(rf.allocate(1, 100, 0));
    ASSERT_TRUE(rf.allocate(2, 100, 0));
    rf.release(1, 10);
    rf.release(0, 10);
    rf.release(2, 10);
    // Everything back: a single 1024-register allocation must succeed.
    EXPECT_TRUE(rf.allocate(3, 1024, 20));
}

TEST_F(RegFileTest, UnwrittenRegisterHasNoFootprint)
{
    RegisterFile rf(wcParams());
    ASSERT_TRUE(rf.allocate(0, 4, 0));
    const RegAccess a = rf.readAccess(0, 2);
    EXPECT_EQ(a.numBanks, 0u);
    EXPECT_FALSE(a.compressed);
    EXPECT_FALSE(rf.isWritten(0, 2));
}

TEST_F(RegFileTest, BaselineRegisterOccupiesFullStripe)
{
    RegisterFile rf(baseParams());
    ASSERT_TRUE(rf.allocate(0, 4, 0));
    const RegAccess a = rf.readAccess(0, 0);
    EXPECT_EQ(a.numBanks, kBanksPerWarpReg);
    EXPECT_EQ(a.bytes, kWarpRegBytes);
}

TEST_F(RegFileTest, CompressedWriteShrinksFootprint)
{
    RegisterFile rf(wcParams());
    ASSERT_TRUE(rf.allocate(0, 4, 0));

    auto [ready, acc] = rf.recordWrite(0, 0, encodeUniform(7), 100);
    EXPECT_EQ(acc.numBanks, 1u);
    EXPECT_TRUE(acc.compressed);
    EXPECT_GE(ready, 100u);             // wakeup may defer completion

    // The <4,0> indicator: one bank, four payload bytes.
    const RegAccess r = rf.readAccess(0, 0);
    EXPECT_TRUE(r.compressed);
    EXPECT_EQ(r.numBanks, 1u);
    EXPECT_EQ(r.bytes, indicatorBytes(RangeIndicator::Base40));
}

TEST_F(RegFileTest, UncompressedOverwriteGrowsThenShrinks)
{
    RegisterFile rf(wcParams());
    ASSERT_TRUE(rf.allocate(0, 1, 0));

    rf.recordWrite(0, 0, encodeRandomish(), 0);
    EXPECT_EQ(rf.readAccess(0, 0).numBanks, 8u);

    Cycle t = 100;
    auto [ready, acc] = rf.recordWrite(0, 0, encodeStride(5, 1), t);
    EXPECT_EQ(acc.numBanks, 3u);        // <4,1>
    // Banks 3..7 of the cluster must have been invalidated.
    const RegSlot s = rf.locate(0, 0);
    for (u32 b = 3; b < 8; ++b)
        EXPECT_FALSE(rf.bankValid(s.firstBank() + b, s.entry));
    for (u32 b = 0; b < 3; ++b)
        EXPECT_TRUE(rf.bankValid(s.firstBank() + b, s.entry));
}

TEST_F(RegFileTest, WakeupStallOnGatedBank)
{
    RegisterFile rf(wcParams());
    ASSERT_TRUE(rf.allocate(0, 1, 0));
    // All banks start gated; the first write pays the wakeup.
    auto [ready, acc] = rf.recordWrite(0, 0, encodeUniform(1), 50);
    EXPECT_EQ(ready, 50u + rf.params().wakeupLatency);
    // A second write to the (now-awake) bank completes immediately.
    auto [ready2, acc2] = rf.recordWrite(0, 0, encodeUniform(2), 80);
    EXPECT_EQ(ready2, 80u);
}

TEST_F(RegFileTest, GatingFreesUnusedBanks)
{
    RegisterFile rf(wcParams());
    ASSERT_TRUE(rf.allocate(0, 1, 0));
    rf.recordWrite(0, 0, encodeUniform(3), 0);
    // Only one bank awake in that cluster (plus none elsewhere).
    EXPECT_EQ(rf.awakeBanks(), 1u);
    rf.release(0, 30);
    EXPECT_EQ(rf.awakeBanks(), 0u);
}

TEST_F(RegFileTest, BaselineNeverGates)
{
    RegisterFile rf(baseParams());
    ASSERT_TRUE(rf.allocate(0, 4, 0));
    rf.release(0, 10);
    EXPECT_EQ(rf.awakeBanks(), 32u);
    for (u32 b = 0; b < 32; ++b)
        EXPECT_EQ(rf.gatedCycles(b, 100), 0u);
}

TEST_F(RegFileTest, CensusTracksTransitions)
{
    RegisterFile rf(wcParams());
    ASSERT_TRUE(rf.allocate(0, 3, 0));
    EXPECT_EQ(rf.compressedCensus(), (std::pair<u32, u32>{0, 0}));

    rf.recordWrite(0, 0, encodeUniform(1), 0);
    rf.recordWrite(0, 1, encodeRandomish(), 0);
    EXPECT_EQ(rf.compressedCensus(), (std::pair<u32, u32>{1, 2}));

    rf.recordWrite(0, 1, encodeUniform(2), 10);     // now compressed
    EXPECT_EQ(rf.compressedCensus(), (std::pair<u32, u32>{2, 2}));

    rf.recordWrite(0, 0, encodeRandomish(), 20);    // decompressed
    EXPECT_EQ(rf.compressedCensus(), (std::pair<u32, u32>{1, 2}));

    rf.release(0, 30);
    EXPECT_EQ(rf.compressedCensus(), (std::pair<u32, u32>{0, 0}));
}

TEST_F(RegFileTest, WriteCountersPerBank)
{
    RegisterFile rf(wcParams());
    ASSERT_TRUE(rf.allocate(0, 1, 0));
    auto [ready, acc] = rf.recordWrite(0, 0, encodeStride(0, 1), 0);
    u64 writes = 0;
    for (u32 b = 0; b < rf.numBanks(); ++b)
        writes += rf.bankWrites(b);
    EXPECT_EQ(writes, acc.numBanks);
}

TEST_F(RegFileTest, StoredImageIsWhatTheWriteStored)
{
    // The banks' bytes are re-derived from the register value and the
    // indicator (storedImage), which is what the SEU read path flips
    // and decodes. For every kind of value they must equal the
    // encoding the write path chose, fill the extent the write
    // recorded, and decode back to the value.
    RegisterFile rf(wcParams());
    ASSERT_TRUE(rf.allocate(0, 3, 0));
    const WarpRegValue values[] = {uniformValue(7), strideValue(100, 3),
                                   strideValue(5, 700), randomishValue()};
    for (const WarpRegValue &v : values) {
        for (u32 reg = 0; reg < 3; ++reg) {
            const BdiEncoded written =
                bdiCompress(toBytes(v), warpedCandidates());
            rf.recordWrite(0, reg, choose(v), 10);
            const BdiEncoded stored = storedImage(
                v, rf.isCompressed(0, reg), CompressionScheme::Warped);
            EXPECT_EQ(stored.compressed, written.compressed);
            EXPECT_EQ(stored.params, written.params);
            EXPECT_TRUE(stored.bytes == written.bytes);
            EXPECT_EQ(stored.sizeBytes(), rf.readAccess(0, reg).bytes);
            const RegSlot s = rf.locate(0, reg);
            EXPECT_EQ(stored.sizeBytes(),
                      rf.entryExtent(s.cluster, s.entry).bytes);
            EXPECT_EQ(fromBytes(bdiDecompress(stored)), v);
        }
    }
}

TEST_F(RegFileTest, CorruptedCompressedWriteIsStoredRawUnderItsIndicator)
{
    // Policy None: stuck cells corrupt a <4,1> write's encoded bytes,
    // and the decoded value becomes architectural. Here a corrupted
    // base or delta pushes some lane past INT32_MAX, so the value no
    // longer compresses. The indicator still records the compressed
    // write (its footprint and SEU extent stay 3 banks, 35 bytes),
    // while the bytes the SEU read path sees are the raw image of the
    // corrupted value, and decode to it.
    const WarpRegValue v = strideValue(0x7FFFFFE0u, 1);
    const BdiEncoded written = bdiCompress(toBytes(v), warpedCandidates());
    ASSERT_TRUE(written.compressed);
    ASSERT_EQ(written.params, (BdiParams{4, 1}));

    const RegFileParams rp = wcParams();
    const FaultMap faults(rp.numBanks, rp.entriesPerBank, 0.02, 17);
    const BdiChoice choice = choose(v);
    bool found = false;
    for (u32 entry = 0; entry < rp.entriesPerBank && !found; ++entry) {
        BdiEncoded image = written;
        if (!faults.corrupt(0, entry, image.bytes.data(),
                            image.bytes.size()))
            continue;
        const WarpRegValue corrupted = fromBytes(bdiDecompress(image));
        if (bdiCompress(toBytes(corrupted), warpedCandidates()).compressed)
            continue;
        found = true;

        RegisterFile rf(rp);
        ASSERT_TRUE(rf.allocate(0, 1, 0));
        rf.recordWrite(0, 0, choice, 0);
        EXPECT_TRUE(rf.isCompressed(0, 0));
        const RegSlot s = rf.locate(0, 0);
        const RegisterFile::EntryExtent ext =
            rf.entryExtent(s.cluster, s.entry);
        EXPECT_TRUE(ext.compressed);
        EXPECT_EQ(ext.bytes, indicatorBytes(RangeIndicator::Base41));

        const BdiEncoded stored = storedImage(
            corrupted, rf.isCompressed(0, 0), CompressionScheme::Warped);
        EXPECT_FALSE(stored.compressed);
        EXPECT_EQ(stored.sizeBytes(), kWarpRegBytes);
        EXPECT_EQ(fromBytes(bdiDecompress(stored)), corrupted);
    }
    EXPECT_TRUE(found) << "no stuck-at pattern made the value raw";
}

TEST_F(RegFileTest, DoubleAllocateSameSlotDies)
{
    RegisterFile rf(wcParams());
    ASSERT_TRUE(rf.allocate(0, 4, 0));
    EXPECT_DEATH(rf.allocate(0, 4, 0), "already allocated");
}

TEST_F(RegFileTest, AccessToInactiveSlotDies)
{
    RegisterFile rf(wcParams());
    EXPECT_DEATH(rf.readAccess(3, 0), "inactive warp slot");
}

} // namespace
} // namespace warpcomp
