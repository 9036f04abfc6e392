/**
 * @file
 * Tests for the SM building blocks: scoreboard hazards, GTO/LRR
 * scheduler policies, bank-arbiter port allocation, collector pool
 * lifecycle, unit pools, and dispatch limiters.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "compress/unit.hpp"
#include "sim/arbiter.hpp"
#include "sim/collector.hpp"
#include "sim/exec_unit.hpp"
#include "sim/scheduler.hpp"
#include "sim/scoreboard.hpp"

namespace warpcomp {
namespace {

Instruction
addInst(u8 dst, u8 a, u8 b)
{
    Instruction in;
    in.op = Opcode::IAdd;
    in.dst = dst;
    in.src[0] = Operand::fromReg(a);
    in.src[1] = Operand::fromReg(b);
    in.finalizeIssueMasks();
    return in;
}

TEST(Scoreboard, RawHazardBlocks)
{
    Scoreboard sb(4);
    const Instruction w = addInst(3, 1, 2);
    EXPECT_TRUE(sb.canIssue(0, w));
    sb.reserve(0, w);
    const Instruction r = addInst(4, 3, 1);     // reads pending r3
    EXPECT_FALSE(sb.canIssue(0, r));
    sb.releaseReg(0, 3);
    EXPECT_TRUE(sb.canIssue(0, r));
}

TEST(Scoreboard, WawHazardBlocks)
{
    Scoreboard sb(4);
    sb.reserve(0, addInst(3, 1, 2));
    EXPECT_FALSE(sb.canIssue(0, addInst(3, 5, 6)));
}

TEST(Scoreboard, WarpsAreIndependent)
{
    Scoreboard sb(4);
    sb.reserve(0, addInst(3, 1, 2));
    EXPECT_TRUE(sb.canIssue(1, addInst(4, 3, 1)));
}

TEST(Scoreboard, PredicateHazards)
{
    Scoreboard sb(2);
    Instruction setp;
    setp.op = Opcode::ISetP;
    setp.dstPred = 1;
    setp.src[0] = Operand::fromReg(0);
    setp.src[1] = Operand::fromImm(0);
    setp.finalizeIssueMasks();
    sb.reserve(0, setp);

    Instruction guarded = addInst(2, 0, 1);
    guarded.guardPred = 1;
    guarded.finalizeIssueMasks();
    EXPECT_FALSE(sb.canIssue(0, guarded));

    Instruction pand;
    pand.op = Opcode::PAnd;
    pand.dstPred = 2;
    pand.srcPred = 0;
    pand.srcPred2 = 1;          // reads pending p1
    pand.finalizeIssueMasks();
    EXPECT_FALSE(sb.canIssue(0, pand));

    sb.releasePred(0, 1);
    EXPECT_TRUE(sb.canIssue(0, guarded));
    EXPECT_TRUE(sb.canIssue(0, pand));
}

TEST(Scoreboard, IdleAndClear)
{
    Scoreboard sb(2);
    EXPECT_TRUE(sb.idle(0));
    sb.reserve(0, addInst(1, 0, 0));
    EXPECT_FALSE(sb.idle(0));
    sb.clearWarp(0);
    EXPECT_TRUE(sb.idle(0));
}

TEST(Scoreboard, DoubleReleaseDies)
{
    Scoreboard sb(1);
    sb.reserve(0, addInst(1, 0, 0));
    sb.releaseReg(0, 1);
    EXPECT_DEATH(sb.releaseReg(0, 1), "not reserved");
}

TEST(Scheduler, GtoSticksWithGreedyWarp)
{
    WarpScheduler s(SchedPolicy::Gto, {0, 1, 2});
    auto all_ready = [](u32) { return true; };
    auto age = [](u32 slot) { return u64{slot}; };

    EXPECT_EQ(s.pick(all_ready, age), 0);       // oldest first
    s.noteIssued(0);
    EXPECT_EQ(s.pick(all_ready, age), 0);       // greedy
    s.noteIssued(0);
    // When the greedy warp stalls, the oldest ready warp wins.
    auto ready_not0 = [](u32 slot) { return slot != 0; };
    EXPECT_EQ(s.pick(ready_not0, age), 1);
}

TEST(Scheduler, GtoPicksOldestByAge)
{
    WarpScheduler s(SchedPolicy::Gto, {0, 1, 2});
    auto all_ready = [](u32) { return true; };
    // Slot 2 is the oldest (smallest stamp).
    auto age = [](u32 slot) { return u64{10 - slot}; };
    EXPECT_EQ(s.pick(all_ready, age), 2);
}

TEST(Scheduler, LrrRotates)
{
    WarpScheduler s(SchedPolicy::Lrr, {0, 1, 2});
    auto all_ready = [](u32) { return true; };
    auto age = [](u32) { return u64{0}; };
    EXPECT_EQ(s.pick(all_ready, age), 0);
    s.noteIssued(0);
    EXPECT_EQ(s.pick(all_ready, age), 1);
    s.noteIssued(1);
    EXPECT_EQ(s.pick(all_ready, age), 2);
    s.noteIssued(2);
    EXPECT_EQ(s.pick(all_ready, age), 0);
}

TEST(Scheduler, LrrSkipsStalled)
{
    WarpScheduler s(SchedPolicy::Lrr, {0, 1, 2});
    auto age = [](u32) { return u64{0}; };
    auto only2 = [](u32 slot) { return slot == 2; };
    EXPECT_EQ(s.pick(only2, age), 2);
}

TEST(Scheduler, NothingReady)
{
    WarpScheduler s(SchedPolicy::Gto, {0, 1});
    auto none = [](u32) { return false; };
    auto age = [](u32) { return u64{0}; };
    EXPECT_EQ(s.pick(none, age), -1);
}

TEST(Scheduler, EmptySlotListPicksNothing)
{
    // A scheduler owning no slots must answer -1 without dividing by
    // its (zero) slot count.
    WarpScheduler s(SchedPolicy::Lrr, {});
    auto all_ready = [](u32) { return true; };
    auto age = [](u32) { return u64{0}; };
    EXPECT_EQ(s.pick(all_ready, age), -1);
}

TEST(Scheduler, LrrRotatesOverNonContiguousSlots)
{
    // Dual-scheduler SMs hand each scheduler a strided slot subset;
    // rotation must follow list position, not raw slot numbering.
    WarpScheduler s(SchedPolicy::Lrr, {3, 8, 21});
    auto all_ready = [](u32) { return true; };
    auto age = [](u32) { return u64{0}; };
    EXPECT_EQ(s.pick(all_ready, age), 3);
    s.noteIssued(3);
    EXPECT_EQ(s.pick(all_ready, age), 8);
    s.noteIssued(8);
    EXPECT_EQ(s.pick(all_ready, age), 21);
    s.noteIssued(21);
    EXPECT_EQ(s.pick(all_ready, age), 3);
}

TEST(Scheduler, GtoReordersAfterInvalidate)
{
    WarpScheduler s(SchedPolicy::Gto, {0, 1});
    auto all_ready = [](u32) { return true; };
    u64 stamps[2] = {5, 9};
    auto age = [&stamps](u32 slot) { return stamps[slot]; };
    EXPECT_EQ(s.pick(all_ready, age), 0);   // 5 < 9
    // Slot 0 relaunches with a younger stamp; after invalidateOrder
    // the cached oldest-first order must re-derive.
    stamps[0] = 20;
    s.invalidateOrder();
    EXPECT_EQ(s.pick(all_ready, age), 1);   // 9 < 20
}

TEST(SchedulerDeathTest, NoteIssuedForeignSlotDies)
{
    // Slots the scheduler does not own would corrupt its rotation
    // state: both in-range-but-unowned and out-of-range slots must
    // trip the assertion.
    WarpScheduler s(SchedPolicy::Lrr, {0, 2, 4});
    EXPECT_DEATH(s.noteIssued(1), "foreign warp slot");
    EXPECT_DEATH(s.noteIssued(7), "foreign warp slot");
}

TEST(SchedulerDeathTest, DuplicateSlotDies)
{
    EXPECT_DEATH(WarpScheduler(SchedPolicy::Gto, {1, 1}),
                 "duplicate warp slot");
}

/**
 * The linear probe the mask-driven pick replaced: GTO probes the
 * greedy slot, then every slot oldest-first; LRR probes every slot
 * from the rotation point. @p ready already excludes blocked slots.
 */
class LinearProbeScheduler
{
  public:
    LinearProbeScheduler(SchedPolicy policy, std::vector<u32> slots)
        : policy_(policy), slots_(std::move(slots))
    {}

    template <typename ReadyFn, typename AgeFn>
    i32
    pick(const ReadyFn &ready, const AgeFn &age) const
    {
        if (policy_ == SchedPolicy::Gto) {
            if (last_ >= 0 && ready(static_cast<u32>(last_)))
                return last_;
            std::vector<u32> order = slots_;
            std::sort(order.begin(), order.end(),
                      [&age](u32 a, u32 b) { return age(a) < age(b); });
            for (u32 slot : order) {
                if (ready(slot))
                    return static_cast<i32>(slot);
            }
            return -1;
        }
        const u32 n = static_cast<u32>(slots_.size());
        for (u32 i = 0; i < n; ++i) {
            const u32 slot = slots_[(cursor_ + i) % n];
            if (ready(slot))
                return static_cast<i32>(slot);
        }
        return -1;
    }

    void
    noteIssued(u32 slot)
    {
        last_ = static_cast<i32>(slot);
        const auto it = std::find(slots_.begin(), slots_.end(), slot);
        cursor_ = static_cast<u32>(it - slots_.begin() + 1) %
            static_cast<u32>(slots_.size());
    }

  private:
    SchedPolicy policy_;
    std::vector<u32> slots_;
    i32 last_ = -1;
    u32 cursor_ = 0;
};

/** Random block/unblock/invalidateOrder/noteIssued/pick sequences:
 *  the mask-driven pick must match the linear probe every time and
 *  never probe a blocked slot. */
void
runSchedulerDifferential(SchedPolicy policy, u64 seed)
{
    Rng rng(seed);
    for (u32 config = 0; config < 40; ++config) {
        // Slot counts up to the 64-bit mask limit, drawn from a wider
        // slot space in a shuffled (non-monotone) order.
        const u32 n = 1 + rng.nextU32(WarpScheduler::kMaxSlots);
        std::vector<u32> space(2 * WarpScheduler::kMaxSlots);
        std::iota(space.begin(), space.end(), 0u);
        for (u32 i = static_cast<u32>(space.size()) - 1; i > 0; --i)
            std::swap(space[i], space[rng.nextU32(i + 1)]);
        const std::vector<u32> slots(space.begin(), space.begin() + n);

        WarpScheduler sched(policy, slots);
        LinearProbeScheduler ref(policy, slots);
        std::vector<u64> ages(space.size());
        u64 next_age = 0;
        for (u32 s : slots)
            ages[s] = next_age++;
        std::vector<bool> blocked(space.size(), false);
        const auto age = [&ages](u32 s) { return ages[s]; };
        const auto any_slot = [&] { return slots[rng.nextU32(n)]; };

        for (u32 step = 0; step < 400; ++step) {
            switch (rng.nextU32(6)) {
              case 0: {
                const u32 s = any_slot();
                sched.block(s);
                blocked[s] = true;
                break;
              }
              case 1: {
                const u32 s = any_slot();
                sched.unblock(s);
                blocked[s] = false;
                break;
              }
              case 2:
                // Relaunch some warps: fresh (younger) unique stamps.
                for (u32 s : slots) {
                    if (rng.nextBool(0.3))
                        ages[s] = next_age++;
                }
                sched.invalidateOrder();
                break;
              case 3: {
                const u32 s = any_slot();
                sched.noteIssued(s);
                ref.noteIssued(s);
                break;
              }
              default: {
                // Ready set drawn independently of the block state; a
                // probe may block a non-ready slot (a sticky reason),
                // as Sm::canIssueFrom does.
                const double p = rng.nextDouble();
                std::vector<bool> in_ready(space.size(), false);
                std::vector<bool> sticky(space.size(), false);
                for (u32 s : slots) {
                    in_ready[s] = rng.nextBool(p);
                    sticky[s] = rng.nextBool(0.5);
                }
                const i32 want = ref.pick(
                    [&](u32 s) { return !blocked[s] && in_ready[s]; },
                    age);
                const i32 got = sched.pick(
                    [&](u32 s) {
                        EXPECT_FALSE(blocked[s])
                            << "probed blocked slot " << s;
                        if (in_ready[s])
                            return true;
                        if (sticky[s]) {
                            sched.block(s);
                            blocked[s] = true;
                        }
                        return false;
                    },
                    age);
                ASSERT_EQ(got, want) << "config " << config << " step "
                                     << step << " n " << n;
                if (got >= 0) {
                    sched.noteIssued(static_cast<u32>(got));
                    ref.noteIssued(static_cast<u32>(got));
                }
                break;
              }
            }
        }
    }
}

TEST(Scheduler, GtoMaskPickMatchesLinearProbe)
{
    runSchedulerDifferential(SchedPolicy::Gto, 0x5C4ED1u);
}

TEST(Scheduler, LrrMaskPickMatchesLinearProbe)
{
    runSchedulerDifferential(SchedPolicy::Lrr, 0x5C4ED2u);
}

TEST(Scheduler, FullSixtyFourSlotMask)
{
    std::vector<u32> slots(WarpScheduler::kMaxSlots);
    std::iota(slots.begin(), slots.end(), 0u);
    WarpScheduler s(SchedPolicy::Lrr, slots);
    auto age = [](u32) { return u64{0}; };
    auto only63 = [](u32 slot) { return slot == 63; };
    EXPECT_EQ(s.pick(only63, age), 63);
    s.noteIssued(63);
    auto all_ready = [](u32) { return true; };
    EXPECT_EQ(s.pick(all_ready, age), 0);       // wraps past bit 63
    s.block(0);
    EXPECT_EQ(s.pick(all_ready, age), 1);
}

TEST(SchedulerDeathTest, MoreThanSixtyFourSlotsDies)
{
    std::vector<u32> slots(WarpScheduler::kMaxSlots + 1);
    std::iota(slots.begin(), slots.end(), 0u);
    EXPECT_DEATH(WarpScheduler(SchedPolicy::Gto, slots),
                 "ready mask holds at most 64");
}

TEST(Arbiter, OneReadPortPerBank)
{
    BankArbiter a(32);
    a.newCycle();
    EXPECT_TRUE(a.tryRead(5));
    EXPECT_FALSE(a.tryRead(5));
    EXPECT_TRUE(a.tryRead(6));
    a.newCycle();
    EXPECT_TRUE(a.tryRead(5));
}

TEST(Arbiter, WriteRangeAtomicity)
{
    BankArbiter a(32);
    a.newCycle();
    EXPECT_TRUE(a.tryWriteRange(0, 8));
    EXPECT_FALSE(a.tryWriteRange(7, 2));        // overlaps bank 7
    EXPECT_TRUE(a.tryWriteRange(8, 8));
}

TEST(Arbiter, ReadAndWritePortsIndependent)
{
    BankArbiter a(32);
    a.newCycle();
    EXPECT_TRUE(a.tryRead(3));
    EXPECT_TRUE(a.tryWriteRange(3, 1));
}

TEST(Arbiter, ZeroCountWriteSucceeds)
{
    BankArbiter a(32);
    a.newCycle();
    EXPECT_TRUE(a.tryWriteRange(0, 0));
}

TEST(CollectorPool, InsertTakeLifecycle)
{
    CollectorPool pool(2);
    EXPECT_TRUE(pool.hasFree());

    InFlight a;
    a.warpSlot = 7;
    const u32 ia = pool.insert(&a);
    InFlight b;
    b.warpSlot = 9;
    pool.insert(&b);
    EXPECT_FALSE(pool.hasFree());

    const InFlight *out = pool.take(ia);
    EXPECT_EQ(out, &a);
    EXPECT_EQ(out->warpSlot, 7u);
    EXPECT_TRUE(pool.hasFree());
    EXPECT_EQ(pool.at(ia), nullptr);
}

TEST(CollectorPool, OccupiedOrderIsFifo)
{
    CollectorPool pool(3);
    InFlight x;
    const u32 i0 = pool.insert(&x);
    InFlight y;
    const u32 i1 = pool.insert(&y);
    pool.take(i0);
    InFlight z;
    const u32 i2 = pool.insert(&z);
    ASSERT_EQ(pool.occupiedOrder().size(), 2u);
    EXPECT_EQ(pool.occupiedOrder()[0], i1);
    EXPECT_EQ(pool.occupiedOrder()[1], i2);
}

TEST(InFlight, CollectedRequiresAllOps)
{
    InFlight f;
    f.numOps = 2;
    f.ops[0].acc.numBanks = 2;
    f.ops[1].acc.numBanks = 1;
    EXPECT_FALSE(f.collected());
    f.ops[0].granted = 2;
    EXPECT_FALSE(f.collected());
    f.ops[1].granted = 1;
    EXPECT_TRUE(f.collected());
}

TEST(UnitPool, PerCycleThroughput)
{
    UnitPool pool(2, 3);
    EXPECT_EQ(pool.tryIssue(10), 13u);
    EXPECT_EQ(pool.tryIssue(10), 13u);
    EXPECT_EQ(pool.tryIssue(10), std::nullopt); // both units taken
    EXPECT_EQ(pool.tryIssue(11), 14u);          // next cycle frees slots
    EXPECT_EQ(pool.activations(), 3u);
}

TEST(UnitPool, ZeroLatencyIsNotTheNoUnitSentinel)
{
    // A decompressLatency = 0 sweep must stay distinguishable from
    // "every unit already accepted an op this cycle": completion at
    // cycle 0 is a real grant, exhaustion is nullopt.
    UnitPool pool(1, 0);
    const auto first = pool.tryIssue(0);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(*first, 0u);                      // completes immediately
    EXPECT_EQ(pool.tryIssue(0), std::nullopt);  // pool exhausted
    const auto next = pool.tryIssue(7);
    ASSERT_TRUE(next.has_value());
    EXPECT_EQ(*next, 7u);
    EXPECT_EQ(pool.activations(), 2u);
}

TEST(UnitPool, CanIssueDoesNotConsume)
{
    UnitPool pool(1, 1);
    EXPECT_TRUE(pool.canIssue(5));
    EXPECT_TRUE(pool.canIssue(5));
    pool.tryIssue(5);
    EXPECT_FALSE(pool.canIssue(5));
}

TEST(DispatchLimiter, RateLimitsPerCycle)
{
    DispatchLimiter lim(2);
    EXPECT_TRUE(lim.tryDispatch(0));
    EXPECT_TRUE(lim.tryDispatch(0));
    EXPECT_FALSE(lim.tryDispatch(0));
    EXPECT_TRUE(lim.tryDispatch(1));
    EXPECT_EQ(lim.dispatched(), 3u);
}

TEST(ResultLatency, MatchesClasses)
{
    EXPECT_EQ(resultLatency(Opcode::IAdd), 4u);
    EXPECT_EQ(resultLatency(Opcode::IMul), 6u);
    EXPECT_EQ(resultLatency(Opcode::FFma), 6u);
    EXPECT_EQ(resultLatency(Opcode::Bra), 2u);
    EXPECT_DEATH(resultLatency(Opcode::Ldg), "memory latency");
}

} // namespace
} // namespace warpcomp
