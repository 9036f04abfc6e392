/**
 * @file
 * Functional-execution tests: opcode semantics, guard predication,
 * special registers, memory spaces, branch divergence through complete
 * kernels, and exit handling — all run on a single warp.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "isa/builder.hpp"
#include "sim/functional.hpp"

namespace warpcomp {
namespace {

/** Runs a kernel functionally on one warp to completion. */
class FexTest : public ::testing::Test
{
  protected:
    FexTest() : gmem_(1 << 20), cmem_(1024), fex_(gmem_, cmem_) {}

    /** Execute @p k on a fresh full warp; returns instruction count. */
    u32
    run(const Kernel &k, u32 lanes = kWarpSize)
    {
        kernel_ = k;
        warp_.reset();
        warp_.launch(kernel_, 0, 0, 0, lanes, 0);
        u32 executed = 0;
        while (!warp_.stack().empty()) {
            warp_.stack().popReconverged();
            if (warp_.stack().empty())
                break;
            const u32 pc = warp_.stack().pc();
            fex_.execute(warp_, pc, smem_.get(), dims_);
            ++executed;
            EXPECT_LT(executed, 100000u) << "kernel did not terminate";
            if (executed >= 100000u)
                break;
        }
        return executed;
    }

    GlobalMemory gmem_;
    ConstantMemory cmem_;
    FunctionalExecutor fex_;
    std::unique_ptr<SharedMemory> smem_;
    Warp warp_;
    Kernel kernel_{"empty", 1, 1};
    LaunchDims dims_{256, 4};
};

TEST_F(FexTest, IntegerAluSemantics)
{
    KernelBuilder b("alu");
    Reg a = b.newReg(), c = b.newReg(), d = b.newReg();
    b.movImm(a, 10);
    b.iadd(c, a, KernelBuilder::imm(-3));
    b.imul(d, c, c);
    run(b.build());
    EXPECT_EQ(warp_.reg(1)[0], 7u);
    EXPECT_EQ(warp_.reg(2)[5], 49u);
}

TEST_F(FexTest, SignedMinMaxAbs)
{
    KernelBuilder b("mm");
    Reg a = b.newReg(), c = b.newReg(), mn = b.newReg(),
        mx = b.newReg(), ab = b.newReg();
    b.movImm(a, -5);
    b.movImm(c, 3);
    b.imin(mn, a, c);
    b.imax(mx, a, c);
    b.iabs(ab, a);
    run(b.build());
    EXPECT_EQ(static_cast<i32>(warp_.reg(2)[0]), -5);
    EXPECT_EQ(static_cast<i32>(warp_.reg(3)[0]), 3);
    EXPECT_EQ(warp_.reg(4)[0], 5u);
}

TEST_F(FexTest, ShiftSemantics)
{
    KernelBuilder b("sh");
    Reg a = b.newReg(), l = b.newReg(), r = b.newReg(),
        ar = b.newReg();
    b.movImm(a, -16);
    b.shl(l, a, KernelBuilder::imm(1));
    b.shr(r, a, KernelBuilder::imm(1));
    b.sra(ar, a, KernelBuilder::imm(1));
    run(b.build());
    EXPECT_EQ(static_cast<i32>(warp_.reg(1)[0]), -32);
    EXPECT_EQ(warp_.reg(2)[0], 0xFFFFFFF0u >> 1);
    EXPECT_EQ(static_cast<i32>(warp_.reg(3)[0]), -8);
}

TEST_F(FexTest, FloatPipeline)
{
    KernelBuilder b("fp");
    Reg x = b.newReg(), y = b.newReg(), z = b.newReg(),
        w = b.newReg();
    b.movFloat(x, 1.5f);
    b.movFloat(y, 2.0f);
    b.ffma(z, x, y, y);         // 1.5*2 + 2 = 5
    b.frcp(w, z);
    run(b.build());
    EXPECT_FLOAT_EQ(std::bit_cast<float>(warp_.reg(2)[0]), 5.0f);
    EXPECT_FLOAT_EQ(std::bit_cast<float>(warp_.reg(3)[0]), 0.2f);
}

TEST_F(FexTest, ConversionOps)
{
    KernelBuilder b("cvt");
    Reg i = b.newReg(), f = b.newReg(), back = b.newReg();
    b.movImm(i, -7);
    b.i2f(f, i);
    b.f2i(back, f);
    run(b.build());
    EXPECT_FLOAT_EQ(std::bit_cast<float>(warp_.reg(1)[0]), -7.0f);
    EXPECT_EQ(static_cast<i32>(warp_.reg(2)[0]), -7);
}

TEST_F(FexTest, SpecialRegistersPerLane)
{
    KernelBuilder b("s2r");
    Reg tid = b.newReg(), lane = b.newReg(), nt = b.newReg(),
        nc = b.newReg();
    b.s2r(tid, SpecialReg::TidX);
    b.s2r(lane, SpecialReg::LaneId);
    b.s2r(nt, SpecialReg::NTidX);
    b.s2r(nc, SpecialReg::NCtaIdX);
    run(b.build());
    for (u32 l = 0; l < kWarpSize; ++l) {
        EXPECT_EQ(warp_.reg(0)[l], l);          // warp 0 of the CTA
        EXPECT_EQ(warp_.reg(1)[l], l);
    }
    EXPECT_EQ(warp_.reg(2)[0], 256u);
    EXPECT_EQ(warp_.reg(3)[0], 4u);
}

TEST_F(FexTest, PredicatesAndSelect)
{
    KernelBuilder b("pred");
    Reg lane = b.newReg(), sel = b.newReg();
    Pred p = b.newPred();
    b.s2r(lane, SpecialReg::LaneId);
    b.isetp(p, CmpOp::Lt, lane, KernelBuilder::imm(16));
    b.selp(sel, p, KernelBuilder::imm(100), KernelBuilder::imm(200));
    run(b.build());
    EXPECT_EQ(warp_.reg(1)[3], 100u);
    EXPECT_EQ(warp_.reg(1)[20], 200u);
}

TEST_F(FexTest, PredicateLogic)
{
    KernelBuilder b("plogic");
    Reg lane = b.newReg(), out = b.newReg();
    Pred lo = b.newPred(), even = b.newPred(), both = b.newPred();
    b.s2r(lane, SpecialReg::LaneId);
    b.isetp(lo, CmpOp::Lt, lane, KernelBuilder::imm(8));
    Reg parity = b.newReg();
    b.and_(parity, lane, KernelBuilder::imm(1));
    b.isetp(even, CmpOp::Eq, parity, KernelBuilder::imm(0));
    b.pand(both, lo, even);
    b.selp(out, both, KernelBuilder::imm(1), KernelBuilder::imm(0));
    run(b.build());
    EXPECT_EQ(warp_.reg(1)[2], 1u);     // lane 2: low and even
    EXPECT_EQ(warp_.reg(1)[3], 0u);     // odd
    EXPECT_EQ(warp_.reg(1)[10], 0u);    // not low
}

TEST_F(FexTest, GuardMasksWrites)
{
    KernelBuilder b("guard");
    Reg lane = b.newReg(), out = b.newReg();
    Pred p = b.newPred();
    b.s2r(lane, SpecialReg::LaneId);
    b.movImm(out, 11);
    b.isetp(p, CmpOp::Ge, lane, KernelBuilder::imm(16));
    b.predicated(p, false, [&] { b.movImm(out, 22); });
    run(b.build());
    EXPECT_EQ(warp_.reg(1)[0], 11u);
    EXPECT_EQ(warp_.reg(1)[31], 22u);
}

TEST_F(FexTest, GlobalMemoryRoundtrip)
{
    const u64 buf = gmem_.alloc(4 * kWarpSize);
    KernelBuilder b("gmem");
    Reg lane = b.newReg(), addr = b.newReg(), v = b.newReg();
    b.s2r(lane, SpecialReg::LaneId);
    b.imad(addr, lane, KernelBuilder::imm(4),
           KernelBuilder::imm(static_cast<i32>(buf)));
    b.stg(addr, lane);
    b.ldg(v, addr);
    run(b.build());
    for (u32 l = 0; l < kWarpSize; ++l) {
        EXPECT_EQ(gmem_.read32(buf + 4 * l), l);
        EXPECT_EQ(warp_.reg(2)[l], l);
    }
}

TEST_F(FexTest, SharedMemoryRoundtrip)
{
    smem_ = std::make_unique<SharedMemory>(256);
    KernelBuilder b("smem", 256);
    Reg lane = b.newReg(), addr = b.newReg(), v = b.newReg();
    b.s2r(lane, SpecialReg::LaneId);
    b.shl(addr, lane, KernelBuilder::imm(2));
    b.sts(addr, lane);
    b.lds(v, addr);
    run(b.build());
    EXPECT_EQ(warp_.reg(2)[9], 9u);
}

TEST_F(FexTest, ConstantMemoryRead)
{
    cmem_.push(777);
    KernelBuilder b("cmem");
    Reg v = b.newReg();
    b.ldc(v, KernelBuilder::imm(0));
    run(b.build());
    EXPECT_EQ(warp_.reg(0)[15], 777u);
}

TEST_F(FexTest, IfElseDivergenceMergesValues)
{
    KernelBuilder b("div");
    Reg lane = b.newReg(), out = b.newReg();
    Pred p = b.newPred();
    b.s2r(lane, SpecialReg::LaneId);
    b.isetp(p, CmpOp::Lt, lane, KernelBuilder::imm(10));
    b.ifElse_(p, [&] { b.movImm(out, 1); }, [&] { b.movImm(out, 2); });
    run(b.build());
    for (u32 l = 0; l < kWarpSize; ++l)
        EXPECT_EQ(warp_.reg(1)[l], l < 10 ? 1u : 2u);
    EXPECT_EQ(warp_.stack().depth(), 0u);   // fully drained
}

TEST_F(FexTest, DivergentLoopTripCounts)
{
    // Each lane iterates (lane % 4) + 1 times.
    KernelBuilder b("dloop");
    Reg lane = b.newReg(), n = b.newReg(), i = b.newReg(),
        count = b.newReg();
    b.s2r(lane, SpecialReg::LaneId);
    b.and_(n, lane, KernelBuilder::imm(3));
    b.iadd(n, n, KernelBuilder::imm(1));
    b.movImm(count, 0);
    b.forRange(i, KernelBuilder::imm(0), n, 1, [&] {
        b.iadd(count, count, KernelBuilder::imm(10));
    });
    run(b.build());
    for (u32 l = 0; l < kWarpSize; ++l)
        EXPECT_EQ(warp_.reg(3)[l], ((l % 4) + 1) * 10);
}

TEST_F(FexTest, NestedDivergence)
{
    KernelBuilder b("nest");
    Reg lane = b.newReg(), out = b.newReg();
    Pred outer = b.newPred(), inner = b.newPred();
    b.s2r(lane, SpecialReg::LaneId);
    b.movImm(out, 0);
    b.isetp(outer, CmpOp::Lt, lane, KernelBuilder::imm(16));
    b.if_(outer, [&] {
        b.isetp(inner, CmpOp::Lt, lane, KernelBuilder::imm(8));
        b.ifElse_(inner, [&] { b.movImm(out, 1); },
                  [&] { b.movImm(out, 2); });
    });
    run(b.build());
    for (u32 l = 0; l < kWarpSize; ++l) {
        const u32 expect = l < 8 ? 1 : (l < 16 ? 2 : 0);
        EXPECT_EQ(warp_.reg(1)[l], expect);
    }
}

TEST_F(FexTest, GuardedExitKillsSubsetOnly)
{
    // Lanes >= 8 exit early; the rest write a marker. Built by hand
    // because the builder has no early-exit construct.
    Kernel k("gexit", 2, 1);
    Instruction s2r;
    s2r.op = Opcode::S2R;
    s2r.dst = 0;
    s2r.sreg = SpecialReg::LaneId;
    k.append(s2r);
    Instruction zero;
    zero.op = Opcode::MovImm;
    zero.dst = 1;
    zero.src[0] = Operand::fromImm(0);
    k.append(zero);
    Instruction setp;
    setp.op = Opcode::ISetP;
    setp.dstPred = 0;
    setp.cmp = CmpOp::Ge;
    setp.src[0] = Operand::fromReg(0);
    setp.src[1] = Operand::fromImm(8);
    k.append(setp);
    Instruction gexit;
    gexit.op = Opcode::Exit;
    gexit.guardPred = 0;
    k.append(gexit);
    Instruction mark;
    mark.op = Opcode::MovImm;
    mark.dst = 1;
    mark.src[0] = Operand::fromImm(99);
    k.append(mark);
    Instruction ex;
    ex.op = Opcode::Exit;
    k.append(ex);
    k.validate();

    run(k);
    EXPECT_EQ(warp_.reg(1)[0], 99u);
    EXPECT_EQ(warp_.reg(1)[8], 0u);     // exited before the marker
}

TEST_F(FexTest, PartialWarpLaunch)
{
    KernelBuilder b("partial");
    Reg lane = b.newReg(), out = b.newReg();
    b.s2r(lane, SpecialReg::LaneId);
    b.movImm(out, 5);
    run(b.build(), 20);
    EXPECT_EQ(warp_.reg(1)[19], 5u);
    EXPECT_EQ(warp_.reg(1)[20], 0u);    // beyond the live lanes
}

TEST_F(FexTest, IAbsOfIntMinWraps)
{
    // Two's-complement IABS: |INT32_MIN| has no i32 value, so it wraps
    // to INT32_MIN (an unsigned negate; a signed one would be UB).
    KernelBuilder b("iabs_min");
    Reg m = b.newReg(), n = b.newReg(), am = b.newReg(), an = b.newReg();
    b.movImm(m, INT32_MIN);
    b.movImm(n, -1);
    b.iabs(am, m);
    b.iabs(an, n);
    run(b.build());
    for (u32 lane = 0; lane < kWarpSize; ++lane) {
        EXPECT_EQ(warp_.reg(2)[lane], static_cast<u32>(INT32_MIN));
        EXPECT_EQ(warp_.reg(3)[lane], 1u);
    }
}

TEST_F(FexTest, F2ISaturatesLikePtxCvtRzi)
{
    // cvt.rzi.s32.f32: truncate toward zero, NaN -> 0, values beyond
    // the i32 range clamp to INT32_MIN / INT32_MAX.
    const struct
    {
        float in;
        i32 out;
    } cases[] = {
        {std::bit_cast<float>(0x7FC00000u), 0},             // quiet NaN
        {std::bit_cast<float>(0xFF800001u), 0},             // -sNaN
        {std::numeric_limits<float>::infinity(), INT32_MAX},
        {-std::numeric_limits<float>::infinity(), INT32_MIN},
        {3.0e9f, INT32_MAX},
        {-3.0e9f, INT32_MIN},
        {2147483648.0f, INT32_MAX},                          // 2^31
        {-2147483648.0f, INT32_MIN},                         // -2^31 fits
        {2147483520.0f, 2147483520},                         // max < 2^31
        {-1.75f, -1},
        {1.99f, 1},
        {-0.0f, 0},
    };
    KernelBuilder b("f2i_sat");
    std::vector<Reg> outs;
    for (const auto &c : cases) {
        Reg f = b.newReg(), i = b.newReg();
        b.movFloat(f, c.in);
        b.f2i(i, f);
        outs.push_back(i);
    }
    run(b.build());
    for (std::size_t k = 0; k < std::size(cases); ++k) {
        for (u32 lane = 0; lane < kWarpSize; ++lane) {
            EXPECT_EQ(static_cast<i32>(warp_.reg(outs[k].idx)[lane]),
                      cases[k].out)
                << "case " << k << " lane " << lane;
        }
    }
}

/**
 * Scalar per-lane reference for the lane kernels: the semantics of
 * every ALU, compare and select opcode written one lane at a time, the
 * way FunctionalExecutor computed them before its lanes were batched.
 * IAbs and F2I follow the defined wrap / saturation rules.
 */
u32
refAlu(Opcode op, u32 a, u32 b, u32 c, bool sel)
{
    const auto f = [](u32 v) { return std::bit_cast<float>(v); };
    const auto u = [](float v) { return std::bit_cast<u32>(v); };
    const i32 sa = static_cast<i32>(a);
    const i32 sb = static_cast<i32>(b);
    switch (op) {
      case Opcode::Mov:
      case Opcode::MovImm: return a;
      case Opcode::IAdd: return a + b;
      case Opcode::ISub: return a - b;
      case Opcode::IMul: return a * b;
      case Opcode::IMad: return a * b + c;
      case Opcode::IMin: return static_cast<u32>(sa < sb ? sa : sb);
      case Opcode::IMax: return static_cast<u32>(sa > sb ? sa : sb);
      case Opcode::IAbs:
        return sa == INT32_MIN ? a : static_cast<u32>(sa < 0 ? -sa : sa);
      case Opcode::And: return a & b;
      case Opcode::Or: return a | b;
      case Opcode::Xor: return a ^ b;
      case Opcode::Not: return ~a;
      case Opcode::Shl: return a << (b & 31);
      case Opcode::Shr: return a >> (b & 31);
      case Opcode::Sra: return static_cast<u32>(sa >> (b & 31));
      case Opcode::IMulHi:
        return static_cast<u32>(
            static_cast<u64>(static_cast<i64>(sa) * sb) >> 32);
      case Opcode::IMulHiU:
        return static_cast<u32>((static_cast<u64>(a) * b) >> 32);
      case Opcode::IDiv:
        if (sb == 0)
            return ~0u;
        if (sa == INT32_MIN && sb == -1)
            return a;
        return static_cast<u32>(sa / sb);
      case Opcode::IDivU: return b == 0 ? ~0u : a / b;
      case Opcode::IRem:
        if (sb == 0)
            return a;
        if (sa == INT32_MIN && sb == -1)
            return 0;
        return static_cast<u32>(sa % sb);
      case Opcode::IRemU: return b == 0 ? a : a % b;
      case Opcode::SelP: return sel ? a : b;
      case Opcode::FAdd: return u(f(a) + f(b));
      case Opcode::FMul: return u(f(a) * f(b));
      case Opcode::FFma: return u(f(a) * f(b) + f(c));
      case Opcode::FMin: return u(std::fmin(f(a), f(b)));
      case Opcode::FMax: return u(std::fmax(f(a), f(b)));
      case Opcode::I2F: return u(static_cast<float>(sa));
      case Opcode::F2I: {
        const float x = f(a);
        if (std::isnan(x))
            return 0;
        if (x >= 2147483648.0f)
            return static_cast<u32>(INT32_MAX);
        if (x < -2147483648.0f)
            return static_cast<u32>(INT32_MIN);
        return static_cast<u32>(static_cast<i32>(x));
      }
      case Opcode::FRcp: return u(1.0f / f(a));
      default: ADD_FAILURE() << "no reference for " << opcodeName(op);
    }
    return 0;
}

bool
refCompare(Opcode op, CmpOp cmp, u32 a, u32 b)
{
    const auto rel = [cmp](auto x, auto y) {
        switch (cmp) {
          case CmpOp::Lt: return x < y;
          case CmpOp::Le: return x <= y;
          case CmpOp::Gt: return x > y;
          case CmpOp::Ge: return x >= y;
          case CmpOp::Eq: return x == y;
          case CmpOp::Ne: return x != y;
        }
        return false;
    };
    if (op == Opcode::FSetP)
        return rel(std::bit_cast<float>(a), std::bit_cast<float>(b));
    return rel(static_cast<i32>(a), static_cast<i32>(b));
}

/** Results equal bit for bit; two NaNs count as equal (IEEE leaves the
 *  payload of an operation on two NaNs to the implementation). */
bool
sameLane(Opcode op, u32 got, u32 want)
{
    if (got == want)
        return true;
    const bool fp_result = execClass(op) == ExecClass::Fpu &&
        op != Opcode::F2I;
    return fp_result && std::isnan(std::bit_cast<float>(got)) &&
        std::isnan(std::bit_cast<float>(want));
}

/** Operand count each opcode under test reads. */
u32
arity(Opcode op)
{
    switch (op) {
      case Opcode::Mov:
      case Opcode::MovImm:
      case Opcode::IAbs:
      case Opcode::Not:
      case Opcode::I2F:
      case Opcode::F2I:
      case Opcode::FRcp:
        return 1;
      case Opcode::IMad:
      case Opcode::FFma:
        return 3;
      default:
        return 2;
    }
}

/** Lane values that stress the edges: sign boundaries, zero, and the
 *  float specials. */
constexpr u32 kEdgeValues[] = {
    0x80000000u,  // INT32_MIN / -0.0f
    0xFFFFFFFFu,  // -1 / NaN
    0u,
    1u,
    0x7FFFFFFFu,  // INT32_MAX / NaN
    0x7FC00000u,  // quiet NaN
    0x7F800000u,  // +inf
    0xFF800000u,  // -inf
    0x4F000000u,  // 2^31 as a float
    0xCF000001u,  // just below -2^31 as a float
    0x3F800000u,  // 1.0f
    31u,
    32u,
};

u32
drawLane(Rng &rng)
{
    // One lane in four takes an edge value, the rest are random bits.
    if (rng.nextU32(4) == 0)
        return kEdgeValues[rng.nextU32(std::size(kEdgeValues))];
    return static_cast<u32>(rng.next());
}

TEST_F(FexTest, LaneKernelsMatchScalarReference)
{
    const Opcode alu_ops[] = {
        Opcode::Mov, Opcode::MovImm, Opcode::IAdd, Opcode::ISub,
        Opcode::IMul, Opcode::IMad, Opcode::IMin, Opcode::IMax,
        Opcode::IAbs, Opcode::And, Opcode::Or, Opcode::Xor, Opcode::Not,
        Opcode::Shl, Opcode::Shr, Opcode::Sra, Opcode::IMulHi,
        Opcode::IMulHiU, Opcode::IDiv, Opcode::IDivU, Opcode::IRem,
        Opcode::IRemU, Opcode::SelP, Opcode::FAdd, Opcode::FMul,
        Opcode::FFma, Opcode::FMin, Opcode::FMax, Opcode::I2F,
        Opcode::F2I, Opcode::FRcp, Opcode::ISetP, Opcode::FSetP,
    };
    const CmpOp cmps[] = {CmpOp::Lt, CmpOp::Le, CmpOp::Gt,
                          CmpOp::Ge, CmpOp::Eq, CmpOp::Ne};
    // Registers r0..r2 feed the sources, r3 is the separate
    // destination; p0 guards, p1 selects (SelP) or receives (compares).
    constexpr u32 kRegs = 4;
    constexpr u8 kGuard = 0, kPred = 1;
    Rng rng(20240517);
    u32 checked = 0;

    for (const Opcode op : alu_ops) {
        const bool compare = op == Opcode::ISetP || op == Opcode::FSetP;
        const u32 n = arity(op);
        for (u32 cmp_i = 0; cmp_i < (compare ? 6u : 1u); ++cmp_i) {
          // Bit i of imm_mix: source i is an immediate, not a register.
          for (u32 imm_mix = 0; imm_mix < (1u << n); ++imm_mix) {
            if (op == Opcode::MovImm && imm_mix != 1)
                continue;
            // dst: 3 (distinct), or aliasing the first register source.
            for (u32 alias = 0; alias < 2; ++alias) {
              if (alias == 1 && (compare || imm_mix == (1u << n) - 1))
                  continue;
              for (u32 lanes : {kWarpSize, 19u}) {
                for (u32 mask_kind = 0; mask_kind < 4; ++mask_kind) {
                  Instruction in;
                  in.op = op;
                  in.cmp = cmps[cmp_i];
                  in.guardPred = kGuard;
                  u32 imms[3] = {};
                  for (u32 i = 0; i < n; ++i) {
                      if ((imm_mix >> i) & 1) {
                          imms[i] = drawLane(rng);
                          in.src[i] = Operand::fromImm(
                              static_cast<i32>(imms[i]));
                      } else {
                          in.src[i] = Operand::fromReg(static_cast<u8>(i));
                      }
                  }
                  u8 first_reg = kNoReg;
                  for (u32 i = 0; i < n && first_reg == kNoReg; ++i) {
                      if (in.src[i].isReg())
                          first_reg = in.src[i].reg;
                  }
                  if (compare) {
                      in.dstPred = kPred;
                  } else {
                      in.dst = alias == 1 ? first_reg : u8{3};
                  }
                  if (op == Opcode::SelP)
                      in.srcPred = kPred;

                  Kernel k("lane_kernel", kRegs, 2);
                  k.append(in);
                  Instruction ex;
                  ex.op = Opcode::Exit;
                  k.append(ex);
                  kernel_ = k;
                  warp_.reset();
                  warp_.launch(kernel_, 0, 0, 0, lanes, 0);

                  for (u32 r = 0; r < kRegs; ++r) {
                      for (u32 lane = 0; lane < kWarpSize; ++lane)
                          warp_.reg(r)[lane] = drawLane(rng);
                  }
                  const LaneMask guard = mask_kind == 0 ? 0u
                      : mask_kind == 1 ? kFullMask
                                       : static_cast<LaneMask>(rng.next());
                  warp_.setPred(kGuard, guard, kFullMask);
                  warp_.setPred(kPred, static_cast<LaneMask>(rng.next()),
                                kFullMask);

                  std::vector<WarpRegValue> before;
                  for (u32 r = 0; r < kRegs; ++r)
                      before.push_back(warp_.reg(r));
                  const LaneMask pred_before = warp_.pred(kPred);
                  const LaneMask eff = guard & firstLanes(lanes);

                  const ExecOutcome out =
                      fex_.execute(warp_, 0, smem_.get(), dims_);
                  EXPECT_EQ(out.effMask, eff);

                  const auto src_lane = [&](u32 i, u32 lane) {
                      if (i >= n)
                          return 0u;
                      return in.src[i].isReg()
                          ? before[in.src[i].reg][lane] : imms[i];
                  };
                  SCOPED_TRACE(::testing::Message()
                               << opcodeName(op) << " cmp " << cmp_i
                               << " imm_mix " << imm_mix << " alias "
                               << alias << " lanes " << lanes
                               << " mask " << std::hex << guard);
                  if (compare) {
                      LaneMask want = pred_before & ~eff;
                      for (u32 lane = 0; lane < kWarpSize; ++lane) {
                          if (laneActive(eff, lane) &&
                              refCompare(op, in.cmp, src_lane(0, lane),
                                         src_lane(1, lane)))
                              want |= 1u << lane;
                      }
                      EXPECT_EQ(warp_.pred(kPred), want);
                  }
                  for (u32 r = 0; r < kRegs; ++r) {
                      for (u32 lane = 0; lane < kWarpSize; ++lane) {
                          const u32 got = warp_.reg(r)[lane];
                          if (compare || r != in.dst ||
                              !laneActive(eff, lane)) {
                              // Inactive lanes and every other register
                              // keep their bits.
                              ASSERT_EQ(got, before[r][lane])
                                  << "r" << r << " lane " << lane;
                              continue;
                          }
                          const u32 want = refAlu(
                              op, src_lane(0, lane), src_lane(1, lane),
                              src_lane(2, lane),
                              laneActive(pred_before, lane));
                          ASSERT_TRUE(sameLane(op, got, want))
                              << "r" << r << " lane " << lane << " got "
                              << got << " want " << want;
                      }
                  }
                  EXPECT_EQ(out.wroteReg, !compare && eff != 0);
                  ++checked;
                }
              }
            }
          }
        }
    }
    EXPECT_GT(checked, 1000u);
}

TEST_F(FexTest, SpecialRegisterKernelsRespectMask)
{
    // S2R through the batched path: the guard picks the written lanes
    // of a partial warp, and inactive lanes keep their old bits.
    const SpecialReg regs[] = {SpecialReg::TidX, SpecialReg::CtaIdX,
                               SpecialReg::NTidX, SpecialReg::NCtaIdX,
                               SpecialReg::LaneId};
    for (const SpecialReg sr : regs) {
        Kernel k("s2r_mask", 1, 1);
        Instruction in;
        in.op = Opcode::S2R;
        in.dst = 0;
        in.sreg = sr;
        in.guardPred = 0;
        k.append(in);
        Instruction ex;
        ex.op = Opcode::Exit;
        k.append(ex);
        kernel_ = k;
        warp_.reset();
        warp_.launch(kernel_, 0, 7, 2, 19, 0);
        warp_.reg(0).fill(0xDEADBEEFu);
        const LaneMask guard = 0xA5A5A5A5u;
        warp_.setPred(0, guard, kFullMask);
        fex_.execute(warp_, 0, smem_.get(), dims_);
        const LaneMask eff = guard & firstLanes(19);
        for (u32 lane = 0; lane < kWarpSize; ++lane) {
            u32 want = 0xDEADBEEFu;
            if (laneActive(eff, lane)) {
                switch (sr) {
                  case SpecialReg::TidX: want = 2 * kWarpSize + lane; break;
                  case SpecialReg::CtaIdX: want = 7; break;
                  case SpecialReg::NTidX: want = dims_.blockDim; break;
                  case SpecialReg::NCtaIdX: want = dims_.gridDim; break;
                  case SpecialReg::LaneId: want = lane; break;
                }
            }
            EXPECT_EQ(warp_.reg(0)[lane], want)
                << sregName(sr) << " lane " << lane;
        }
    }
}

} // namespace
} // namespace warpcomp
