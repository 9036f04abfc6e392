/**
 * @file
 * Tests for the ISA layer: opcode classification, instruction operand
 * bookkeeping, kernel validation, the KernelBuilder's structured
 * control-flow emission, and the disassembler.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "isa/builder.hpp"
#include "isa/disasm.hpp"
#include "workloads/registry.hpp"

namespace warpcomp {
namespace {

TEST(Opcode, ExecClasses)
{
    EXPECT_EQ(execClass(Opcode::IAdd), ExecClass::Alu);
    EXPECT_EQ(execClass(Opcode::IMul), ExecClass::Mul);
    EXPECT_EQ(execClass(Opcode::IMad), ExecClass::Mul);
    EXPECT_EQ(execClass(Opcode::FFma), ExecClass::Fpu);
    EXPECT_EQ(execClass(Opcode::FRcp), ExecClass::Fpu);
    EXPECT_EQ(execClass(Opcode::Ldg), ExecClass::Mem);
    EXPECT_EQ(execClass(Opcode::Bra), ExecClass::Ctrl);
    EXPECT_EQ(execClass(Opcode::Bar), ExecClass::Ctrl);
}

TEST(Opcode, WritesGpr)
{
    EXPECT_TRUE(writesGpr(Opcode::IAdd));
    EXPECT_TRUE(writesGpr(Opcode::Ldg));
    EXPECT_TRUE(writesGpr(Opcode::SelP));
    EXPECT_FALSE(writesGpr(Opcode::Stg));
    EXPECT_FALSE(writesGpr(Opcode::ISetP));
    EXPECT_FALSE(writesGpr(Opcode::Bra));
}

TEST(Opcode, WritesPred)
{
    EXPECT_TRUE(writesPred(Opcode::ISetP));
    EXPECT_TRUE(writesPred(Opcode::FSetP));
    EXPECT_TRUE(writesPred(Opcode::PAnd));
    EXPECT_FALSE(writesPred(Opcode::IAdd));
}

TEST(Instruction, RegSourceDedup)
{
    Instruction in;
    in.op = Opcode::IMad;
    in.dst = 3;
    in.src[0] = Operand::fromReg(1);
    in.src[1] = Operand::fromReg(1);
    in.src[2] = Operand::fromReg(2);
    in.finalizeIssueMasks();
    EXPECT_EQ(in.numRegSources(), 2u);
    EXPECT_EQ(in.regSource(0), 1u);
    EXPECT_EQ(in.regSource(1), 2u);
}

TEST(Instruction, ImmediatesNotSources)
{
    Instruction in;
    in.op = Opcode::IAdd;
    in.dst = 0;
    in.src[0] = Operand::fromReg(5);
    in.src[1] = Operand::fromImm(7);
    in.finalizeIssueMasks();
    EXPECT_EQ(in.numRegSources(), 1u);
    EXPECT_EQ(in.regSource(0), 5u);
}

/**
 * The source list the collector reads, derived the original way: walk
 * the operands on every query, keep each register's first occurrence.
 * The decoded fields must equal it.
 */
std::vector<u8>
derivedSources(const Instruction &in)
{
    std::vector<u8> out;
    for (const Operand &o : in.src) {
        if (o.isReg() &&
            std::find(out.begin(), out.end(), o.reg) == out.end())
            out.push_back(o.reg);
    }
    return out;
}

void
expectDecodedSources(const Instruction &in)
{
    ASSERT_TRUE(in.finalized);
    const std::vector<u8> want = derivedSources(in);
    ASSERT_EQ(in.numRegSources(), want.size()) << opcodeName(in.op);
    for (u32 i = 0; i < want.size(); ++i)
        EXPECT_EQ(in.regSource(i), want[i]) << opcodeName(in.op) << " #" << i;
}

TEST(Instruction, DecodedSourcesMatchDerivation)
{
    const auto make = [](Opcode op, u8 dst, Operand a, Operand b,
                         Operand c) {
        Instruction in;
        in.op = op;
        in.dst = dst;
        in.src = {a, b, c};
        in.finalizeIssueMasks();
        return in;
    };
    const Operand r1 = Operand::fromReg(1), r2 = Operand::fromReg(2),
                  r3 = Operand::fromReg(3), none = Operand::none(),
                  i7 = Operand::fromImm(7), i0 = Operand::fromImm(0);

    // IADD r1, r1, r1 reads r1 once.
    const Instruction triple = make(Opcode::IAdd, 1, r1, r1, none);
    expectDecodedSources(triple);
    EXPECT_EQ(triple.numRegSources(), 1u);

    // Immediate mixes: immediates are never sources, wherever they sit.
    expectDecodedSources(make(Opcode::IAdd, 1, r2, i7, none));
    expectDecodedSources(make(Opcode::IAdd, 1, i7, r2, none));
    expectDecodedSources(make(Opcode::IMad, 1, i7, r3, r3));
    expectDecodedSources(make(Opcode::IMad, 1, r3, i0, r1));
    expectDecodedSources(make(Opcode::FFma, 2, r3, r1, r3));
    expectDecodedSources(make(Opcode::FFma, 2, r1, r2, r3));
    expectDecodedSources(make(Opcode::MovImm, 2, i7, none, none));
    EXPECT_EQ(make(Opcode::MovImm, 2, i7, none, none).numRegSources(), 0u);
    expectDecodedSources(make(Opcode::Stg, kNoReg, r2, r3, none));

    // The decompress-MOV the SM injects: MOV r, r reads r once.
    Instruction mov;
    mov.op = Opcode::Mov;
    mov.dst = 3;
    mov.src[0] = Operand::fromReg(3);
    mov.finalizeIssueMasks();
    expectDecodedSources(mov);
    EXPECT_EQ(mov.regSource(0), 3u);

    // Re-finalizing after an operand edit re-decodes.
    Instruction edited = make(Opcode::IAdd, 1, r1, r2, none);
    edited.src[1] = i7;
    edited.finalizeIssueMasks();
    expectDecodedSources(edited);
    EXPECT_EQ(edited.numRegSources(), 1u);
}

TEST(Instruction, UnfinalizedSourceDecodePanics)
{
    Instruction in;
    in.op = Opcode::IAdd;
    in.dst = 0;
    in.src[0] = Operand::fromReg(1);
    EXPECT_DEATH(in.numRegSources(), "unfinalized");
}

TEST(Kernel, AppendStoresFinalizedInstructions)
{
    // Every static instruction of every workload reaches the issue path
    // through Kernel::append, so each must carry its decoded sources.
    u32 checked = 0;
    for (const std::string &name : workloadNames()) {
        const WorkloadInstance w = makeWorkload(name);
        for (const Instruction &in : w.kernel.code()) {
            expectDecodedSources(in);
            ++checked;
        }
    }
    EXPECT_GT(checked, 0u);
}

TEST(Instruction, Predicates)
{
    Instruction in;
    in.op = Opcode::Mov;
    EXPECT_FALSE(in.hasGuard());
    in.guardPred = 2;
    EXPECT_TRUE(in.hasGuard());
}

TEST(Builder, LinearKernel)
{
    KernelBuilder b("lin");
    Reg a = b.newReg(), c = b.newReg();
    b.movImm(a, 5);
    b.iadd(c, a, KernelBuilder::imm(2));
    Kernel k = b.build();
    EXPECT_EQ(k.size(), 3u);            // two instructions + EXIT
    EXPECT_TRUE(k.at(2).isExit());
    EXPECT_EQ(k.numRegs(), 2u);
}

TEST(Builder, IfEmitsBranchWithReconvergence)
{
    KernelBuilder b("iftest");
    Reg a = b.newReg();
    Pred p = b.newPred();
    b.movImm(a, 1);
    b.isetp(p, CmpOp::Gt, a, KernelBuilder::imm(0));
    b.if_(p, [&] { b.movImm(a, 2); });
    Kernel k = b.build();

    // pc2 is the guarded branch; target and reconv are the EXIT-adjacent
    // join point after the then-block.
    const Instruction &bra = k.at(2);
    ASSERT_TRUE(bra.isBranch());
    EXPECT_EQ(bra.guardPred, p.idx);
    EXPECT_TRUE(bra.guardNegate);
    EXPECT_EQ(bra.target, 4u);
    EXPECT_EQ(bra.reconv, 4u);
}

TEST(Builder, IfElseShape)
{
    KernelBuilder b("ifelse");
    Reg a = b.newReg();
    Pred p = b.newPred();
    b.movImm(a, 1);
    b.isetp(p, CmpOp::Gt, a, KernelBuilder::imm(0));
    b.ifElse_(p, [&] { b.movImm(a, 2); }, [&] { b.movImm(a, 3); });
    Kernel k = b.build();

    const Instruction &bra = k.at(2);   // @!p BRA else (reconv end)
    ASSERT_TRUE(bra.isBranch());
    const u32 else_start = bra.target;
    const u32 end = bra.reconv;
    EXPECT_LT(else_start, end);
    // The then-side ends with an unconditional jump to the join.
    const Instruction &jmp = k.at(else_start - 1);
    ASSERT_TRUE(jmp.isBranch());
    EXPECT_EQ(jmp.guardPred, kNoPred);
    EXPECT_EQ(jmp.target, end);
}

TEST(Builder, WhileShape)
{
    KernelBuilder b("loop");
    Reg i = b.newReg();
    Pred p = b.newPred();
    b.movImm(i, 0);
    b.while_(
        [&] {
            b.isetp(p, CmpOp::Lt, i, KernelBuilder::imm(4));
            return p;
        },
        [&] { b.iadd(i, i, KernelBuilder::imm(1)); });
    Kernel k = b.build();

    // Layout: 0 mov, 1 isetp (cond), 2 exit-branch, 3 body, 4 back-branch.
    const Instruction &exit_bra = k.at(2);
    ASSERT_TRUE(exit_bra.isBranch());
    EXPECT_TRUE(exit_bra.guardNegate);
    EXPECT_EQ(exit_bra.target, 5u);
    EXPECT_EQ(exit_bra.reconv, 5u);
    const Instruction &back = k.at(4);
    ASSERT_TRUE(back.isBranch());
    EXPECT_EQ(back.target, 1u);
}

TEST(Builder, ForRangeCountsUp)
{
    KernelBuilder b("fr");
    Reg i = b.newReg();
    Reg body_count = b.newReg();
    b.movImm(body_count, 0);
    b.forRange(i, KernelBuilder::imm(0), KernelBuilder::imm(3), 1, [&] {
        b.iadd(body_count, body_count, KernelBuilder::imm(1));
    });
    Kernel k = b.build();
    k.validate();
    // mov + mov(counter) + isetp + bra + body + iadd(step) + bra + exit
    EXPECT_EQ(k.size(), 8u);
}

TEST(Builder, PredicatedSetsGuard)
{
    KernelBuilder b("guard");
    Reg a = b.newReg();
    Pred p = b.newPred();
    b.movImm(a, 0);
    b.isetp(p, CmpOp::Eq, a, KernelBuilder::imm(0));
    b.predicated(p, false, [&] { b.movImm(a, 7); });
    Kernel k = b.build();
    const Instruction &in = k.at(2);
    EXPECT_EQ(in.guardPred, p.idx);
    EXPECT_FALSE(in.guardNegate);
}

TEST(Builder, RegisterExhaustionPanics)
{
    KernelBuilder b("toomany");
    for (u32 i = 0; i < kMaxRegsPerThread; ++i)
        b.newReg();
    EXPECT_DEATH(b.newReg(), "exceeds");
}

TEST(Kernel, ValidateRejectsMissingExit)
{
    Kernel k("bad", 1, 1);
    Instruction in;
    in.op = Opcode::Nop;
    k.append(in);
    EXPECT_DEATH(k.validate(), "EXIT");
}

TEST(Kernel, ValidateRejectsOutOfRangeReg)
{
    Kernel k("bad2", 1, 1);
    Instruction in;
    in.op = Opcode::Mov;
    in.dst = 5;                 // beyond numRegs=1
    in.src[0] = Operand::fromReg(0);
    k.append(in);
    Instruction ex;
    ex.op = Opcode::Exit;
    k.append(ex);
    EXPECT_DEATH(k.validate(), "beyond declared");
}

TEST(Kernel, ValidateRejectsBadBranchTarget)
{
    Kernel k("bad3", 1, 1);
    Instruction bra;
    bra.op = Opcode::Bra;
    bra.target = 99;
    k.append(bra);
    Instruction ex;
    ex.op = Opcode::Exit;
    k.append(ex);
    EXPECT_DEATH(k.validate(), "target out of range");
}

TEST(Disasm, BasicFormats)
{
    KernelBuilder b("d");
    Reg a = b.newReg(), c = b.newReg();
    Pred p = b.newPred();
    b.s2r(a, SpecialReg::TidX);
    b.iadd(c, a, KernelBuilder::imm(3));
    b.isetp(p, CmpOp::Lt, c, KernelBuilder::imm(10));
    Kernel k = b.build();

    EXPECT_EQ(disassemble(k.at(0)), "S2R r0, SR_TID.X");
    EXPECT_EQ(disassemble(k.at(1)), "IADD r1, r0, #3");
    EXPECT_EQ(disassemble(k.at(2)), "ISETP.LT p0, r1, #10");
    const std::string listing = disassemble(k);
    EXPECT_NE(listing.find(".kernel d"), std::string::npos);
    EXPECT_NE(listing.find("EXIT"), std::string::npos);
}

TEST(Disasm, GuardPrefix)
{
    Instruction in;
    in.op = Opcode::Mov;
    in.dst = 1;
    in.src[0] = Operand::fromReg(2);
    in.guardPred = 3;
    in.guardNegate = true;
    EXPECT_EQ(disassemble(in), "@!p3 MOV r1, r2");
}

} // namespace
} // namespace warpcomp
