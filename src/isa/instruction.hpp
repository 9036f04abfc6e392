/**
 * @file
 * Instruction encoding: operands, predication, branch metadata.
 */

#ifndef WARPCOMP_ISA_INSTRUCTION_HPP
#define WARPCOMP_ISA_INSTRUCTION_HPP

#include <array>
#include <string>

#include "common/log.hpp"
#include "common/types.hpp"
#include "isa/opcode.hpp"

namespace warpcomp {

/** Sentinel register / predicate numbers meaning "unused". */
inline constexpr u8 kNoReg = 0xFF;
inline constexpr u8 kNoPred = 0xFF;

/** Architectural limits of the ISA. */
inline constexpr u32 kMaxRegsPerThread = 64;
inline constexpr u32 kMaxPredsPerThread = 8;

/** A source operand: a register, an immediate, or absent. */
struct Operand
{
    enum class Kind : u8 { None, Reg, Imm };

    Kind kind = Kind::None;
    u8 reg = kNoReg;
    i32 imm = 0;

    static Operand none() { return {}; }

    static Operand
    fromReg(u8 r)
    {
        Operand o;
        o.kind = Kind::Reg;
        o.reg = r;
        return o;
    }

    static Operand
    fromImm(i32 v)
    {
        Operand o;
        o.kind = Kind::Imm;
        o.imm = v;
        return o;
    }

    bool isReg() const { return kind == Kind::Reg; }
    bool isImm() const { return kind == Kind::Imm; }
    bool isNone() const { return kind == Kind::None; }
};

/**
 * One static instruction. Program counters are instruction indices into
 * the owning kernel's code vector (not byte addresses).
 */
struct Instruction
{
    Opcode op = Opcode::Nop;

    /** Destination GPR; kNoReg when the opcode writes none. */
    u8 dst = kNoReg;
    /** Destination predicate for ISetP / FSetP. */
    u8 dstPred = kNoPred;

    /** Up to three source operands (FFMA/IMAD use all three). */
    std::array<Operand, 3> src{};

    /** Guard predicate: instruction executes only in lanes where the
     *  predicate (xor negation) holds. kNoPred means unguarded. */
    u8 guardPred = kNoPred;
    bool guardNegate = false;

    /** Comparison operator for ISetP / FSetP, or select pred for SelP. */
    CmpOp cmp = CmpOp::Eq;
    /** Select / source predicate for SelP, PAnd, POr, PNot. */
    u8 srcPred = kNoPred;
    /** Second source predicate for PAnd / POr. */
    u8 srcPred2 = kNoPred;

    /** Special register selector for S2R. */
    SpecialReg sreg = SpecialReg::TidX;

    /** Branch target (instruction index) for Bra. */
    u32 target = 0;
    /** Immediate-post-dominator reconvergence point for Bra. */
    u32 reconv = 0;

    /** Byte offset immediate for memory operations. */
    i32 memOffset = 0;

    bool isBranch() const { return op == Opcode::Bra; }
    bool isExit() const { return op == Opcode::Exit; }
    bool isBarrier() const { return op == Opcode::Bar; }
    bool isLoad() const
    {
        return op == Opcode::Ldg || op == Opcode::Lds || op == Opcode::Ldc;
    }
    bool isStore() const { return op == Opcode::Stg || op == Opcode::Sts; }
    bool isMemory() const { return isLoad() || isStore(); }

    bool hasDst() const { return dst != kNoReg && writesGpr(op); }
    bool hasGuard() const { return guardPred != kNoPred; }

    /** Number of distinct GPR source registers read (decoded by
     *  finalizeIssueMasks()). */
    u32
    numRegSources() const
    {
        WC_ASSERT(finalized, "source decode of an unfinalized "
                  << opcodeName(op));
        return numSrcRegs;
    }

    /** i-th GPR source register read (0 <= i < numRegSources()), in
     *  operand order with duplicates dropped. */
    u8
    regSource(u32 i) const
    {
        WC_ASSERT(i < numRegSources(), "regSource index out of range");
        return srcRegs[i];
    }

    /**
     * Issue-time metadata cached off the operand fields (filled by
     * Kernel::append, or finalizeIssueMasks() for hand-built
     * instructions). The scoreboard probe runs once per candidate warp
     * per scheduler cycle; with these the whole hazard check collapses
     * to two mask tests instead of an operand walk.
     */
    u64 sbRegMask = 0;   ///< every GPR read or written (bit per reg)
    u8 sbPredMask = 0;   ///< every predicate read or written
    bool sbPipeline = false; ///< occupies a collector / exec slot
    bool sbMemory = false;   ///< counts against the MSHR budget
    /** Distinct GPR sources in operand order (first numSrcRegs valid);
     *  the operand collector reads them once per issue. */
    std::array<u8, 3> srcRegs{kNoReg, kNoReg, kNoReg};
    u8 numSrcRegs = 0;
    /** The cached fields above match the operand fields. */
    bool finalized = false;

    /** (Re)derive the cached issue metadata from the operand fields. */
    void finalizeIssueMasks();
};

} // namespace warpcomp

#endif // WARPCOMP_ISA_INSTRUCTION_HPP
