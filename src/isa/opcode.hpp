/**
 * @file
 * Opcode set for the SASS-like SIMT ISA executed by the warpcomp SM model.
 *
 * The set is deliberately close to the integer/FP/memory/control core of
 * NVIDIA SASS so that the register traffic of ported Rodinia/Parboil
 * kernels matches the originals: every value a kernel materializes flows
 * through a 32-bit architectural register exactly as it would on hardware.
 */

#ifndef WARPCOMP_ISA_OPCODE_HPP
#define WARPCOMP_ISA_OPCODE_HPP

#include "common/log.hpp"
#include "common/types.hpp"

namespace warpcomp {

/** Instruction opcodes. */
enum class Opcode : u8 {
    Nop,

    // Data movement
    S2R,        ///< read special register (tid, ctaid, ...)
    Mov,        ///< register-to-register move
    MovImm,     ///< 32-bit immediate load

    // Integer arithmetic / logic
    IAdd, ISub, IMul, IMad, IMin, IMax, IAbs,
    And, Or, Xor, Not, Shl, Shr, Sra,

    // Integer multiply-high / divide / remainder (RV32M binary
    // frontend surface; RISC-V semantics: x/0 = -1, x%0 = x,
    // INT_MIN/-1 = INT_MIN with remainder 0).
    IMulHi,     ///< signed 32x32 -> upper 32 bits
    IMulHiU,    ///< unsigned 32x32 -> upper 32 bits
    IDiv,       ///< signed quotient
    IDivU,      ///< unsigned quotient
    IRem,       ///< signed remainder
    IRemU,      ///< unsigned remainder

    // Predicates and select
    ISetP,      ///< integer compare, writes a predicate
    SelP,       ///< dst = srcPred ? src0 : src1
    PAnd,       ///< dstPred = srcPred & srcPred2
    POr,        ///< dstPred = srcPred | srcPred2
    PNot,       ///< dstPred = !srcPred

    // Floating point (IEEE-754 binary32 carried in 32-bit registers)
    FAdd, FMul, FFma, FMin, FMax, FSetP, I2F, F2I, FRcp,

    // Memory
    Ldg,        ///< global load,  dst   = [src0 + imm]
    Stg,        ///< global store, [src0 + imm] = src1
    Lds,        ///< shared load
    Sts,        ///< shared store
    Ldc,        ///< constant-bank load

    // Control
    Bra,        ///< (optionally guarded) branch; divergence point
    Bar,        ///< CTA-wide barrier
    Exit,       ///< thread exit

    NumOpcodes
};

/** Integer / FP comparison operators for ISetP / FSetP. */
enum class CmpOp : u8 { Lt, Le, Gt, Ge, Eq, Ne };

/** Special registers readable through S2R. */
enum class SpecialReg : u8 {
    TidX,       ///< thread index within the CTA
    CtaIdX,     ///< CTA (block) index within the grid
    NTidX,      ///< CTA size in threads
    NCtaIdX,    ///< grid size in CTAs
    LaneId      ///< lane index within the warp
};

/** Execution-resource class an opcode dispatches to. */
enum class ExecClass : u8 {
    Alu,        ///< simple integer / logic, 4-cycle latency
    Mul,        ///< integer multiply / mad, 6-cycle latency
    Fpu,        ///< floating point, 6-cycle latency
    Mem,        ///< memory pipeline, variable latency
    Ctrl        ///< branches / barriers / exit, 2-cycle latency
};

/** Mnemonic string for disassembly. */
const char *opcodeName(Opcode op);

/** Resource class the opcode executes on. */
inline ExecClass
execClass(Opcode op)
{
    switch (op) {
      case Opcode::Nop:
      case Opcode::S2R:
      case Opcode::Mov:
      case Opcode::MovImm:
      case Opcode::IAdd:
      case Opcode::ISub:
      case Opcode::IMin:
      case Opcode::IMax:
      case Opcode::IAbs:
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor:
      case Opcode::Not:
      case Opcode::Shl:
      case Opcode::Shr:
      case Opcode::Sra:
      case Opcode::ISetP:
      case Opcode::SelP:
      case Opcode::PAnd:
      case Opcode::POr:
      case Opcode::PNot:
        return ExecClass::Alu;
      case Opcode::IMul:
      case Opcode::IMad:
      case Opcode::IMulHi:
      case Opcode::IMulHiU:
      case Opcode::IDiv:
      case Opcode::IDivU:
      case Opcode::IRem:
      case Opcode::IRemU:
        return ExecClass::Mul;
      case Opcode::FAdd:
      case Opcode::FMul:
      case Opcode::FFma:
      case Opcode::FMin:
      case Opcode::FMax:
      case Opcode::FSetP:
      case Opcode::I2F:
      case Opcode::F2I:
      case Opcode::FRcp:
        return ExecClass::Fpu;
      case Opcode::Ldg:
      case Opcode::Stg:
      case Opcode::Lds:
      case Opcode::Sts:
      case Opcode::Ldc:
        return ExecClass::Mem;
      case Opcode::Bra:
      case Opcode::Bar:
      case Opcode::Exit:
        return ExecClass::Ctrl;
      default:
        WC_PANIC("unknown opcode " << static_cast<int>(op));
    }
}

/** Result latency in cycles for non-memory classes. */
inline u32
execLatency(ExecClass cls)
{
    switch (cls) {
      case ExecClass::Alu: return 4;
      case ExecClass::Mul: return 6;
      case ExecClass::Fpu: return 6;
      case ExecClass::Ctrl: return 2;
      case ExecClass::Mem: return 0; // determined by the memory model
      default: WC_PANIC("unknown exec class");
    }
}

/** True when the opcode writes a general-purpose destination register. */
inline bool
writesGpr(Opcode op)
{
    switch (op) {
      case Opcode::S2R:
      case Opcode::Mov:
      case Opcode::MovImm:
      case Opcode::IAdd:
      case Opcode::ISub:
      case Opcode::IMul:
      case Opcode::IMad:
      case Opcode::IMin:
      case Opcode::IMax:
      case Opcode::IAbs:
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor:
      case Opcode::Not:
      case Opcode::Shl:
      case Opcode::Shr:
      case Opcode::Sra:
      case Opcode::IMulHi:
      case Opcode::IMulHiU:
      case Opcode::IDiv:
      case Opcode::IDivU:
      case Opcode::IRem:
      case Opcode::IRemU:
      case Opcode::SelP:
      case Opcode::FAdd:
      case Opcode::FMul:
      case Opcode::FFma:
      case Opcode::FMin:
      case Opcode::FMax:
      case Opcode::I2F:
      case Opcode::F2I:
      case Opcode::FRcp:
      case Opcode::Ldg:
      case Opcode::Lds:
      case Opcode::Ldc:
        return true;
      default:
        return false;
    }
}

/** True when the opcode writes a predicate register. */
bool writesPred(Opcode op);

/** Mnemonic for a comparison operator. */
const char *cmpName(CmpOp op);

/** Mnemonic for a special register. */
const char *sregName(SpecialReg sr);

} // namespace warpcomp

#endif // WARPCOMP_ISA_OPCODE_HPP
