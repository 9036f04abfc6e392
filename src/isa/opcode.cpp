#include "isa/opcode.hpp"

#include "common/log.hpp"

namespace warpcomp {

const char *
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::Nop: return "NOP";
      case Opcode::S2R: return "S2R";
      case Opcode::Mov: return "MOV";
      case Opcode::MovImm: return "MOV32I";
      case Opcode::IAdd: return "IADD";
      case Opcode::ISub: return "ISUB";
      case Opcode::IMul: return "IMUL";
      case Opcode::IMad: return "IMAD";
      case Opcode::IMin: return "IMIN";
      case Opcode::IMax: return "IMAX";
      case Opcode::IAbs: return "IABS";
      case Opcode::And: return "AND";
      case Opcode::Or: return "OR";
      case Opcode::Xor: return "XOR";
      case Opcode::Not: return "NOT";
      case Opcode::Shl: return "SHL";
      case Opcode::Shr: return "SHR";
      case Opcode::Sra: return "SRA";
      case Opcode::IMulHi: return "IMULHI";
      case Opcode::IMulHiU: return "IMULHI.U";
      case Opcode::IDiv: return "IDIV";
      case Opcode::IDivU: return "IDIV.U";
      case Opcode::IRem: return "IREM";
      case Opcode::IRemU: return "IREM.U";
      case Opcode::ISetP: return "ISETP";
      case Opcode::SelP: return "SELP";
      case Opcode::PAnd: return "PAND";
      case Opcode::POr: return "POR";
      case Opcode::PNot: return "PNOT";
      case Opcode::FAdd: return "FADD";
      case Opcode::FMul: return "FMUL";
      case Opcode::FFma: return "FFMA";
      case Opcode::FMin: return "FMIN";
      case Opcode::FMax: return "FMAX";
      case Opcode::FSetP: return "FSETP";
      case Opcode::I2F: return "I2F";
      case Opcode::F2I: return "F2I";
      case Opcode::FRcp: return "FRCP";
      case Opcode::Ldg: return "LDG";
      case Opcode::Stg: return "STG";
      case Opcode::Lds: return "LDS";
      case Opcode::Sts: return "STS";
      case Opcode::Ldc: return "LDC";
      case Opcode::Bra: return "BRA";
      case Opcode::Bar: return "BAR";
      case Opcode::Exit: return "EXIT";
      default: WC_PANIC("unknown opcode " << static_cast<int>(op));
    }
}

bool
writesPred(Opcode op)
{
    switch (op) {
      case Opcode::ISetP:
      case Opcode::FSetP:
      case Opcode::PAnd:
      case Opcode::POr:
      case Opcode::PNot:
        return true;
      default:
        return false;
    }
}

const char *
cmpName(CmpOp op)
{
    switch (op) {
      case CmpOp::Lt: return "LT";
      case CmpOp::Le: return "LE";
      case CmpOp::Gt: return "GT";
      case CmpOp::Ge: return "GE";
      case CmpOp::Eq: return "EQ";
      case CmpOp::Ne: return "NE";
      default: WC_PANIC("unknown cmp op");
    }
}

const char *
sregName(SpecialReg sr)
{
    switch (sr) {
      case SpecialReg::TidX: return "SR_TID.X";
      case SpecialReg::CtaIdX: return "SR_CTAID.X";
      case SpecialReg::NTidX: return "SR_NTID.X";
      case SpecialReg::NCtaIdX: return "SR_NCTAID.X";
      case SpecialReg::LaneId: return "SR_LANEID";
      default: WC_PANIC("unknown special register");
    }
}

} // namespace warpcomp
