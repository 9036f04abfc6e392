#include "isa/instruction.hpp"

#include "common/log.hpp"

namespace warpcomp {

void
Instruction::finalizeIssueMasks()
{
    u64 regs = 0;
    for (const Operand &o : src) {
        if (o.isReg())
            regs |= u64{1} << o.reg;
    }
    if (hasDst())
        regs |= u64{1} << dst;
    sbRegMask = regs;

    // Distinct register sources, first occurrence wins (IMAD r, a, a, b
    // reads a once).
    srcRegs = {kNoReg, kNoReg, kNoReg};
    numSrcRegs = 0;
    for (const Operand &o : src) {
        if (!o.isReg())
            continue;
        bool dup = false;
        for (u32 j = 0; j < numSrcRegs; ++j)
            dup = dup || srcRegs[j] == o.reg;
        if (!dup)
            srcRegs[numSrcRegs++] = o.reg;
    }

    u8 preds = 0;
    const auto add_pred = [&preds](u8 p) {
        if (p != kNoPred)
            preds |= static_cast<u8>(1u << p);
    };
    add_pred(guardPred);
    add_pred(srcPred);
    add_pred(srcPred2);
    add_pred(dstPred);
    sbPredMask = preds;

    // Control-only instructions never occupy a collector / exec slot.
    sbPipeline = !(op == Opcode::Bra || op == Opcode::Bar ||
                   op == Opcode::Exit || op == Opcode::Nop);
    sbMemory = isMemory();
    finalized = true;
}

} // namespace warpcomp
