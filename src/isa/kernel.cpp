#include "isa/kernel.hpp"

#include "common/log.hpp"

namespace warpcomp {

Kernel::Kernel(std::string name, u32 num_regs, u32 num_preds,
               u32 smem_bytes)
    : name_(std::move(name)), numRegs_(num_regs), numPreds_(num_preds),
      smemBytes_(smem_bytes)
{
    WC_ASSERT(num_regs <= kMaxRegsPerThread,
              "kernel " << name_ << " declares too many registers");
    WC_ASSERT(num_preds <= kMaxPredsPerThread,
              "kernel " << name_ << " declares too many predicates");
}

u32
Kernel::append(const Instruction &inst)
{
    code_.push_back(inst);
    Instruction &stored = code_.back();
    stored.finalizeIssueMasks();
    // The issue path reads the decoded sources and masks only from
    // stored instructions; an unfinalized one would read as sourceless.
    WC_ASSERT(stored.finalized, "kernel " << name_ << " stored an "
              "unfinalized " << opcodeName(stored.op));
    return static_cast<u32>(code_.size()) - 1;
}

void
Kernel::validate() const
{
    WC_ASSERT(!code_.empty(), "kernel " << name_ << " has no code");
    WC_ASSERT(code_.back().isExit(),
              "kernel " << name_ << " must end with EXIT");

    auto check_reg = [&](u8 r, u32 pc) {
        if (r != kNoReg) {
            WC_ASSERT(r < numRegs_, "kernel " << name_ << " pc " << pc
                      << " uses r" << static_cast<int>(r)
                      << " beyond declared " << numRegs_);
        }
    };
    auto check_pred = [&](u8 p, u32 pc) {
        if (p != kNoPred) {
            WC_ASSERT(p < numPreds_, "kernel " << name_ << " pc " << pc
                      << " uses p" << static_cast<int>(p)
                      << " beyond declared " << numPreds_);
        }
    };

    for (u32 pc = 0; pc < code_.size(); ++pc) {
        const Instruction &in = code_[pc];
        if (in.hasDst())
            check_reg(in.dst, pc);
        for (const Operand &o : in.src) {
            if (o.isReg())
                check_reg(o.reg, pc);
        }
        check_pred(in.guardPred, pc);
        check_pred(in.dstPred, pc);
        check_pred(in.srcPred, pc);
        check_pred(in.srcPred2, pc);
        if (in.isBranch()) {
            WC_ASSERT(in.target < code_.size(), "kernel " << name_
                      << " pc " << pc << " branch target out of range");
            WC_ASSERT(in.reconv <= code_.size(), "kernel " << name_
                      << " pc " << pc << " reconvergence out of range");
        }
    }
}

} // namespace warpcomp
