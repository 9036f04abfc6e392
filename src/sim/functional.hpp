/**
 * @file
 * Functional execution of one warp instruction at issue time. The
 * timing pipeline moves the access through collectors/banks/exec units,
 * but lane values are computed here, eagerly, so compression always sees
 * exact register contents (the standard functional/timing split).
 */

#ifndef WARPCOMP_SIM_FUNCTIONAL_HPP
#define WARPCOMP_SIM_FUNCTIONAL_HPP

#include <array>

#include "common/types.hpp"
#include "mem/memory.hpp"
#include "sim/warp.hpp"

namespace warpcomp {

/** Grid/block dimensions of the running launch. */
struct LaunchDims
{
    u32 blockDim = 0;   ///< threads per CTA
    u32 gridDim = 0;    ///< CTAs in the grid
};

/** What an instruction did, as needed by the timing model. */
struct ExecOutcome
{
    LaneMask effMask = 0;       ///< lanes that executed (guard applied)
    bool wroteReg = false;      ///< destination GPR updated
    bool diverged = false;      ///< branch split the warp
    bool warpFinished = false;  ///< all lanes exited
    bool isMem = false;         ///< needs the memory pipeline
    /**
     * Per-lane byte addresses for memory timing: valid for the effMask
     * lanes when isMem, and never initialized elsewhere (the coalescing
     * and bank-conflict models read only effMask lanes), so an execute
     * does not pay a 256-byte clear.
     */
    std::array<u64, kWarpSize> addrs;
};

/** Executes instructions against warp + memory functional state. */
class FunctionalExecutor
{
  public:
    FunctionalExecutor(GlobalMemory &gmem, ConstantMemory &cmem);

    /**
     * Contain out-of-range memory accesses instead of panicking: the
     * access is squashed (loads return 0, stores are dropped) and
     * counted. Used under fault injection with no tolerance policy,
     * where corrupted address registers otherwise take down the
     * simulation — on hardware that access raises a detectable memory
     * fault, so counting it as unrecoverable mirrors reality.
     */
    void enableFaultContainment() { containFaults_ = true; }

    /** Accesses squashed by fault containment. */
    u64 containedAccesses() const { return contained_; }

    /**
     * Hold global stores in @p stores, stamped with their issue cycle,
     * instead of writing them through (nullptr, the default, writes
     * through). Gpu::run arms one buffer per SM.
     */
    void armStoreBuffer(GlobalStoreBuffer *stores) { stores_ = stores; }

    /**
     * Mark every 128-byte segment each LDG and STG touches, once per
     * instruction, in @p detector (nullptr, the default, marks
     * nothing). Gpu::run arms it while SMs run ahead.
     */
    void
    armDetector(GlobalConflictDetector *detector)
    {
        detector_ = detector;
    }

    /**
     * Execute the instruction at @p pc of the warp's kernel, applying
     * guards, updating lane values and the SIMT stack (pc advance /
     * branch / exit).
     *
     * @param warp warp to execute on
     * @param pc instruction index (must equal warp.stack().pc())
     * @param smem the warp's CTA shared memory (may be null when the
     *             kernel declares none)
     * @param dims launch dimensions for S2R
     * @param now the issue cycle: stamps held stores and detector marks
     */
    ExecOutcome execute(Warp &warp, u32 pc, SharedMemory *smem,
                        const LaunchDims &dims, Cycle now = 0);

  private:
    /** True when (space, addr) lies inside its memory; only consulted
     *  with containment on. */
    bool addrValid(Opcode op, u64 addr, const SharedMemory *smem) const;

    GlobalMemory &gmem_;
    ConstantMemory &cmem_;
    GlobalStoreBuffer *stores_ = nullptr;
    GlobalConflictDetector *detector_ = nullptr;
    bool containFaults_ = false;
    u64 contained_ = 0;
};

} // namespace warpcomp

#endif // WARPCOMP_SIM_FUNCTIONAL_HPP
