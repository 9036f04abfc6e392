/**
 * @file
 * Workload abstraction: a kernel ported to the warpcomp ISA together
 * with its initialized memory image and launch dimensions. The fifteen
 * workloads mirror the register-value behaviour of the Rodinia /
 * Parboil / GPGPU-Sim benchmarks the paper evaluates (see DESIGN.md
 * substitution table).
 */

#ifndef WARPCOMP_WORKLOADS_WORKLOAD_HPP
#define WARPCOMP_WORKLOADS_WORKLOAD_HPP

#include <memory>
#include <string>

#include "isa/builder.hpp"
#include "mem/memory.hpp"
#include "sim/functional.hpp"

namespace warpcomp {

/** A ready-to-run workload: kernel + inputs + launch shape. */
struct WorkloadInstance
{
    std::string name;
    Kernel kernel;
    LaunchDims dims;
    std::unique_ptr<GlobalMemory> gmem;
    std::unique_ptr<ConstantMemory> cmem;
    /** Which frontend produced the kernel: "dsl" (KernelBuilder
     *  workloads) or "rv32" (binary images via `--kernel`). */
    std::string frontend = "dsl";
    /** SHA-256 of the binary image for "rv32" kernels; empty for DSL.
     *  Defaulted here so the workloads' `return {name, kernel, dims,
     *  gmem, cmem}` leaves it empty without a missing-initializer
     *  warning. */
    std::string imageSha{};
};

/** Load 32-bit kernel parameter @p index from the constant bank. */
inline Reg
loadParam(KernelBuilder &b, u32 index)
{
    Reg r = b.newReg();
    b.ldc(r, KernelBuilder::imm(0), static_cast<i32>(index * 4));
    return r;
}

/** Push a buffer base address as a kernel parameter (32-bit space). */
u32 pushAddr(ConstantMemory &cmem, u64 addr);

} // namespace warpcomp

#endif // WARPCOMP_WORKLOADS_WORKLOAD_HPP
