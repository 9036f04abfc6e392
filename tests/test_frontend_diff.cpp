/**
 * @file
 * Differential suite for the two kernel frontends: every checked-in
 * RV32 example image must translate to the exact instruction stream
 * its hand-written DSL twin emits (disassembly equality), and running
 * both through the full timing model must produce bit-identical
 * figure-level stats — serially and on the parallel runner. Any drift
 * in the translator, the builder, or the examples breaks this suite.
 *
 * WC_KERNEL_DIR points at the source-tree examples/kernels directory
 * (set in tests/CMakeLists.txt).
 */

#include <gtest/gtest.h>

#include "frontend/frontend.hpp"
#include "frontend/twins.hpp"
#include "harness/experiment.hpp"
#include "isa/disasm.hpp"

using namespace warpcomp;

namespace {

/// One image/twin pair: the image is `<twin>.hex` under WC_KERNEL_DIR.
/// The name is held inline, not through a pointer: gtest prints a
/// parameter type without a printer as its raw bytes, and those bytes
/// go into the listed test name, so a pointer would tie the names to
/// where the linker happened to place the string literals.
struct Pair
{
    char twin[16]; ///< registry name of the DSL twin
};

const Pair kPairs[] = {
    {"vecadd"},
    {"saxpy"},
    {"reduction"},
};

std::string
imagePath(const Pair &p)
{
    return std::string(WC_KERNEL_DIR) + "/" + p.twin + ".hex";
}

class FrontendDiff : public ::testing::TestWithParam<Pair>
{
};

} // namespace

TEST_P(FrontendDiff, DisassemblyMatchesTwin)
{
    const Pair p = GetParam();
    const KernelLoadResult r = loadKernelFile(imagePath(p));
    ASSERT_TRUE(r.ok()) << r.error;

    const WorkloadInstance twin = makeWorkload(p.twin, 1, 0);
    // Full-listing equality: same name/regs/preds/smem header and the
    // same instruction stream, operand for operand.
    EXPECT_EQ(disassemble(r.loaded->kernel), disassemble(twin.kernel));
    EXPECT_EQ(r.loaded->blockDim, twin.dims.blockDim);
}

TEST_P(FrontendDiff, FigureStatsAreBitIdentical)
{
    const Pair p = GetParam();
    ExperimentConfig cfg;
    cfg.numSms = 2; // keep the differential fast; identical for both

    const auto res = runWorkloadsParallel(
        {kernelFileSpec(imagePath(p), ""), p.twin}, cfg, 1);
    ASSERT_EQ(res.size(), 2u);
    const RunResult &bin = res[0].run;
    const RunResult &dsl = res[1].run;

    EXPECT_EQ(res[0].frontend, "rv32");
    EXPECT_EQ(res[0].imageSha.size(), 64u);
    EXPECT_EQ(res[1].frontend, "dsl");
    EXPECT_TRUE(res[1].imageSha.empty());

    // Exact equality, not tolerance: the two frontends execute the
    // same instruction stream, so every figure-level number matches
    // to the bit.
    EXPECT_EQ(bin.cycles, dsl.cycles);
    EXPECT_EQ(bin.stats.issued, dsl.stats.issued);
    EXPECT_EQ(bin.stats.regWrites, dsl.stats.regWrites);
    EXPECT_EQ(bin.stats.dummyMovs, dsl.stats.dummyMovs);
    EXPECT_EQ(bin.stats.ratio.overallRatio(), dsl.stats.ratio.overallRatio());
    EXPECT_EQ(bin.meter.breakdown().totalPj(), dsl.meter.breakdown().totalPj());
}

TEST_P(FrontendDiff, ParallelRunnerIsThreadCountInvariant)
{
    const Pair p = GetParam();
    ExperimentConfig cfg;
    cfg.numSms = 2;

    const std::vector<std::string> names = {
        kernelFileSpec(imagePath(p), "")};
    const auto serial = runWorkloadsParallel(names, cfg, 1);
    const auto threaded = runWorkloadsParallel(names, cfg, 4);
    ASSERT_EQ(serial.size(), 1u);
    ASSERT_EQ(threaded.size(), 1u);
    EXPECT_EQ(serial[0].run.cycles, threaded[0].run.cycles);
    EXPECT_EQ(serial[0].run.stats.issued, threaded[0].run.stats.issued);
    EXPECT_EQ(serial[0].run.meter.breakdown().totalPj(),
              threaded[0].run.meter.breakdown().totalPj());
    EXPECT_EQ(serial[0].imageSha, threaded[0].imageSha);
}

INSTANTIATE_TEST_SUITE_P(
    AllExampleKernels, FrontendDiff, ::testing::ValuesIn(kPairs),
    [](const ::testing::TestParamInfo<Pair> &info) {
        return std::string(info.param.twin);
    });
