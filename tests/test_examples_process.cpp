/**
 * @file
 * End-to-end tests of the example programs (paths injected by CMake),
 * run as real processes:
 *
 *   - a clean run exits 0, and any argument an example cannot act on
 *     exits 1 with a one-line diagnostic;
 *   - design_space_tour applies the run-shaping harness flags to the
 *     configs it runs, so `--sms=2` changes what it prints.
 *
 * Kept out of warpcomp_tests so the in-process suite never forks.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include <sys/wait.h>
#include <unistd.h>

namespace warpcomp {
namespace {

#if !defined(WC_QUICKSTART_BIN) || !defined(WC_PATHFINDER_DEMO_BIN) ||     \
    !defined(WC_CUSTOM_KERNEL_BIN) || !defined(WC_DESIGN_SPACE_TOUR_BIN)
#error "CMake must define the WC_*_BIN example paths"
#endif

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "examples_" +
        std::to_string(::getpid()) + "_" + name;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** What one run of an example left behind. */
struct ExampleRun
{
    int exitCode = -1;
    std::string out;
    std::string err;
};

ExampleRun
runExample(const char *bin, const std::string &args)
{
    const std::string out = tempPath("out");
    const std::string err = tempPath("err");
    const std::string cmd =
        std::string(bin) + " " + args + " >" + out + " 2>" + err;
    const int status = std::system(cmd.c_str());
    ExampleRun run;
    if (status >= 0 && WIFEXITED(status))
        run.exitCode = WEXITSTATUS(status);
    run.out = slurp(out);
    run.err = slurp(err);
    return run;
}

/** Exit 0 on @p args, exit 1 with one line on an unknown argument. */
void
expectCleanAndStrict(const char *bin, const std::string &args)
{
    const ExampleRun clean = runExample(bin, args);
    EXPECT_EQ(clean.exitCode, 0) << bin << " " << args << "\n" << clean.err;
    EXPECT_FALSE(clean.out.empty()) << bin;

    const ExampleRun bogus = runExample(bin, args + " --bogus");
    EXPECT_EQ(bogus.exitCode, 1) << bin;
    EXPECT_NE(bogus.err.find("unknown argument '--bogus'"),
              std::string::npos)
        << bogus.err;
    EXPECT_EQ(bogus.err.find('\n'), bogus.err.size() - 1) << bogus.err;
}

TEST(ExamplesProcess, Quickstart)
{
    expectCleanAndStrict(WC_QUICKSTART_BIN, "");
}

TEST(ExamplesProcess, PathfinderDemo)
{
    expectCleanAndStrict(WC_PATHFINDER_DEMO_BIN, "");
}

TEST(ExamplesProcess, CustomKernel)
{
    expectCleanAndStrict(WC_CUSTOM_KERNEL_BIN, "");
}

TEST(ExamplesProcess, DesignSpaceTour)
{
    expectCleanAndStrict(WC_DESIGN_SPACE_TOUR_BIN, "--only=nw");

    // The run-shaping flags reach every config the tour runs.
    const ExampleRun plain =
        runExample(WC_DESIGN_SPACE_TOUR_BIN, "--only=nw");
    const ExampleRun two_sms =
        runExample(WC_DESIGN_SPACE_TOUR_BIN, "--only=nw --sms=2");
    ASSERT_EQ(two_sms.exitCode, 0) << two_sms.err;
    EXPECT_NE(plain.out, two_sms.out);

    // Flags the tour parses but cannot act on are refused.
    for (const char *flag :
         {"--kernel=k.hex", "--trace=t.json", "--trace-out=t.wctrace",
          "--trace-window=500", "--stats-json=s.json"}) {
        const ExampleRun run = runExample(WC_DESIGN_SPACE_TOUR_BIN,
                                   std::string("--only=nw ") + flag);
        EXPECT_EQ(run.exitCode, 1) << flag;
        const std::string name(flag, std::strchr(flag, '=') - flag);
        EXPECT_NE(run.err.find("does not take " + name + ":"),
                  std::string::npos)
            << run.err;
    }
}

} // namespace
} // namespace warpcomp
