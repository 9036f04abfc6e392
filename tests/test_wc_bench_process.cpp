/**
 * @file
 * End-to-end tests of the wc_bench figure driver (WC_BENCH_BIN,
 * injected by CMake), run as a real process:
 *
 *   - a named entry prints its banner and exits 0;
 *   - a figure's stdout is byte-identical across --threads 1 vs 4;
 *   - an unknown figure name, no figure name at all, and a typo'd
 *     flag each exit 1 with a one-line diagnostic instead of running
 *     something else.
 *
 * Kept out of warpcomp_tests so the in-process suite never forks.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <sys/wait.h>
#include <unistd.h>

namespace warpcomp {
namespace {

#ifndef WC_BENCH_BIN
#error "CMake must define WC_BENCH_BIN"
#endif

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "wc_bench_" +
        std::to_string(::getpid()) + "_" + name;
}

/** Run wc_bench with @p args; stdout and stderr go to the two files.
 *  Returns the exit code (-1 on spawn failure). */
int
runBench(const std::string &args, const std::string &stdout_path,
         const std::string &stderr_path)
{
    const std::string cmd = std::string(WC_BENCH_BIN) + " " + args +
                            " >" + stdout_path + " 2>" + stderr_path;
    const int status = std::system(cmd.c_str());
    if (status < 0)
        return -1;
    if (WIFEXITED(status))
        return WEXITSTATUS(status);
    return 128 + (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(WcBenchProcess, Table1PrintsItsBanner)
{
    const std::string out = tempPath("table1.out");
    const std::string err = tempPath("table1.err");
    ASSERT_EQ(runBench("table1", out, err), 0) << slurp(err);
    const std::string text = slurp(out);
    EXPECT_EQ(text.rfind("== Chunk-size combinations ==\n"
                         "(reproduces Table 1 of Lee et al.",
                         0),
              0u)
        << text;
    EXPECT_NE(text.find("<4,0>/<4,1>/<4,2> selected"), std::string::npos);
}

TEST(WcBenchProcess, FigureIsThreadCountInvariant)
{
    const std::string one = tempPath("fig03_t1.out");
    const std::string four = tempPath("fig03_t4.out");
    const std::string err = tempPath("fig03.err");
    ASSERT_EQ(runBench("fig03 --sms=2 --only=nw --threads=1", one, err), 0)
        << slurp(err);
    ASSERT_EQ(runBench("fig03 --sms=2 --only=nw --threads=4", four, err),
              0)
        << slurp(err);
    const std::string text = slurp(one);
    EXPECT_NE(text.find("Non-divergent warp instruction ratio"),
              std::string::npos);
    EXPECT_NE(text.find("\nnw "), std::string::npos) << text;
    EXPECT_EQ(text, slurp(four));
}

TEST(WcBenchProcess, UnknownFigureListsValidNames)
{
    const std::string out = tempPath("bogus.out");
    const std::string err = tempPath("bogus.err");
    EXPECT_EQ(runBench("fig04 --sms=2 --only=nw", out, err), 1);
    const std::string msg = slurp(err);
    EXPECT_NE(msg.find("unknown argument 'fig04'"), std::string::npos)
        << msg;
    for (const char *name : {"table1", "fig02", "fig21",
                             "ablation-divergence", "comparator-rfc",
                             "all"})
        EXPECT_NE(msg.find(name), std::string::npos) << name;
    EXPECT_TRUE(slurp(out).empty());
}

TEST(WcBenchProcess, NoFigureNameExitsOne)
{
    const std::string out = tempPath("none.out");
    const std::string err = tempPath("none.err");
    EXPECT_EQ(runBench("--sms=2 --only=nw", out, err), 1);
    EXPECT_NE(slurp(err).find("usage: wc_bench"), std::string::npos);
    EXPECT_TRUE(slurp(out).empty());
}

TEST(WcBenchProcess, TypoedFlagExitsOne)
{
    const std::string out = tempPath("typo.out");
    const std::string err = tempPath("typo.err");
    EXPECT_EQ(runBench("fig03 --onyl=nw", out, err), 1);
    EXPECT_NE(slurp(err).find("unknown argument '--onyl=nw'"),
              std::string::npos);
    EXPECT_TRUE(slurp(out).empty());
    // The ROADMAP repro: a malformed value fails before anything runs.
    EXPECT_EQ(runBench("fig13 --sms=2x --onyl=nw --bogus", out, err), 1);
    EXPECT_NE(slurp(err).find("--sms must be an integer"),
              std::string::npos);
    EXPECT_TRUE(slurp(out).empty());
}

} // namespace
} // namespace warpcomp
