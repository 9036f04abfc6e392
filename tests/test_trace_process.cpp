/**
 * @file
 * End-to-end trace-analytics tests: spawn the real run_kernel driver
 * (WC_RUN_KERNEL_BIN) with --trace-out and the wc_trace analyzer
 * (WC_TRACE_BIN, both injected by CMake) and prove the observability
 * contract from the outside —
 *
 *   - a streamed dump is byte-identical across --threads 1 vs 4, and
 *     so is every analyzer report derived from it;
 *   - `wc_trace export --chrome` re-emits the same bytes the live
 *     --trace path wrote during the run (one source of truth);
 *   - every subcommand exits 0 on a good dump and emits valid JSON;
 *   - a truncated dump makes the analyzer exit 1 with a structured
 *     machine-readable diagnostic, never a crash;
 *   - usage errors exit 2.
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

#include "common/json_parse.hpp"

namespace warpcomp {
namespace {

#ifndef WC_RUN_KERNEL_BIN
#error "CMake must define WC_RUN_KERNEL_BIN"
#endif
#ifndef WC_TRACE_BIN
#error "CMake must define WC_TRACE_BIN"
#endif

/** Per-process path: ctest runs each test in its own process, in
 *  parallel, and every process produces its own reference dump. */
std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "wc_trace_proc_" +
        std::to_string(::getpid()) + "_" + name;
}

int
runCommand(const std::string &cmd)
{
    const int status = std::system(cmd.c_str());
    if (status < 0)
        return -1;
    if (WIFEXITED(status))
        return WEXITSTATUS(status);
    return 128 + (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
}

/** run_kernel on the cheap nw workload with @p args appended. */
int
runKernel(const std::string &args, const std::string &stderr_path)
{
    return runCommand(std::string(WC_RUN_KERNEL_BIN) +
                      " --only=nw --sms=2 " + args + " >/dev/null 2>" +
                      stderr_path);
}

int
runAnalyzer(const std::string &args, const std::string &stdout_path,
            const std::string &stderr_path)
{
    return runCommand(std::string(WC_TRACE_BIN) + " " + args + " >" +
                      stdout_path + " 2>" + stderr_path);
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

void
spit(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(os.good()) << path;
    os.write(bytes.data(),
             static_cast<std::streamsize>(bytes.size()));
}

/** The shared streamed run: dump + live Chrome trace, produced once. */
const std::string &
referenceDump()
{
    static const std::string dump = [] {
        const std::string path = tempPath("ref.wctrace");
        const std::string err = tempPath("ref.err");
        EXPECT_EQ(runKernel("--trace-out=" + path + " --trace=" +
                                tempPath("ref_live.json"),
                            err),
                  0)
            << slurp(err);
        return path;
    }();
    return dump;
}

TEST(TraceProcess, DumpAndReportsIdenticalAcrossThreadCounts)
{
    const std::string t1 = tempPath("t1.wctrace");
    const std::string t4 = tempPath("t4.wctrace");
    const std::string err = tempPath("threads.err");
    ASSERT_EQ(runKernel("--threads=1 --trace-out=" + t1, err), 0)
        << slurp(err);
    ASSERT_EQ(runKernel("--threads=4 --trace-out=" + t4, err), 0)
        << slurp(err);
    EXPECT_EQ(slurp(t1), slurp(t4));

    for (const char *sub : {"summary", "heatmap", "stalls",
                            "decisions"}) {
        const std::string r1 = tempPath(std::string(sub) + "_t1.json");
        const std::string r4 = tempPath(std::string(sub) + "_t4.json");
        ASSERT_EQ(runAnalyzer(std::string(sub) + " " + t1, r1,
                              tempPath("a.err")),
                  0)
            << sub;
        ASSERT_EQ(runAnalyzer(std::string(sub) + " " + t4, r4,
                              tempPath("a.err")),
                  0)
            << sub;
        EXPECT_EQ(slurp(r1), slurp(r4)) << sub;
    }
}

TEST(TraceProcess, ChromeExportMatchesLiveTraceByteForByte)
{
    const std::string &dump = referenceDump();
    const std::string replay = tempPath("replay.json");
    ASSERT_EQ(runAnalyzer("export --chrome " + dump + " -o " + replay,
                          tempPath("exp.out"), tempPath("exp.err")),
              0);
    EXPECT_EQ(slurp(replay), slurp(tempPath("ref_live.json")))
        << "wc_trace export --chrome diverged from the live --trace "
           "file of the same run";
}

TEST(TraceProcess, AllSubcommandsEmitValidJson)
{
    const std::string &dump = referenceDump();
    for (const char *sub : {"summary", "heatmap", "stalls", "decisions",
                            "export --chrome"}) {
        const std::string out = tempPath("valid.json");
        const std::string err = tempPath("valid.err");
        ASSERT_EQ(runAnalyzer(std::string(sub) + " " + dump, out, err),
                  0)
            << sub << ": " << slurp(err);
        const JsonParseOutcome parsed = parseJson(slurp(out));
        EXPECT_TRUE(parsed.ok()) << sub << ": " << parsed.error;
    }
}

TEST(TraceProcess, TruncatedDumpExitsOneWithStructuredDiagnostic)
{
    const std::string good = slurp(referenceDump());
    ASSERT_GT(good.size(), 64u);
    const std::string torn = tempPath("torn.wctrace");
    spit(torn, good.substr(0, good.size() - 20));

    for (const char *sub : {"summary", "heatmap", "stalls", "decisions"}) {
        const std::string out = tempPath("torn.out");
        const std::string err = tempPath("torn.err");
        EXPECT_EQ(runAnalyzer(std::string(sub) + " " + torn, out, err),
                  1)
            << sub;
        const JsonParseOutcome parsed = parseJson(slurp(err));
        ASSERT_TRUE(parsed.ok()) << sub << ": diagnostic is not JSON: "
                                 << slurp(err);
        const JsonValue *code = parsed.value->find("error");
        ASSERT_NE(code, nullptr) << sub;
        ASSERT_NE(code->asString(), nullptr) << sub;
        EXPECT_EQ(*code->asString(), "truncated_dump") << sub;
        EXPECT_NE(parsed.value->find("detail"), nullptr) << sub;
    }
}

TEST(TraceProcess, MissingFileAndUsageErrors)
{
    const std::string out = tempPath("usage.out");
    const std::string err = tempPath("usage.err");
    EXPECT_EQ(runAnalyzer("summary " + tempPath("no_such.wctrace"),
                          out, err),
              1);
    const JsonParseOutcome parsed = parseJson(slurp(err));
    ASSERT_TRUE(parsed.ok()) << slurp(err);
    EXPECT_EQ(*parsed.value->find("error")->asString(), "open_failed");

    EXPECT_EQ(runAnalyzer("frobnicate " + referenceDump(), out, err),
              2);
    EXPECT_EQ(runAnalyzer("export " + referenceDump(), out, err), 2)
        << "export without --chrome must be a usage error";
    EXPECT_EQ(runCommand(std::string(WC_TRACE_BIN) + " >/dev/null 2>&1"),
              2);
}

TEST(TraceProcess, TraceOutWithoutOnlyIsFatal)
{
    const std::string err = tempPath("noonly.err");
    EXPECT_EQ(runCommand(std::string(WC_RUN_KERNEL_BIN) +
                         " --kernel=examples/kernels/vecadd.hex"
                         " --trace-out=" +
                         tempPath("noonly.wctrace") + " >/dev/null 2>" +
                         err),
              1);
}

} // namespace
} // namespace warpcomp
