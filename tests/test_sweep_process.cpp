/**
 * @file
 * End-to-end supervision tests: spawn the real bench_sweep driver
 * (WC_BENCH_SWEEP_BIN, injected by CMake) and prove the resilience
 * contract from the outside —
 *
 *   - deterministic chaos injection is recovered by retry/backoff and
 *     the merged report is byte-identical to an injury-free run;
 *   - a mid-grid death (--die-after) plus --resume yields the same
 *     bytes as an uninterrupted run, with cached points doing no
 *     simulation work (spawned == 0 on a fully-warm journal), and a
 *     cached payload the curves cannot read is fatal, naming its point;
 *   - worker count (--threads) never changes the report;
 *   - points that exhaust their attempts degrade to "failed" records
 *     while the process still exits 0;
 *   - the wall-clock watchdog reaps hung children;
 *   - the fault and SEU curves match pinned digests, also after a
 *     mid-grid death and resume;
 *   - every harness flag is honoured or rejected, never ignored.
 *
 * Every run is restricted to one cheap workload (`--only=nw --sms=2`;
 * 3 smoke points, 13 fault points, 42 SEU points) so the whole suite
 * stays fast.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>

#include "common/json_parse.hpp"
#include "common/sha256.hpp"

namespace warpcomp {
namespace {

#ifndef WC_BENCH_SWEEP_BIN
#error "CMake must define WC_BENCH_SWEEP_BIN"
#endif

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "wc_sweep_" + name;
}

/** Run bench_sweep with @p args; returns its exit code (-1 on spawn
 *  failure). stderr is routed to a file to keep test output clean. */
int
runSweep(const std::string &args, const std::string &stderr_path)
{
    const std::string cmd = std::string(WC_BENCH_SWEEP_BIN) +
                            " --only=nw --sms=2 " + args + " 2>" +
                            stderr_path;
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

std::string
sha256Of(const std::string &text)
{
    return sha256Hex(std::span<const u8>(
        reinterpret_cast<const u8 *>(text.data()), text.size()));
}

u64
statsCounter(const std::string &stats_path, const char *field)
{
    const JsonParseOutcome parsed = parseJson(slurp(stats_path));
    EXPECT_TRUE(parsed.ok()) << parsed.error;
    if (!parsed.ok())
        return 0;
    const JsonValue *v = parsed.value->find(field);
    EXPECT_NE(v, nullptr) << field;
    const auto n = v != nullptr ? v->asU64() : std::nullopt;
    EXPECT_TRUE(n.has_value()) << field;
    return n.value_or(0);
}

TEST(SweepProcess, ChaosRunMatchesCleanRunByteForByte)
{
    const std::string clean_report = tempPath("clean.json");
    const std::string clean_err = tempPath("clean.err");
    ASSERT_EQ(runSweep("--report=" + clean_report, clean_err), 0)
        << slurp(clean_err);

    // Mixed crash/hang/slow injuries at 20%: bounded retry must
    // recover every point, and because the report carries only
    // deterministic per-point data, the bytes must match exactly.
    const std::string chaos_report = tempPath("chaos.json");
    const std::string chaos_err = tempPath("chaos.err");
    const std::string chaos_stats = tempPath("chaos_stats.json");
    ASSERT_EQ(runSweep("--report=" + chaos_report +
                           " --chaos=mix,0.2,12345 --attempts=10"
                           " --timeout=5 --backoff-ms=1 --sweep-stats=" +
                           chaos_stats,
                       chaos_err),
              0)
        << slurp(chaos_err);

    EXPECT_EQ(slurp(chaos_report), slurp(clean_report));
    EXPECT_EQ(statsCounter(chaos_stats, "ok_points"), 3u);
    EXPECT_EQ(statsCounter(chaos_stats, "failed_points"), 0u);
}

TEST(SweepProcess, ChaosRetriesActuallyFire)
{
    // Crash injuries at 60% with a seed that injures at least one
    // first attempt: the retry counter must be nonzero and every point
    // must still complete. The report must STILL match a clean run
    // byte for byte — retried points may not leak attempt counts or
    // any other supervision detail into the merged output.
    const std::string clean_report = tempPath("retries_clean.json");
    const std::string err = tempPath("retries.err");
    ASSERT_EQ(runSweep("--report=" + clean_report, err), 0)
        << slurp(err);

    const std::string report = tempPath("retries.json");
    const std::string stats = tempPath("retries_stats.json");
    ASSERT_EQ(runSweep("--report=" + report +
                           " --chaos=crash,0.6,7 --attempts=20"
                           " --backoff-ms=1 --sweep-stats=" + stats,
                       err),
              0)
        << slurp(err);
    EXPECT_EQ(statsCounter(stats, "ok_points"), 3u);
    EXPECT_GT(statsCounter(stats, "retries"), 0u);
    EXPECT_GT(statsCounter(stats, "crashes"), 0u);
    EXPECT_EQ(slurp(report), slurp(clean_report));
}

TEST(SweepProcess, ResumeAfterMidGridDeathIsByteIdentical)
{
    const std::string clean_report = tempPath("resume_clean.json");
    const std::string err = tempPath("resume.err");
    ASSERT_EQ(runSweep("--report=" + clean_report, err), 0)
        << slurp(err);

    // First run dies (by _exit(3)) after checkpointing one point.
    const std::string journal = tempPath("resume.jsonl");
    std::remove(journal.c_str());
    const std::string dead_report = tempPath("resume_dead.json");
    EXPECT_EQ(runSweep("--report=" + dead_report + " --journal=" +
                           journal + " --die-after=1 --threads=1",
                       err),
              3);

    // Resume finishes the grid; merged bytes must match the clean run.
    const std::string resumed_report = tempPath("resume_done.json");
    const std::string stats = tempPath("resume_stats.json");
    ASSERT_EQ(runSweep("--report=" + resumed_report + " --resume=" +
                           journal + " --sweep-stats=" + stats,
                       err),
              0)
        << slurp(err);
    EXPECT_EQ(slurp(resumed_report), slurp(clean_report));
    // The checkpointed point was served from the journal, not re-run.
    EXPECT_GT(statsCounter(stats, "cache_hits"), 0u);
    EXPECT_LT(statsCounter(stats, "spawned"), 3u);

    // A second resume on the now-complete journal does zero work.
    const std::string warm_report = tempPath("resume_warm.json");
    const std::string warm_stats = tempPath("resume_warm_stats.json");
    ASSERT_EQ(runSweep("--report=" + warm_report + " --resume=" +
                           journal + " --sweep-stats=" + warm_stats,
                       err),
              0)
        << slurp(err);
    EXPECT_EQ(slurp(warm_report), slurp(clean_report));
    EXPECT_EQ(statsCounter(warm_stats, "spawned"), 0u);
    EXPECT_EQ(statsCounter(warm_stats, "cache_hits"), 3u);
}

TEST(SweepProcess, ResumeRejectsACachedPayloadWithoutRun)
{
    // Checkpoint one point, then strip `run` from its payload: the
    // record still parses (current version and SHA, ok with a stats
    // object), so only the cache-hit path can refuse it.
    const std::string journal = tempPath("bad_payload.jsonl");
    std::remove(journal.c_str());
    const std::string err = tempPath("bad_payload.err");
    const std::string report = tempPath("bad_payload.json");
    ASSERT_EQ(runSweep("--report=" + report + " --journal=" + journal +
                           " --die-after=1 --threads=1",
                       err),
              3);
    std::string line = slurp(journal);
    ASSERT_FALSE(line.empty());
    line.pop_back();    // the newline
    JsonParseOutcome parsed = parseJson(line);
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    JsonValue &record = *parsed.value;
    const std::string key = *record.find("key")->asString();
    // The payload is the record's last member, `stats`.
    ASSERT_EQ(record.members.back().first, "stats");
    EXPECT_EQ(std::erase_if(record.members.back().second.members,
                            [](const auto &m) { return m.first == "run"; }),
              1u);
    {
        std::ofstream os(journal, std::ios::binary | std::ios::trunc);
        JsonWriter w(os, JsonWriter::Style::Compact);
        writeJson(w, record);
        w.flush();
        os << "\n";
    }

    EXPECT_EQ(runSweep("--report=" + report + " --resume=" + journal, err),
              1);
    const std::string text = slurp(err);
    EXPECT_NE(text.find("journal record for point " + key +
                        " has a bad stats payload"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("`run`"), std::string::npos) << text;
}

TEST(SweepProcess, ThreadCountNeverChangesTheReport)
{
    const std::string one = tempPath("threads1.json");
    const std::string four = tempPath("threads4.json");
    const std::string err = tempPath("threads.err");
    ASSERT_EQ(runSweep("--report=" + one + " --threads=1", err), 0)
        << slurp(err);
    ASSERT_EQ(runSweep("--report=" + four + " --threads=4", err), 0)
        << slurp(err);
    EXPECT_EQ(slurp(one), slurp(four));
}

TEST(SweepProcess, ExhaustedPointsDegradeGracefully)
{
    // Every attempt crashes: all points must settle as "failed" with a
    // deterministic reason, and the driver still exits 0 with a
    // complete report.
    const std::string report = tempPath("failed.json");
    const std::string err = tempPath("failed.err");
    const std::string stats = tempPath("failed_stats.json");
    ASSERT_EQ(runSweep("--report=" + report +
                           " --chaos=crash,1.0,3 --attempts=2"
                           " --backoff-ms=1 --sweep-stats=" + stats,
                       err),
              0)
        << slurp(err);
    EXPECT_EQ(statsCounter(stats, "failed_points"), 3u);
    EXPECT_EQ(statsCounter(stats, "ok_points"), 0u);
    const std::string text = slurp(report);
    EXPECT_NE(text.find("\"status\": \"failed\""), std::string::npos);
    EXPECT_NE(text.find("exit code 66 after 2 attempts"),
              std::string::npos);
}

TEST(SweepProcess, WatchdogReapsHungChildren)
{
    // Every attempt hangs; a 1-second watchdog must SIGKILL each child
    // and classify the point as a timeout failure.
    const std::string report = tempPath("hang.json");
    const std::string err = tempPath("hang.err");
    const std::string stats = tempPath("hang_stats.json");
    ASSERT_EQ(runSweep("--report=" + report +
                           " --chaos=hang,1.0,5 --attempts=1"
                           " --timeout=1 --threads=3 --sweep-stats=" +
                           stats,
                       err),
              0)
        << slurp(err);
    EXPECT_EQ(statsCounter(stats, "timeouts"), 3u);
    EXPECT_EQ(statsCounter(stats, "failed_points"), 3u);
    const std::string text = slurp(report);
    EXPECT_NE(text.find("watchdog timeout"), std::string::npos);
}

// The fault and SEU curves as the retired in-process bench_fault_sweep
// and bench_seu_sweep printed them for `--sms=2 --only=nw` (the same
// at --threads=1 and 4): supervision must not change a byte.
constexpr const char *kFaultCurveSha =
    "d0f190cd1db8006ecd7250e90b54084b9f56663d42433120f2ee71af3aac97bc";
constexpr const char *kSeuCurveSha =
    "9c4f7be6c5177893dbd5da1941cfa6f2bcaaafa8308c9431cf62beeeeb8a78d3";

TEST(SweepProcess, FaultCurveMatchesPinnedDigest)
{
    const std::string out = tempPath("fault.json");
    const std::string err = tempPath("fault.err");
    for (const char *threads : {"--threads=1", "--threads=4"}) {
        ASSERT_EQ(runSweep(std::string("--grid=fault ") + threads +
                               " >" + out,
                           err),
                  0)
            << slurp(err);
        EXPECT_EQ(sha256Of(slurp(out)), kFaultCurveSha) << threads;
    }
}

TEST(SweepProcess, SeuCurveMatchesPinnedDigest)
{
    const std::string out = tempPath("seu.json");
    const std::string err = tempPath("seu.err");
    for (const char *threads : {"--threads=1", "--threads=4"}) {
        ASSERT_EQ(runSweep(std::string("--grid=seu ") + threads +
                               " >" + out,
                           err),
                  0)
            << slurp(err);
        EXPECT_EQ(sha256Of(slurp(out)), kSeuCurveSha) << threads;
    }
}

TEST(SweepProcess, FaultCurveResumesToPinnedDigest)
{
    const std::string journal = tempPath("fault_resume.jsonl");
    std::remove(journal.c_str());
    const std::string out = tempPath("fault_resume.json");
    const std::string err = tempPath("fault_resume.err");
    EXPECT_EQ(runSweep("--grid=fault --threads=1 --die-after=5"
                       " --journal=" + journal + " >" + out,
                       err),
              3);
    const std::string stats = tempPath("fault_resume_stats.json");
    ASSERT_EQ(runSweep("--grid=fault --threads=4 --resume=" + journal +
                           " --sweep-stats=" + stats + " >" + out,
                       err),
              0)
        << slurp(err);
    EXPECT_EQ(sha256Of(slurp(out)), kFaultCurveSha);
    EXPECT_EQ(statsCounter(stats, "cache_hits"), 5u);
    EXPECT_EQ(statsCounter(stats, "spawned"), 8u);
}

TEST(SweepProcess, SeedsReachTheirGrids)
{
    // Digests of the retired benches' `--fault-seed=7` / `--seu-seed=9`
    // curves, for the same `--sms=2 --only=nw`.
    const std::string out = tempPath("seeded.json");
    const std::string err = tempPath("seeded.err");
    ASSERT_EQ(runSweep("--grid=fault --fault-seed=7 >" + out, err), 0)
        << slurp(err);
    EXPECT_EQ(sha256Of(slurp(out)),
              "05288fb24e4a2fc2ad7e7846d427bb5b"
              "10e7c84ea07d2c65a321a60f030d57b4");
    ASSERT_EQ(runSweep("--grid=seu --seu-seed=9 >" + out, err), 0)
        << slurp(err);
    EXPECT_EQ(sha256Of(slurp(out)),
              "b4c53164513e06b53452798cdbe17489"
              "a8adfe9808e08b0ac12356d4bcc633a1");
}

TEST(SweepProcess, HarnessConfigFlagsReachTheBaseConfig)
{
    // --no-skip, --faults and --seu land in the base config, so every
    // smoke point's canonical spec carries them ...
    const std::string report = tempPath("flags.json");
    const std::string err = tempPath("flags.err");
    ASSERT_EQ(runSweep("--report=" + report +
                           " --no-skip --faults=1e-4,CompressRemap"
                           " --seu=1e-3,Ecc",
                       err),
              0)
        << slurp(err);
    const std::string text = slurp(report);
    for (const char *part : {"skip=0", "seurate=0.001;seuscheme=Ecc",
                             "fber=0.0001;fpolicy=CompressRemap"})
        EXPECT_NE(text.find(part), std::string::npos) << part;
    EXPECT_EQ(text.find("skip=1"), std::string::npos);

    // ... and an SEU stream under the fault grid changes its curve.
    const std::string out = tempPath("flags_fault.json");
    ASSERT_EQ(runSweep("--grid=fault --seu=1e-3,Ecc >" + out, err), 0)
        << slurp(err);
    EXPECT_NE(sha256Of(slurp(out)), kFaultCurveSha);
}

TEST(SweepProcess, InProcessOnlyFlagsAreRejected)
{
    // Trace and stats flags act on in-process suite runs; the driver
    // must refuse them in one line rather than exit 0 without the file.
    const std::string err = tempPath("rejected.err");
    for (const char *flag :
         {"--trace=t.json", "--trace-out=t.wctrace", "--trace-window=500",
          "--stats-json=s.json"}) {
        EXPECT_EQ(runSweep(std::string("--grid=fault ") + flag, err), 1)
            << flag;
        const std::string text = slurp(err);
        const std::string name(flag, std::strchr(flag, '=') - flag);
        EXPECT_NE(text.find("does not take " + name + ":"),
                  std::string::npos)
            << text;
        EXPECT_EQ(text.find('\n'), text.size() - 1) << text;
    }
}

} // namespace
} // namespace warpcomp
