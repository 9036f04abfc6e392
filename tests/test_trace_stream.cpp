/**
 * @file
 * Streaming trace export + offline analytics: dump round-trip against
 * the live run, byte-identity across reruns / thread counts / ring
 * configurations, live-vs-offline Perfetto convergence, structured
 * truncation/corruption detection (a dump cut at every byte, a header
 * followed by a sparse hole the loader must not hold in memory), and
 * determinism of every analyzer report. The dumps come from real
 * runWorkload runs so the whole pipeline (harness sink arming →
 * simulator hooks → writer → loader → reports) is exercised, not just
 * the codec.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/json_parse.hpp"
#include "harness/experiment.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/trace_analyze.hpp"
#include "obs/trace_stream.hpp"
#include "sim/arbiter.hpp"

namespace warpcomp {
namespace {

/** Per-process scratch path: ctest runs each test in its own process,
 *  in parallel, and each one writes its own reference dump. */
std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "wc_trace_" + std::to_string(getpid()) +
        "_" + name;
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

/** @p dump with the integer member @p key of its header JSON set to
 *  @p value, and the header length field to match. */
std::string
withHeaderField(const std::string &dump, const std::string &key,
                u64 value)
{
    u32 json_len = 0;
    for (int i = 0; i < 4; ++i)
        json_len |= u32{static_cast<u8>(dump[12 + i])} << (8 * i);
    std::string json = dump.substr(16, json_len);
    const std::string member = "\"" + key + "\":";
    const std::size_t at = json.find(member);
    EXPECT_NE(at, std::string::npos) << key;
    if (at == std::string::npos)
        return dump;
    const std::size_t from = at + member.size();
    const std::size_t to = json.find_first_not_of("0123456789", from);
    json.replace(from, to - from, std::to_string(value));
    std::string out = dump.substr(0, 12);
    for (int i = 0; i < 4; ++i)
        out += static_cast<char>((json.size() >> (8 * i)) & 0xFF);
    return out + json + dump.substr(16 + json_len);
}

ExperimentConfig
streamedConfig(const std::string &dump_path, bool ring_too)
{
    ExperimentConfig cfg;
    cfg.numSms = 2;
    cfg.obs.trace = ring_too;
    cfg.obs.windowInterval = 500;
    cfg.obs.streamPath = dump_path;
    cfg.obs.streamLabel = "stream-test";
    return cfg;
}

/** One streamed reference run, shared across tests (runWorkload is the
 *  expensive part; every consumer only reads). */
struct StreamedRun
{
    std::string dumpPath;
    ExperimentResult result;
};

const StreamedRun &
streamedRun()
{
    static const StreamedRun run = [] {
        const std::string path = tempPath("roundtrip.wctrace");
        return StreamedRun{path,
                           runWorkload("nw", streamedConfig(path, true))};
    }();
    return run;
}

TEST(TraceStream, RoundTripMatchesLiveRun)
{
    const StreamedRun &run = streamedRun();
    ASSERT_NE(run.result.run.obs, nullptr);
    const ObsRun &obs = *run.result.run.obs;
    ASSERT_EQ(obs.ring().dropped(), 0u)
        << "reference run overflowed the ring; enlarge ringCapacity";

    TraceDumpError err;
    const auto dump = loadTraceDump(run.dumpPath, &err);
    ASSERT_TRUE(dump.has_value()) << err.code << ": " << err.detail;

    EXPECT_EQ(dump->meta.workload, "nw");
    EXPECT_EQ(dump->meta.config, "stream-test");
    EXPECT_EQ(dump->meta.frontend, "dsl");
    EXPECT_EQ(dump->meta.gitSha, traceStreamGitSha());
    EXPECT_EQ(dump->meta.numSms, 2u);
    EXPECT_EQ(dump->meta.windowInterval, 500u);
    EXPECT_EQ(dump->cycles, run.result.run.cycles);

    // The dump holds exactly the ring's events, in order.
    ASSERT_EQ(dump->events.size(), obs.ring().size());
    EXPECT_EQ(dump->events.size(), obs.streamedEvents());
    EXPECT_GT(dump->events.size(), 0u);
    for (std::size_t i = 0; i < dump->events.size(); ++i) {
        const TraceEvent &a = dump->events[i];
        const TraceEvent &b = obs.ring().at(i);
        ASSERT_EQ(a.cycle, b.cycle) << "event " << i;
        ASSERT_EQ(a.a, b.a) << "event " << i;
        ASSERT_EQ(a.b, b.b) << "event " << i;
        ASSERT_EQ(a.sm, b.sm) << "event " << i;
        ASSERT_EQ(a.lane, b.lane) << "event " << i;
        ASSERT_EQ(a.c, b.c) << "event " << i;
        ASSERT_EQ(static_cast<u32>(a.kind), static_cast<u32>(b.kind))
            << "event " << i;
    }

    // And the window rows, verbatim.
    const auto &rows = obs.windows().rows();
    ASSERT_EQ(dump->windows.size(), rows.size());
    EXPECT_GT(dump->windows.size(), 0u);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        ASSERT_EQ(dump->windows[i].issued, rows[i].issued) << i;
        ASSERT_EQ(dump->windows[i].dummyMovs, rows[i].dummyMovs) << i;
        ASSERT_EQ(dump->windows[i].regWrites, rows[i].regWrites) << i;
        ASSERT_EQ(dump->windows[i].storedBytes, rows[i].storedBytes)
            << i;
        ASSERT_EQ(dump->windows[i].rawBytes, rows[i].rawBytes) << i;
        ASSERT_EQ(dump->windows[i].gatedBankCycles,
                  rows[i].gatedBankCycles)
            << i;
        ASSERT_EQ(dump->windows[i].bankCycles, rows[i].bankCycles)
            << i;
        ASSERT_EQ(dump->windows[i].smCycles, rows[i].smCycles) << i;
    }

    // The new BankConflict hook actually fires on this workload — the
    // heatmap/stall reports have real contention data to chew on.
    u64 conflicts = 0;
    for (const TraceEvent &ev : dump->events)
        if (ev.kind == TraceEventKind::BankConflict)
            ++conflicts;
    EXPECT_GT(conflicts, 0u)
        << "no bank conflicts recorded; the collector-retry hook is "
           "not reaching the dump";
}

TEST(TraceStream, DumpBytesIdenticalAcrossRerunsAndRunners)
{
    const std::string rerun = tempPath("rerun.wctrace");
    runWorkload("nw", streamedConfig(rerun, true));
    EXPECT_EQ(slurp(rerun), slurp(streamedRun().dumpPath));

    // Same through the parallel runner on 4 workers.
    const std::string parallel = tempPath("parallel.wctrace");
    runWorkloadsParallel({"nw"}, streamedConfig(parallel, true), 4);
    EXPECT_EQ(slurp(parallel), slurp(streamedRun().dumpPath));

    std::remove(rerun.c_str());
    std::remove(parallel.c_str());
}

TEST(TraceStream, StreamingAloneNeedsNoRing)
{
    // --trace-out without --trace: bounded memory (no ring storage),
    // full event record on disk, and byte-identical to the dump the
    // ring-armed run produced.
    const std::string path = tempPath("ringless.wctrace");
    const ExperimentResult res =
        runWorkload("nw", streamedConfig(path, false));
    ASSERT_NE(res.run.obs, nullptr);
    EXPECT_EQ(res.run.obs->ring().pushed(), 0u);
    EXPECT_EQ(res.run.obs->ring().dropped(), 0u);
    EXPECT_GT(res.run.obs->streamedEvents(), 0u);
    EXPECT_EQ(slurp(path), slurp(streamedRun().dumpPath));
    std::remove(path.c_str());
}

TEST(TraceStream, ChromeExportConvergesWithLiveTrace)
{
    const StreamedRun &run = streamedRun();
    ASSERT_NE(run.result.run.obs, nullptr);

    ChromeTraceMeta meta;
    meta.workload = run.result.workload;
    meta.config = "stream-test";
    meta.numSms = 2;
    meta.numBanks =
        makeGpuParams(streamedConfig("", true)).sm.regfile.numBanks;
    meta.cycles = run.result.run.cycles;
    std::ostringstream live;
    writeChromeTrace(live, *run.result.run.obs, meta);

    TraceDumpError err;
    const auto dump = loadTraceDump(run.dumpPath, &err);
    ASSERT_TRUE(dump.has_value()) << err.code << ": " << err.detail;
    std::ostringstream replay;
    writeDumpChromeTrace(replay, *dump);

    EXPECT_EQ(replay.str(), live.str())
        << "offline Perfetto export diverged from the live --trace "
           "path";
}

TEST(TraceStream, ReportsAreDeterministicAndValidJson)
{
    TraceDumpError err;
    const auto dump = loadTraceDump(streamedRun().dumpPath, &err);
    ASSERT_TRUE(dump.has_value()) << err.code << ": " << err.detail;

    using Writer = void (*)(std::ostream &, const TraceDump &);
    const Writer writers[] = {writeDumpSummary, writeBankHeatmap,
                              writeStallReport, writeDecisionReport,
                              writeDumpChromeTrace};
    const char *names[] = {"summary", "heatmap", "stalls", "decisions",
                           "chrome"};
    for (std::size_t i = 0; i < 5; ++i) {
        std::ostringstream once, twice;
        writers[i](once, *dump);
        writers[i](twice, *dump);
        EXPECT_EQ(once.str(), twice.str()) << names[i];
        const JsonParseOutcome parsed = parseJson(once.str());
        EXPECT_TRUE(parsed.ok())
            << names[i] << ": " << parsed.error;
    }
}

TEST(TraceStream, StallAttributionAddsUp)
{
    // Every attributed bucket must fit inside the warp's inter-issue
    // span: sum(buckets) == span - (issues - 1) issue cycles.
    TraceDumpError err;
    const auto dump = loadTraceDump(streamedRun().dumpPath, &err);
    ASSERT_TRUE(dump.has_value()) << err.code << ": " << err.detail;
    std::ostringstream ss;
    writeStallReport(ss, *dump);
    const JsonParseOutcome parsed = parseJson(ss.str());
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    const JsonValue *warps = parsed.value->find("warps");
    ASSERT_NE(warps, nullptr);
    ASSERT_TRUE(warps->isArray());
    ASSERT_FALSE(warps->items.empty());
    for (const JsonValue &wv : warps->items) {
        const u64 issues = wv.find("issues")->asU64().value();
        const u64 first = wv.find("first_issue")->asU64().value();
        const u64 last = wv.find("last_issue")->asU64().value();
        const JsonValue *b = wv.find("stall_cycles");
        ASSERT_NE(b, nullptr);
        const u64 total = b->find("collector_retry")->asU64().value() +
                          b->find("decompress_penalty")->asU64().value() +
                          b->find("scoreboard")->asU64().value() +
                          b->find("issue_blocked")->asU64().value();
        ASSERT_GE(issues, 1u);
        EXPECT_EQ(total, (last - first) - (issues - 1))
            << "sm/warp " << wv.find("sm")->asU64().value() << "/"
            << wv.find("warp")->asU64().value();
    }
}

TEST(TraceStream, EmptyRunDumpRoundTrips)
{
    const std::string path = tempPath("empty.wctrace");
    TraceStreamMeta meta;
    meta.gitSha = traceStreamGitSha();
    meta.workload = "none";
    meta.config = "empty";
    meta.numSms = 1;
    meta.numBanks = 4;
    {
        TraceStreamSink sink(path, meta);
        sink.finalize(0, ObsWindows(0));
    }
    TraceDumpError err;
    const auto dump = loadTraceDump(path, &err);
    ASSERT_TRUE(dump.has_value()) << err.code << ": " << err.detail;
    EXPECT_TRUE(dump->events.empty());
    EXPECT_TRUE(dump->windows.empty());
    EXPECT_EQ(dump->cycles, 0u);
    EXPECT_EQ(dump->meta.workload, "none");

    // Every report handles the degenerate dump without crashing.
    std::ostringstream ss;
    writeDumpSummary(ss, *dump);
    writeBankHeatmap(ss, *dump);
    writeStallReport(ss, *dump);
    writeDecisionReport(ss, *dump);
    writeDumpChromeTrace(ss, *dump);
    std::remove(path.c_str());
}

TEST(TraceStream, PushRunMatchesPerEventPush)
{
    // A sink fed whole runs writes the bytes of one fed event by event,
    // across the 4096-event batch boundary and after a rewind that
    // drops a flushed batch and a partly filled one.
    TraceStreamMeta meta;
    meta.gitSha = traceStreamGitSha();
    meta.workload = "runs";
    meta.config = "push-run";
    meta.numSms = 2;
    meta.numBanks = 4;
    std::vector<TraceEvent> events;
    for (u32 i = 0; i < 5000; ++i)
        events.push_back({i / 3, i, ~i, static_cast<u16>(i % 2),
                          static_cast<u16>(i % 7),
                          static_cast<TraceEventKind>(i % kNumTraceEventKinds),
                          static_cast<u16>(i % 64)});
    const std::string by_event = tempPath("by_event.wctrace");
    const std::string by_run = tempPath("by_run.wctrace");
    {
        TraceStreamSink sink(by_event, meta);
        for (const TraceEvent &ev : events)
            sink.push(ev);
        sink.finalize(1700, ObsWindows(0));
    }
    {
        TraceStreamSink sink(by_run, meta);
        sink.pushRun(events.data(), 4100);
        sink.rewind();
        // 1 + 3000 + 1100 crosses the batch boundary inside a run.
        const std::size_t runs[] = {1, 3000, 1100, 899};
        std::size_t at = 0;
        for (std::size_t n : runs) {
            sink.pushRun(events.data() + at, n);
            at += n;
        }
        ASSERT_EQ(at, events.size());
        EXPECT_EQ(sink.eventsWritten(), events.size());
        sink.finalize(1700, ObsWindows(0));
    }
    EXPECT_EQ(slurp(by_run), slurp(by_event));
    TraceDumpError err;
    const auto dump = loadTraceDump(by_run, &err);
    ASSERT_TRUE(dump.has_value()) << err.code << ": " << err.detail;
    EXPECT_EQ(dump->events.size(), events.size());
    std::remove(by_event.c_str());
    std::remove(by_run.c_str());
}

TEST(TraceStream, TruncationAndCorruptionAreStructuredErrors)
{
    const std::string good = slurp(streamedRun().dumpPath);
    ASSERT_GT(good.size(), 64u);
    const std::string path = tempPath("damaged.wctrace");
    TraceDumpError err;

    // Torn tail: the footer never made it (crash mid-run).
    spit(path, good.substr(0, good.size() - 1));
    EXPECT_FALSE(loadTraceDump(path, &err).has_value());
    EXPECT_EQ(err.code, "truncated_dump");

    spit(path, good.substr(0, good.size() / 2));
    EXPECT_FALSE(loadTraceDump(path, &err).has_value());
    EXPECT_EQ(err.code, "truncated_dump");

    // Shorter than the fixed header: not even a magic to trust.
    spit(path, good.substr(0, 10));
    EXPECT_FALSE(loadTraceDump(path, &err).has_value());
    EXPECT_EQ(err.code, "bad_magic");

    // Wrong magic entirely.
    spit(path, "definitely not a trace dump, sorry");
    EXPECT_FALSE(loadTraceDump(path, &err).has_value());
    EXPECT_EQ(err.code, "bad_magic");

    // Footer count disagrees with the records actually present.
    {
        std::string bytes = good;
        bytes[bytes.size() - 32] =
            static_cast<char>(bytes[bytes.size() - 32] ^ 0x01);
        spit(path, bytes);
        EXPECT_FALSE(loadTraceDump(path, &err).has_value());
        EXPECT_EQ(err.code, "footer_mismatch");
    }

    // Bytes after the footer: someone appended to a finalized dump.
    {
        std::string bytes = good;
        const char extra[] = {0x01, 0x04, 0x00, 0x00, 0x00,
                              0x00, 0x00, 0x00, 0x00};
        bytes.append(extra, sizeof(extra));
        spit(path, bytes);
        EXPECT_FALSE(loadTraceDump(path, &err).has_value());
        EXPECT_EQ(err.code, "trailing_data");
    }

    // Unknown event kind inside a batch.
    {
        std::string bytes = good;
        const u32 json_len =
            static_cast<u8>(bytes[12]) |
            (static_cast<u32>(static_cast<u8>(bytes[13])) << 8) |
            (static_cast<u32>(static_cast<u8>(bytes[14])) << 16) |
            (static_cast<u32>(static_cast<u8>(bytes[15])) << 24);
        const std::size_t first_kind =
            16 + json_len + 5 + 4 + (kPackedEventBytes - 1);
        ASSERT_LT(first_kind, bytes.size());
        bytes[first_kind] = static_cast<char>(0xEE);
        spit(path, bytes);
        EXPECT_FALSE(loadTraceDump(path, &err).has_value());
        EXPECT_EQ(err.code, "bad_record");
    }

    // A batch whose count disagrees with its length (here: claims
    // 2^32-1 events) is rejected, and sizes no allocation.
    {
        std::string bytes = good;
        const u32 json_len =
            static_cast<u8>(bytes[12]) |
            (static_cast<u32>(static_cast<u8>(bytes[13])) << 8) |
            (static_cast<u32>(static_cast<u8>(bytes[14])) << 16) |
            (static_cast<u32>(static_cast<u8>(bytes[15])) << 24);
        const std::size_t first_count = 16 + json_len + 5;
        ASSERT_LT(first_count + 4, bytes.size());
        for (std::size_t i = 0; i < 4; ++i)
            bytes[first_count + i] = static_cast<char>(0xFF);
        spit(path, bytes);
        EXPECT_FALSE(loadTraceDump(path, &err).has_value());
        EXPECT_EQ(err.code, "bad_record");
    }

    // A header whose shape the simulator cannot run: 65535 banks per SM
    // would have the heatmap pre-seed 4.3 G rows. The arbiter's 1..64
    // banks bound the header.
    {
        const std::string hostile = withHeaderField(
            withHeaderField(good, "sms", 65535), "banks", 65535);
        spit(path, hostile);
        EXPECT_FALSE(loadTraceDump(path, &err).has_value());
        EXPECT_EQ(err.code, "bad_header");
        for (const u64 banks : {u64{0}, u64{kMaxArbiterBanks + 1}}) {
            spit(path, withHeaderField(good, "banks", banks));
            EXPECT_FALSE(loadTraceDump(path, &err).has_value()) << banks;
            EXPECT_EQ(err.code, "bad_header") << banks;
        }
        spit(path, withHeaderField(good, "banks", kMaxArbiterBanks));
        EXPECT_TRUE(loadTraceDump(path, &err).has_value())
            << err.code << ": " << err.detail;
    }

    // Missing file.
    EXPECT_FALSE(
        loadTraceDump(tempPath("nonexistent.wctrace"), &err)
            .has_value());
    EXPECT_EQ(err.code, "open_failed");

    // A directory, not a file.
    EXPECT_FALSE(loadTraceDump(::testing::TempDir(), &err).has_value());
    EXPECT_EQ(err.code, "open_failed");

    std::remove(path.c_str());
}

TEST(TraceStream, EveryCutOfASmallDumpIsAStructuredError)
{
    // One SM and a 200-cycle trace window keep the dump small enough to
    // cut at every byte: inside the fixed header there is no magic to
    // trust, and from there on every cut is a torn dump.
    const std::string full = tempPath("small.wctrace");
    ExperimentConfig cfg = streamedConfig(full, false);
    cfg.numSms = 1;
    cfg.obs.traceStart = 1000;
    cfg.obs.traceEnd = 1200;
    runWorkload("nw", cfg);
    const std::string good = slurp(full);
    TraceDumpError err;
    const auto dump = loadTraceDump(full, &err);
    ASSERT_TRUE(dump.has_value()) << err.code << ": " << err.detail;
    ASSERT_GT(dump->events.size(), 0u);
    ASSERT_GT(dump->windows.size(), 0u);

    // Cut one copy shorter and shorter: no byte is written twice.
    const std::string path = tempPath("cut.wctrace");
    spit(path, good);
    for (std::size_t cut = good.size(); cut-- > 0;) {
        ASSERT_EQ(::truncate(path.c_str(), static_cast<off_t>(cut)), 0);
        err = {};
        ASSERT_FALSE(loadTraceDump(path, &err).has_value()) << cut;
        ASSERT_EQ(err.code, cut < 16 ? "bad_magic" : "truncated_dump")
            << "cut at byte " << cut << " of " << good.size() << ": "
            << err.detail;
    }
    std::remove(path.c_str());
    std::remove(full.c_str());
}

TEST(TraceStream, SparseHoleAfterHeaderIsBadRecordInBoundedMemory)
{
    // A valid header followed by 256 MiB of zeros: the first record is
    // of type 0, which no writer emits. The loader must say so without
    // holding the hole in memory.
    const std::string path = tempPath("hole.wctrace");
    TraceStreamMeta meta;
    meta.gitSha = traceStreamGitSha();
    meta.workload = "hole";
    meta.config = "sparse";
    meta.numSms = 1;
    meta.numBanks = 4;
    { TraceStreamSink sink(path, meta); } // header only, no footer
    struct stat st{};
    ASSERT_EQ(::stat(path.c_str(), &st), 0);
    constexpr off_t kHole = off_t{256} << 20;
    ASSERT_EQ(::truncate(path.c_str(), st.st_size + kHole), 0);

    rusage before{};
    ASSERT_EQ(::getrusage(RUSAGE_SELF, &before), 0);
    TraceDumpError err;
    EXPECT_FALSE(loadTraceDump(path, &err).has_value());
    rusage after{};
    ASSERT_EQ(::getrusage(RUSAGE_SELF, &after), 0);
    std::remove(path.c_str());

    EXPECT_EQ(err.code, "bad_record") << err.detail;
    // ru_maxrss is in KiB.
    EXPECT_LT(after.ru_maxrss - before.ru_maxrss, 64 * 1024)
        << "loading grew the peak RSS by "
        << (after.ru_maxrss - before.ru_maxrss) / 1024 << " MiB";
}

TEST(TraceStream, FooterCyclesMustMatchWindowRows)
{
    const std::string good = slurp(streamedRun().dumpPath);
    ASSERT_GT(good.size(), 64u);
    const std::string path = tempPath("hostile_footer.wctrace");
    TraceDumpError err;

    // The footer's cycle count sits 16 bytes before the end. 2^50
    // cycles would size every per-bucket table an analyzer builds past
    // any memory; the window rows present say how long the run was.
    {
        std::string bytes = good;
        const u64 cycles = u64{1} << 50;
        for (std::size_t i = 0; i < 8; ++i)
            bytes[bytes.size() - 16 + i] =
                static_cast<char>((cycles >> (8 * i)) & 0xFF);
        spit(path, bytes);
        EXPECT_FALSE(loadTraceDump(path, &err).has_value());
        EXPECT_EQ(err.code, "footer_mismatch");
    }

    // Window rows in a dump whose header says windows were off.
    {
        TraceStreamMeta meta;
        meta.gitSha = traceStreamGitSha();
        meta.workload = "none";
        meta.config = "no-windows";
        meta.numSms = 1;
        meta.numBanks = 4;
        ObsWindows windows(500);
        windows.onCycleSpan(0, 1, 0, 4);
        {
            TraceStreamSink sink(path, meta);
            sink.finalize(1, windows);
        }
        EXPECT_FALSE(loadTraceDump(path, &err).has_value());
        EXPECT_EQ(err.code, "footer_mismatch");
    }
    std::remove(path.c_str());
}

TEST(TraceStream, StatsGroupCountsStreamedEvents)
{
    const StreamedRun &run = streamedRun();
    ASSERT_NE(run.result.run.obs, nullptr);
    const ObsRun &obs = *run.result.run.obs;
    EXPECT_GT(obs.streamedEvents(), 0u);
    // Streaming + ring together: nothing dropped, both complete.
    EXPECT_EQ(obs.ring().dropped(), 0u);
    EXPECT_EQ(obs.ring().pushed(), obs.streamedEvents());
}

} // namespace
} // namespace warpcomp
