/**
 * @file
 * Golden digests for the JSON artifacts of one small traced run (nw on
 * 2 SMs, ring + windows + streamed dump armed): the Chrome trace, the
 * structured-stats document and the four wc_trace analyzer reports.
 * The other byte-identity tests compare two outputs of the same build,
 * so they cannot see the serializer itself drift; these SHA-256s pin
 * the exact bytes. The dump header's git SHA is replaced before the
 * reports are written so the digests do not move with every commit.
 *
 * That run never emits every event kind, so a second test pins the
 * Chrome bytes of a synthetic view that holds each kind and the edge
 * cases of the gate-interval fold. Further synthetic inputs pin the
 * exporter's block edges (with its worker threads and without) and the
 * analyzers' grouping at the extremes of the key space.
 *
 * A digest change here means an output format changed: if that is
 * intended, say so where the change is recorded and re-pin.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <limits>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <sched.h>
#include <unistd.h>

#include "common/json_parse.hpp"
#include "common/json_writer.hpp"
#include "common/sha256.hpp"
#include "harness/experiment.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/stats_json.hpp"
#include "obs/trace_analyze.hpp"
#include "obs/trace_stream.hpp"

namespace warpcomp {
namespace {

std::string
digest(const std::string &bytes)
{
    return sha256Hex(std::span<const u8>(
        reinterpret_cast<const u8 *>(bytes.data()), bytes.size()));
}

TEST(ObsGolden, TracedRunArtifactsMatchPinnedDigests)
{
    const std::string dump_path = ::testing::TempDir() + "wc_golden_" +
        std::to_string(getpid()) + ".wctrace";
    ExperimentConfig cfg;
    cfg.numSms = 2;
    cfg.obs.trace = true;
    cfg.obs.windowInterval = 500;
    cfg.obs.streamPath = dump_path;
    cfg.obs.streamLabel = "golden";
    const ExperimentResult result = runWorkload("nw", cfg);
    ASSERT_NE(result.run.obs, nullptr);

    ChromeTraceMeta meta;
    meta.workload = result.workload;
    meta.config = "golden";
    meta.numSms = cfg.numSms;
    meta.numBanks = makeGpuParams(cfg).sm.regfile.numBanks;
    meta.cycles = result.run.cycles;
    std::ostringstream chrome;
    writeChromeTrace(chrome, *result.run.obs, meta);

    std::ostringstream stats;
    {
        JsonWriter w(stats);
        writeRunStatsJson(w, result.run, cfg.numSms);
    }

    TraceDumpError err;
    auto dump = loadTraceDump(dump_path, &err);
    std::remove(dump_path.c_str());
    ASSERT_TRUE(dump.has_value()) << err.code << ": " << err.detail;
    dump->meta.gitSha = "golden";
    std::ostringstream summary, heatmap, stalls, decisions;
    writeDumpSummary(summary, *dump);
    writeBankHeatmap(heatmap, *dump);
    writeStallReport(stalls, *dump);
    writeDecisionReport(decisions, *dump);

    EXPECT_EQ(result.run.cycles, 8324u);
    EXPECT_EQ(digest(chrome.str()),
              "74f8aa312cd711d21900b76fdc3f4e54"
              "f011f04e2f6f1051988ea5d6137284a8")
        << "chrome trace";
    EXPECT_EQ(digest(stats.str()),
              "d65ebde89d1b4f342b3c6cf154e856d1"
              "8ca25569734b658a78d1e722d46ded0b")
        << "stats document";
    EXPECT_EQ(digest(summary.str()),
              "9f96e9033a2d8b5385aedb21f11b7318"
              "0bf5a88ce7263830c5351dec0c4b0f9a")
        << "summary report";
    EXPECT_EQ(digest(heatmap.str()),
              "31f03f857f20c4ee8a7ef05e066faef0"
              "8521427a3899c0eac28ea9f1ae89fbe3")
        << "heatmap report";
    EXPECT_EQ(digest(stalls.str()),
              "e69e3908314d20f902570a0b52375100"
              "fd11cde62b36595c70b545d27e0fc1dd")
        << "stall report";
    EXPECT_EQ(digest(decisions.str()),
              "a140559e29debe506c841fcc7f393d6a"
              "c43561ef3849f7eb49a2d188ccd2ec20")
        << "decision report";
}

/**
 * A synthetic view that holds every event kind. Bank 3 of SM 0 wakes
 * with no gate-off on record (gated since traceStart); bank 5 of SM 1
 * is still gated at the end and closes at traceEnd, which is before the
 * run's last cycle. The last event's cycle has 20 digits, the widest
 * value a layout must hold.
 */
std::vector<TraceEvent>
everyKindEvents()
{
    constexpr u32 kMaxU32 = std::numeric_limits<u32>::max();
    constexpr u16 kMaxU16 = std::numeric_limits<u16>::max();
    using K = TraceEventKind;
    return {
        {10, 0x40, 32, 0, 0, K::WarpIssue, 0},
        {11, 2, 0, 0, 3, K::GateWake, 0},
        {12, 7, 0, 0, 0, K::DummyMov, 0},
        {13, 64, 72, 0, 0, K::CompressDecision, 17},
        {14, 0, 0, 0, 0, K::Decompress, 0},
        {15, 3, 2, 0, 0, K::OperandCollect, 0},
        {16, 2, 0, 0, 0, K::Writeback, 0},
        {17, 4, 1, 0, 1, K::Writeback, 0},
        {18, 0, 0, 0, 3, K::GateOff, 0},
        {20, 1, 0, 1, 5, K::GateOff, 0},
        {25, 9, 0, 0, 3, K::GateWake, 0},
        {30, 5, 0, 1, 2, K::SeuCorruption, 0},
        {31, 6, 1, 1, 2, K::SeuCorruption, 0},
        {32, 8, 0, 1, 0, K::ScrubVisit, 0},
        {33, 0, 0, 1, 4, K::FaultCorruptedWrite, 0},
        {34, 2, 0, 1, 7, K::BankConflict, 0},
        {40, kMaxU32, kMaxU32, kMaxU16, kMaxU16, K::WarpIssue, 0},
        {41, kMaxU32, kMaxU32, kMaxU16, kMaxU16, K::CompressDecision,
         kMaxU16},
        {42, kMaxU32, kMaxU32, kMaxU16, kMaxU16, K::OperandCollect, 0},
        {43, kMaxU32, kMaxU32, kMaxU16, kMaxU16, K::Writeback, 0},
        {44, kMaxU32, kMaxU32, kMaxU16, kMaxU16, K::SeuCorruption, 0},
        {45, kMaxU32, 0, kMaxU16, kMaxU16, K::ScrubVisit, 0},
        {46, kMaxU32, 0, kMaxU16, kMaxU16, K::GateWake, 0},
        {47, kMaxU32, 0, kMaxU16, kMaxU16, K::BankConflict, 0},
        {10'000'000'000'000'000'000ull, kMaxU32, 0, kMaxU16, kMaxU16,
         K::DummyMov, 0},
    };
}

/** The Chrome trace of everyKindEvents(), with window rows that hit
 *  each counter's zero guard. */
std::string
everyKindChrome(const std::vector<TraceEvent> &events)
{
    std::vector<WindowRow> windows(3);
    windows[0] = {40, 2, 8, 512, 1024, 6, 64, 20};
    windows[1] = {0, 0, 0, 0, 0, 0, 0, 0};     // no SM cycles, no writes
    windows[2] = {5, 0, 1, 0, 128, 3, 16, 4};  // cycles, nothing stored
    const ChromeTraceView view{events,
                               windows,
                               1000,
                               10,
                               18'000'000'000'000'000'000ull,
                               7};
    ChromeTraceMeta meta;
    meta.workload = "every-kind";
    meta.config = "golden";
    meta.numSms = 2;
    meta.numBanks = 8;
    meta.cycles = std::numeric_limits<Cycle>::max();
    std::ostringstream chrome;
    writeChromeTrace(chrome, view, meta);
    return chrome.str();
}

TEST(ObsGolden, ChromeEveryEventKind)
{
    EXPECT_EQ(digest(everyKindChrome(everyKindEvents())),
              "3113e22747326b2e25bfac75e9444950"
              "0b6cbd56f2ec58765860055c970609af")
        << "chrome trace";
}

/**
 * Every event object (an instant event, or a "gated"/"waking" interval)
 * is one line that parses alone, so a reader can take the events a line
 * at a time; the metadata and counter objects around them stay Pretty.
 */
TEST(ObsGolden, ChromeEventsOneLineEach)
{
    using K = TraceEventKind;
    const std::vector<TraceEvent> events = everyKindEvents();
    const std::string doc = everyKindChrome(events);
    const JsonParseOutcome whole = parseJson(doc);
    ASSERT_TRUE(whole.ok()) << whole.error;

    // One line per instant event, two per wake (gated, waking), and one
    // per bank still gated at the end.
    std::size_t expect = 0;
    std::set<std::pair<u16, u16>> gated;
    for (const TraceEvent &ev : events) {
        const std::pair<u16, u16> bank{ev.sm, ev.lane};
        if (ev.kind == K::GateOff) {
            gated.insert(bank);
        } else if (ev.kind == K::GateWake) {
            gated.erase(bank);
            expect += 2;
        } else {
            ++expect;
        }
    }
    expect += gated.size();

    const std::string prefix = "    {\"name\":";
    std::size_t lines = 0;
    std::istringstream in(doc);
    for (std::string line; std::getline(in, line);) {
        if (line.compare(0, prefix.size(), prefix) != 0)
            continue;
        ++lines;
        if (line.back() == ',')
            line.pop_back();
        const JsonParseOutcome parsed = parseJson(line);
        ASSERT_TRUE(parsed.ok()) << parsed.error << ": " << line;
        EXPECT_TRUE(parsed.value->isObject()) << line;
        EXPECT_NE(parsed.value->find("ts"), nullptr) << line;
    }
    EXPECT_EQ(lines, expect);
}

/** Deterministic filler: every non-gate kind on SMs 0-2, warp slots
 *  0-15 and bank lanes 0-3, one event per cycle from @p first. */
std::vector<TraceEvent>
fillerEvents(std::size_t n, Cycle first)
{
    using K = TraceEventKind;
    static constexpr K kKinds[] = {
        K::WarpIssue,     K::DummyMov,   K::CompressDecision,
        K::Decompress,    K::OperandCollect, K::Writeback,
        K::SeuCorruption, K::ScrubVisit, K::FaultCorruptedWrite,
        K::BankConflict,
    };
    std::vector<TraceEvent> events(n);
    u64 x = 0x9E3779B97F4A7C15ull;
    for (std::size_t i = 0; i < n; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        TraceEvent &ev = events[i];
        ev.cycle = first + i;
        ev.kind = kKinds[(x >> 33) % std::size(kKinds)];
        ev.sm = static_cast<u16>((x >> 40) % 3);
        const bool bank =
            ev.kind == K::ScrubVisit || ev.kind == K::BankConflict;
        ev.lane = static_cast<u16>((x >> 45) % (bank ? 4 : 16));
        ev.a = static_cast<u32>(x >> 20);
        ev.b = static_cast<u32>((x >> 8) % 200);
        ev.c = static_cast<u16>(x >> 48);
    }
    return events;
}

std::string
chromeDigest(const std::vector<TraceEvent> &events,
             const std::vector<WindowRow> &windows, Cycle trace_end)
{
    const ChromeTraceView view{events, windows, 2000, 5, trace_end, 0};
    ChromeTraceMeta meta;
    meta.workload = "multi-block";
    meta.config = "golden";
    meta.numSms = 4;
    meta.numBanks = 32;
    meta.cycles = 20'000;
    std::ostringstream chrome;
    writeChromeTrace(chrome, view, meta);
    return digest(chrome.str());
}

/** Five blocks and a tail that put the gate-interval fold across block
 *  edges (see ChromeMultiBlock). */
std::vector<TraceEvent>
multiBlockEvents()
{
    constexpr std::size_t kBlock = kChromeBlockEvents;
    using K = TraceEventKind;
    std::vector<TraceEvent> events = fillerEvents(5 * kBlock + 300, 10);
    auto gate = [&](std::size_t i, K kind, u16 sm, u16 bank, u32 wake) {
        TraceEvent &ev = events[i];
        ev.kind = kind;
        ev.sm = sm;
        ev.lane = bank;
        ev.a = wake;
        ev.b = 0;
        ev.c = 0;
    };
    // Wake with no gate-off on record, in the first block.
    gate(5, K::GateWake, 0, 12, 10);
    // Gate-off in block 1 whose wake lands three blocks later.
    gate(kBlock + 476, K::GateOff, 1, 7, 0);
    gate(4 * kBlock + 404, K::GateWake, 1, 7, 10);
    // A wake on each side of the block 0/1 edge.
    gate(kBlock - 3, K::GateOff, 2, 13, 0);
    gate(kBlock - 1, K::GateWake, 2, 13, 3);
    gate(kBlock, K::GateWake, 2, 13, 4);
    // Block 2 holds only gate-offs, so it formats no object at all;
    // half of them wake in block 3, the rest stay open.
    for (std::size_t i = 0; i < kBlock; ++i)
        gate(2 * kBlock + i, K::GateOff, 3, static_cast<u16>(16 + i % 8),
             0);
    for (u16 bank = 16; bank < 20; ++bank)
        gate(3 * kBlock + 100 + bank, K::GateWake, 3, bank, 10);
    // Still gated when the traced window closes.
    gate(5 * kBlock + 10, K::GateOff, 2, 9, 0);
    return events;
}

std::vector<WindowRow>
multiBlockWindows()
{
    std::vector<WindowRow> windows(3);
    windows[0] = {900, 30, 700, 20'000, 89'600, 5'000, 64'000, 8'000};
    windows[2] = {12, 0, 3, 384, 384, 100, 3'200, 400};
    return windows;
}

constexpr const char *kMultiBlockDigest =
    "e44d4a2b80d7f1fd7dd241a36aa55a2a"
    "18a4427474a1d4aaf02def1b2d830c17";

/**
 * The exporter formats events in blocks of kChromeBlockEvents, on
 * worker threads when more than one CPU is available. These views put
 * the gate-interval fold and the array separators across block edges.
 * The digests were first computed by the single-threaded serializer
 * that came before the blocks; the documents pinned now, with one line
 * per event object, parse to the same values.
 */
TEST(ObsGolden, ChromeMultiBlock)
{
    constexpr std::size_t kBlock = kChromeBlockEvents;
    EXPECT_EQ(chromeDigest(multiBlockEvents(), multiBlockWindows(), 6'000),
              kMultiBlockDigest)
        << "five blocks and a tail";

    const std::vector<TraceEvent> one_block = fillerEvents(kBlock, 0);
    EXPECT_EQ(chromeDigest(one_block, {}, 20'000),
              "234b6c98815e87923482e3682eb26716"
              "d367b5f07457c07cea81261474880f7d")
        << "exactly one block";

    const std::vector<TraceEvent> block_and_one =
        fillerEvents(kBlock + 1, 0);
    EXPECT_EQ(chromeDigest(block_and_one, {}, 20'000),
              "d2e0a69b4341e8cd8acddc480b740a5e"
              "54b9f545e973f3429b7991e36876f65e")
        << "one block and one event";

    EXPECT_EQ(chromeDigest({}, {}, 20'000),
              "fcee524712e6c63ae4ccad5c8caf20a8"
              "49de9019e30be7375eb3475b0e5be823")
        << "no events";
}

/** With the calling thread held to one CPU the exporter formats every
 *  block inline; the bytes are the same as with its workers. */
TEST(ObsGolden, ChromeMultiBlockOnOneCpu)
{
    cpu_set_t saved;
    ASSERT_EQ(sched_getaffinity(0, sizeof saved, &saved), 0);
    int cpu = 0;
    while (!CPU_ISSET(cpu, &saved))
        ++cpu;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    ASSERT_EQ(sched_setaffinity(0, sizeof one, &one), 0);
    const std::string inline_digest =
        chromeDigest(multiBlockEvents(), multiBlockWindows(), 6'000);
    ASSERT_EQ(sched_setaffinity(0, sizeof saved, &saved), 0);
    EXPECT_EQ(inline_digest, kMultiBlockDigest);
}

/**
 * The analyzers group events by (sm, warp), (sm, warp, reg) and
 * (sm, bank). Every key field here takes its largest value, a
 * BankConflict names warp 0xFFFF through a wider `a` (the analyzers
 * keep its low 16 bits), and some conflicts fall outside the header's
 * SM/bank grid, so the reports' row order and the heatmap's grid merge
 * are pinned at the edges of the key space. The digests were computed
 * by the std::map-based analyzers.
 */
TEST(ObsGolden, ReportsOverExtremeKeys)
{
    constexpr u16 kMax = 0xFFFF;
    using K = TraceEventKind;
    TraceDump dump;
    dump.meta.gitSha = "golden";
    dump.meta.workload = "extreme-keys";
    dump.meta.config = "golden";
    dump.meta.numSms = 2;
    dump.meta.numBanks = 4;
    dump.meta.windowInterval = 100;
    dump.meta.decompressLatency = 2;
    dump.cycles = 1'000;
    dump.windows.resize(10);
    dump.events = {
        {1, 0x10, 32, kMax, kMax, K::WarpIssue, 0},
        {2, 0, 0, 0, 3, K::WarpIssue, 0},
        {3, 64, 72, kMax, kMax, K::CompressDecision, kMax},
        {4, 64, 128, 0, 3, K::CompressDecision, kMax},
        {5, 0x1FFFF, 0, kMax, 2, K::BankConflict, 0},
        {6, kMax, 0, kMax, kMax, K::BankConflict, 0},
        {7, 0, 0, kMax, kMax, K::Decompress, 0},
        {8, 7, 0, kMax, kMax, K::DummyMov, 0},
        {9, 7, 0, kMax, kMax, K::DummyMov, 0},
        {9, 3, 0, 1, 0, K::BankConflict, 0},
        {11, 4, 0, 0, 3, K::Writeback, 0},
        {12, 64, 40, kMax, kMax, K::CompressDecision, kMax},
        {12, 64, 72, kMax, kMax, K::CompressDecision, 0},
        {14, 2, 0, kMax, kMax, K::Writeback, 0},
        {20, 0x10, 32, kMax, kMax, K::WarpIssue, 0},
        {25, 0, 0, 0, 3, K::WarpIssue, 0},
        {30, 7, 0, 0, 3, K::DummyMov, 0},
        {150, 1, 0, 1, 3, K::BankConflict, 0},
        {420, kMax, 0, 0, kMax, K::BankConflict, 0},
        {999, 9, 0, 1, 3, K::BankConflict, 0},
        {5'000, 9, 0, 0, 0, K::BankConflict, 0},
        {5'001, 0x10, 32, kMax, kMax, K::WarpIssue, 0},
    };

    std::ostringstream heatmap, stalls, decisions;
    writeBankHeatmap(heatmap, dump);
    writeStallReport(stalls, dump);
    writeDecisionReport(decisions, dump);
    EXPECT_EQ(digest(heatmap.str()),
              "e3c9f221a78f1ea76af60691e1c0df62"
              "5034889dbc7bf77e94c91d2d4e32b207")
        << "heatmap report";
    EXPECT_EQ(digest(stalls.str()),
              "ba165e0e897ba1dc0f1dbdb3e273aee6"
              "0047698b1e7dd1982a241a53ce1b066e")
        << "stall report";
    EXPECT_EQ(digest(decisions.str()),
              "ee60d1ea75c12c2c352ef2c8e10daae5"
              "1ec6ab60a8046644ee1b741602756981")
        << "decision report";
}

} // namespace
} // namespace warpcomp
