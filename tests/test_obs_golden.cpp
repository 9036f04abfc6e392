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
 * cases of the gate-interval fold.
 *
 * A digest change here means an output format changed: if that is
 * intended, say so where the change is recorded and re-pin.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <span>
#include <sstream>
#include <string>

#include <unistd.h>

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
              "b8c1eb24c982738e6184c2fa2512cceb"
              "9cad3447738e5d407559763df68ce071")
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

TEST(ObsGolden, ChromeEveryEventKind)
{
    constexpr u32 kMaxU32 = std::numeric_limits<u32>::max();
    constexpr u16 kMaxU16 = std::numeric_limits<u16>::max();
    using K = TraceEventKind;
    // Chronological, every kind at least once. Bank 3 of SM 0 wakes
    // with no gate-off on record (gated since traceStart); bank 5 of
    // SM 1 is still gated at the end and closes at traceEnd, which is
    // before the run's last cycle. The last event's cycle has 20
    // digits, the widest value a layout must hold.
    const std::vector<TraceEvent> events = {
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

    EXPECT_EQ(digest(chrome.str()),
              "8d05649b0abe8e74678ee1395fe5ae13"
              "fc37919433e75f7d71a0ce33983d01f8")
        << "chrome trace";
}

} // namespace
} // namespace warpcomp
