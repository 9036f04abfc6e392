/**
 * @file
 * Observability subsystem tests: the trace ring, windowed counters,
 * no-perturbation (attaching the tracer must not change the simulated
 * machine), Chrome trace export content, and byte-level determinism of
 * both exporters across reruns and harness thread counts.
 */

#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "harness/experiment.hpp"
#include "isa/builder.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/obs.hpp"
#include "obs/stats_json.hpp"

namespace warpcomp {
namespace {

// ---------------------------------------------------------------- ring

TEST(TraceRing, HoldsEventsUpToCapacity)
{
    TraceRing ring(4);
    for (u32 i = 0; i < 3; ++i)
        ring.push({i, i, 0, 0, 0, TraceEventKind::WarpIssue});
    EXPECT_EQ(ring.size(), 3u);
    EXPECT_EQ(ring.pushed(), 3u);
    EXPECT_EQ(ring.dropped(), 0u);
    EXPECT_EQ(ring.at(0).cycle, 0u);
    EXPECT_EQ(ring.at(2).cycle, 2u);
}

TEST(TraceRing, WrapDropsOldestKeepsChronologicalOrder)
{
    TraceRing ring(4);
    for (u32 i = 0; i < 10; ++i)
        ring.push({i, i, 0, 0, 0, TraceEventKind::WarpIssue});
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.pushed(), 10u);
    EXPECT_EQ(ring.dropped(), 6u);
    // The survivors are the most recent events, oldest first.
    for (u32 i = 0; i < 4; ++i)
        EXPECT_EQ(ring.at(i).cycle, 6u + i);
}

TEST(TraceRing, ZeroCapacityCountsOffersWithoutStoring)
{
    TraceRing ring(0);
    ring.push({1, 0, 0, 0, 0, TraceEventKind::WarpIssue});
    EXPECT_EQ(ring.size(), 0u);
    EXPECT_EQ(ring.pushed(), 1u);
    EXPECT_EQ(ring.dropped(), 1u);
}

/** Feed each run of @p runs (event counts) to one ring of @p capacity
 *  by pushRun and to another event by event, and check that both hold
 *  the same events after every run. */
void
expectPushRunMatchesPush(u32 capacity, std::vector<std::size_t> runs)
{
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    TraceRing by_event(capacity);
    TraceRing by_run(capacity);
    u32 next = 0;
    for (std::size_t n : runs) {
        SCOPED_TRACE("after a run of " + std::to_string(n));
        std::vector<TraceEvent> run;
        for (std::size_t i = 0; i < n; ++i, ++next)
            run.push_back({next, next, 0, 0, 0, TraceEventKind::WarpIssue});
        for (const TraceEvent &ev : run)
            by_event.push(ev);
        by_run.pushRun(run.data(), run.size());
        ASSERT_EQ(by_run.pushed(), by_event.pushed());
        ASSERT_EQ(by_run.dropped(), by_event.dropped());
        ASSERT_EQ(by_run.size(), by_event.size());
        for (std::size_t i = 0; i < by_run.size(); ++i) {
            EXPECT_EQ(by_run.at(i).cycle, by_event.at(i).cycle) << i;
            EXPECT_EQ(by_run.at(i).a, by_event.at(i).a) << i;
        }
        if (by_run.dropped() == 0) {
            ASSERT_EQ(by_run.slots().size(), by_run.size());
            for (std::size_t i = 0; i < by_run.size(); ++i)
                EXPECT_EQ(by_run.slots()[i].cycle, by_run.at(i).cycle);
        }
    }
}

TEST(TraceRing, PushRunMatchesPerEventPush)
{
    expectPushRunMatchesPush(4, {4});             // fills the ring
    expectPushRunMatchesPush(4, {3, 3, 1});       // straddles the capacity
    expectPushRunMatchesPush(4, {1, 11, 2, 9});   // wraps more than once
    expectPushRunMatchesPush(5, {0, 2, 5, 0, 8, 3, 10});
    expectPushRunMatchesPush(0, {0, 3, 5});       // stores nothing
}

// ------------------------------------------------------------- windows

TEST(ObsWindows, AccumulatesIntoIntervalRows)
{
    ObsWindows win(100);
    win.onCycleSpan(0, 1, 2, 8);
    win.onIssue(5, false);
    win.onIssue(7, true);          // dummy MOV counts as an issue too
    win.onWrite(10, 32);
    win.onCycleSpan(150, 151, 4, 8);    // second window
    ASSERT_EQ(win.rows().size(), 2u);

    const WindowRow &r0 = win.rows()[0];
    EXPECT_EQ(r0.issued, 2u);
    EXPECT_EQ(r0.dummyMovs, 1u);
    EXPECT_EQ(r0.regWrites, 1u);
    EXPECT_EQ(r0.storedBytes, 32u);
    EXPECT_EQ(r0.rawBytes, static_cast<u64>(kWarpRegBytes));
    EXPECT_EQ(r0.gatedBankCycles, 2u);
    EXPECT_EQ(r0.bankCycles, 8u);
    EXPECT_EQ(r0.smCycles, 1u);

    const WindowRow &r1 = win.rows()[1];
    EXPECT_EQ(r1.gatedBankCycles, 4u);
    EXPECT_EQ(r1.issued, 0u);
}

// ---------------------------------------------------------- per-SM logs

/** Every field of every event in @p ring, in ring order. */
std::vector<std::array<u64, 6>>
ringFields(const TraceRing &ring)
{
    std::vector<std::array<u64, 6>> out;
    for (std::size_t i = 0; i < ring.size(); ++i) {
        const TraceEvent &ev = ring.at(i);
        out.push_back({ev.cycle, ev.a, ev.b, ev.sm, ev.lane,
                       static_cast<u64>(ev.kind)});
    }
    return out;
}

TEST(ObsRunLogs, DrainMergesInLockstepOrder)
{
    // Lockstep runs a cycle's CTA launches, SM by SM, before any SM
    // steps the cycle: SM 2's launch gates a bank ahead of SM 0's
    // step. The drain emits only sealed events below its floor.
    ObsParams p;
    p.trace = true;
    p.windowInterval = 10;
    ObsRun logged(p);
    logged.armLogs(3, 8);
    logged.onWarpIssue(1, 0, 0x10, 32, 4);
    logged.onWarpIssue(1, 0, 0x40, 32, 5);
    logged.onWarpIssue(1, 0, 0x50, 32, 6);
    logged.onWarpIssue(0, 0, 0x20, 32, 5);
    logged.onWriteback(0, 0, 8, false, 5);
    logged.log(2)->setLaunchPhase(true);
    logged.onGateOff(2, 7, 5);
    logged.log(2)->setLaunchPhase(false);
    logged.onWarpIssue(2, 1, 0x30, 32, 5);
    logged.onCycleSpan(0, 4, 32, 0, 15);
    logged.onCycleSpan(2, 8, 32, 3, 12);
    for (u16 sm = 0; sm < 3; ++sm)
        logged.log(sm)->seal();

    logged.drainLogs(5);
    ASSERT_EQ(logged.ring().size(), 1u);
    EXPECT_EQ(logged.ring().at(0).a, 0x10u);
    logged.closeLogs();
    EXPECT_EQ(logged.log(0), nullptr);

    // The same hooks in lockstep's order, written through.
    ObsRun direct(p);
    direct.onWarpIssue(1, 0, 0x10, 32, 4);
    direct.onGateOff(2, 7, 5);
    direct.onWarpIssue(0, 0, 0x20, 32, 5);
    direct.onWriteback(0, 0, 8, false, 5);
    direct.onWarpIssue(1, 0, 0x40, 32, 5);
    direct.onWarpIssue(2, 1, 0x30, 32, 5);
    direct.onWarpIssue(1, 0, 0x50, 32, 6);
    direct.onCycleSpan(0, 4, 32, 0, 15);
    direct.onCycleSpan(2, 8, 32, 3, 12);

    EXPECT_EQ(ringFields(logged.ring()), ringFields(direct.ring()));
    ASSERT_EQ(logged.windows().rows().size(), 2u);
    ASSERT_EQ(direct.windows().rows().size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        const WindowRow &a = logged.windows().rows()[i];
        const WindowRow &b = direct.windows().rows()[i];
        EXPECT_EQ(a.issued, b.issued) << "window " << i;
        EXPECT_EQ(a.gatedBankCycles, b.gatedBankCycles) << "window " << i;
        EXPECT_EQ(a.bankCycles, b.bankCycles) << "window " << i;
        EXPECT_EQ(a.smCycles, b.smCycles) << "window " << i;
    }
}

TEST(ObsRunLogs, KeySplitAcrossSealedChunksDrainsInOrder)
{
    // A seal between two hooks of one cycle leaves that cycle's run of
    // SM 0 in two chunks. The drain takes both parts before SM 1's
    // events of the same cycle, and stops at the floor in between.
    ObsParams p;
    p.trace = true;
    ObsRun logged(p);
    logged.armLogs(2, 8);
    logged.onWarpIssue(0, 0, 0x01, 32, 3);
    logged.onWarpIssue(0, 1, 0x02, 32, 3);
    logged.log(0)->seal();
    logged.onWarpIssue(0, 2, 0x03, 32, 3);
    logged.onWarpIssue(0, 0, 0x04, 32, 4);
    logged.onWarpIssue(1, 0, 0x11, 32, 3);
    logged.onWarpIssue(1, 0, 0x12, 32, 4);
    for (u16 sm = 0; sm < 2; ++sm)
        logged.log(sm)->seal();

    ObsRun direct(p);
    direct.onWarpIssue(0, 0, 0x01, 32, 3);
    direct.onWarpIssue(0, 1, 0x02, 32, 3);
    direct.onWarpIssue(0, 2, 0x03, 32, 3);
    direct.onWarpIssue(1, 0, 0x11, 32, 3);
    direct.onWarpIssue(0, 0, 0x04, 32, 4);
    direct.onWarpIssue(1, 0, 0x12, 32, 4);
    const auto expected = ringFields(direct.ring());

    logged.drainLogs(4);
    EXPECT_EQ(ringFields(logged.ring()),
              decltype(expected)(expected.begin(), expected.begin() + 4));
    EXPECT_EQ(logged.log(0)->size(), 1u);
    EXPECT_EQ(logged.log(1)->size(), 1u);
    logged.closeLogs();
    EXPECT_EQ(ringFields(logged.ring()), expected);
}

TEST(ObsRunLogs, FloorInsideChunkDrainsOverTwoCalls)
{
    // Each SM seals one chunk spanning several cycles; two drains stop
    // inside it, and SM 0 seals a second chunk between them.
    ObsParams p;
    p.trace = true;
    ObsRun logged(p);
    logged.armLogs(2, 8);
    logged.onWarpIssue(0, 0, 0x01, 32, 1);
    logged.onWarpIssue(0, 1, 0x02, 32, 1);
    logged.onWarpIssue(0, 0, 0x03, 32, 2);
    logged.onWarpIssue(0, 0, 0x04, 32, 3);
    logged.onWarpIssue(0, 0, 0x05, 32, 4);
    logged.onWarpIssue(0, 0, 0x06, 32, 5);
    logged.log(1)->setLaunchPhase(true);
    logged.onWarpIssue(1, 0, 0x11, 32, 2);
    logged.log(1)->setLaunchPhase(false);
    logged.onWarpIssue(1, 0, 0x12, 32, 2);
    logged.onWarpIssue(1, 0, 0x13, 32, 4);
    for (u16 sm = 0; sm < 2; ++sm)
        logged.log(sm)->seal();

    // Lockstep's order: SM 1's launch at cycle 2 comes before SM 0's
    // step at cycle 2.
    ObsRun direct(p);
    direct.onWarpIssue(0, 0, 0x01, 32, 1);
    direct.onWarpIssue(0, 1, 0x02, 32, 1);
    direct.onWarpIssue(1, 0, 0x11, 32, 2);
    direct.onWarpIssue(0, 0, 0x03, 32, 2);
    direct.onWarpIssue(1, 0, 0x12, 32, 2);
    direct.onWarpIssue(0, 0, 0x04, 32, 3);
    direct.onWarpIssue(0, 0, 0x05, 32, 4);
    direct.onWarpIssue(1, 0, 0x13, 32, 4);
    direct.onWarpIssue(0, 0, 0x06, 32, 5);
    direct.onWarpIssue(0, 0, 0x07, 32, 6);
    const auto expected = ringFields(direct.ring());
    const auto prefix = [&](std::size_t n) {
        return decltype(expected)(expected.begin(), expected.begin() + n);
    };

    logged.drainLogs(3);
    EXPECT_EQ(ringFields(logged.ring()), prefix(5));
    EXPECT_EQ(logged.log(0)->size(), 3u);
    EXPECT_EQ(logged.log(1)->size(), 1u);

    logged.onWarpIssue(0, 0, 0x07, 32, 6);
    EXPECT_EQ(logged.log(0)->size(), 4u) << "the open chunk counts too";
    logged.log(0)->seal();
    logged.drainLogs(5);
    EXPECT_EQ(ringFields(logged.ring()), prefix(8));
    EXPECT_EQ(logged.log(0)->size(), 2u);
    EXPECT_EQ(logged.log(1)->size(), 0u);
    logged.drainLogs(5);
    EXPECT_EQ(logged.ring().size(), 8u) << "a second drain to one floor";

    logged.closeLogs();
    EXPECT_EQ(ringFields(logged.ring()), expected);
}

TEST(ObsRun, TraceWindowFiltersEvents)
{
    ObsParams p;
    p.trace = true;
    p.traceStart = 100;
    p.traceEnd = 200;
    p.ringCapacity = 16;
    ObsRun obs(p);
    obs.onWarpIssue(0, 0, 0, 32, 50);    // before the window
    obs.onWarpIssue(0, 0, 0, 32, 100);   // first cycle inside
    obs.onWarpIssue(0, 0, 0, 32, 199);   // last cycle inside
    obs.onWarpIssue(0, 0, 0, 32, 200);   // END is exclusive
    EXPECT_EQ(obs.ring().size(), 2u);
    EXPECT_EQ(obs.ring().at(0).cycle, 100u);
    EXPECT_EQ(obs.ring().at(1).cycle, 199u);
}

// -------------------------------------------------- mini JSON checker

/**
 * Minimal recursive-descent JSON validator: enough to prove exported
 * documents are well-formed without pulling in a JSON library.
 */
class MiniJson
{
  public:
    explicit MiniJson(std::string_view s) : s_(s) {}

    bool
    valid()
    {
        skipWs();
        if (!parseValue())
            return false;
        skipWs();
        return pos_ == s_.size();
    }

  private:
    bool eof() const { return pos_ >= s_.size(); }
    char peek() const { return s_[pos_]; }

    void
    skipWs()
    {
        while (!eof() && (peek() == ' ' || peek() == '\n' ||
                          peek() == '\t' || peek() == '\r'))
            ++pos_;
    }

    bool
    literal(std::string_view word)
    {
        if (s_.substr(pos_, word.size()) != word)
            return false;
        pos_ += word.size();
        return true;
    }

    bool
    parseString()
    {
        if (eof() || peek() != '"')
            return false;
        ++pos_;
        while (!eof() && peek() != '"') {
            if (peek() == '\\') {
                ++pos_;
                if (eof())
                    return false;
            }
            ++pos_;
        }
        if (eof())
            return false;
        ++pos_;                     // closing quote
        return true;
    }

    bool
    parseNumber()
    {
        const std::size_t start = pos_;
        if (!eof() && (peek() == '-' || peek() == '+'))
            ++pos_;
        while (!eof() &&
               ((peek() >= '0' && peek() <= '9') || peek() == '.' ||
                peek() == 'e' || peek() == 'E' || peek() == '-' ||
                peek() == '+'))
            ++pos_;
        return pos_ > start;
    }

    bool
    parseValue()
    {
        if (eof())
            return false;
        switch (peek()) {
          case '{': return parseObject();
          case '[': return parseArray();
          case '"': return parseString();
          case 't': return literal("true");
          case 'f': return literal("false");
          case 'n': return literal("null");
          default: return parseNumber();
        }
    }

    bool
    parseObject()
    {
        ++pos_;                     // '{'
        skipWs();
        if (!eof() && peek() == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (!parseString())
                return false;
            skipWs();
            if (eof() || peek() != ':')
                return false;
            ++pos_;
            skipWs();
            if (!parseValue())
                return false;
            skipWs();
            if (eof())
                return false;
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    parseArray()
    {
        ++pos_;                     // '['
        skipWs();
        if (!eof() && peek() == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (!parseValue())
                return false;
            skipWs();
            if (eof())
                return false;
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    std::string_view s_;
    std::size_t pos_ = 0;
};

TEST(MiniJsonSelfTest, AcceptsAndRejects)
{
    EXPECT_TRUE(MiniJson("{\"a\": [1, -2.5e3, null, \"x\\\"y\"]}")
                    .valid());
    EXPECT_TRUE(MiniJson("[]").valid());
    EXPECT_FALSE(MiniJson("{\"a\": }").valid());
    EXPECT_FALSE(MiniJson("[1, 2").valid());
    EXPECT_FALSE(MiniJson("{} trailing").valid());
}

// ------------------------------------------------- Chrome trace export

class ObsTraceTest : public ::testing::Test
{
  protected:
    ObsTraceTest() : gmem_(8 << 20), cmem_(64) {}

    /** Uniform write, divergent rewrite, store — triggers the
     *  write-uncompressed policy's dummy decompress-MOVs. */
    Kernel
    divergentRewriteKernel(u64 out)
    {
        KernelBuilder b("divrw");
        Reg lane = b.newReg(), v = b.newReg();
        Pred p = b.newPred();
        b.s2r(lane, SpecialReg::LaneId);
        b.movImm(v, 7);
        b.isetp(p, CmpOp::Lt, lane, KernelBuilder::imm(16));
        b.if_(p, [&] { b.iadd(v, v, KernelBuilder::imm(1)); });
        Reg tid = b.newReg(), bid = b.newReg(), ntid = b.newReg();
        b.s2r(tid, SpecialReg::TidX);
        b.s2r(bid, SpecialReg::CtaIdX);
        b.s2r(ntid, SpecialReg::NTidX);
        Reg gid = b.newReg(), addr = b.newReg();
        b.imad(gid, bid, ntid, tid);
        b.imad(addr, gid, KernelBuilder::imm(4),
               KernelBuilder::imm(static_cast<i32>(out)));
        b.stg(addr, v);
        return b.build();
    }

    /** Run the divergent kernel traced and export its Chrome trace. */
    std::string
    tracedRun(CompressionScheme scheme)
    {
        GpuParams gp;
        gp.numSms = 1;
        gp.sm.scheme = scheme;
        gp.sm.applyScheme();
        gp.obs.trace = true;
        gp.obs.windowInterval = 100;
        const u64 out = gmem_.alloc(4 * 256);
        const Kernel k = divergentRewriteKernel(out);
        Gpu gpu(gp, gmem_, cmem_);
        RunResult run = gpu.run(k, {128, 2});
        EXPECT_NE(run.obs, nullptr);

        ChromeTraceMeta meta;
        meta.workload = "divrw";
        meta.config = schemeName(scheme);
        meta.numSms = gp.numSms;
        meta.numBanks = gp.sm.regfile.numBanks;
        meta.cycles = run.cycles;
        std::ostringstream os;
        writeChromeTrace(os, *run.obs, meta);
        return os.str();
    }

    GlobalMemory gmem_;
    ConstantMemory cmem_;
};

TEST_F(ObsTraceTest, WarpedTraceHasCompressionAndGatingEvents)
{
    const std::string trace = tracedRun(CompressionScheme::Warped);
    EXPECT_TRUE(MiniJson(trace).valid()) << "trace is not valid JSON";
    // Warp-lane pipeline events of the compressed design.
    EXPECT_NE(trace.find("\"dummy_mov\""), std::string::npos);
    EXPECT_NE(trace.find("\"compress\""), std::string::npos);
    EXPECT_NE(trace.find("\"issue\""), std::string::npos);
    EXPECT_NE(trace.find("\"writeback\""), std::string::npos);
    // Bank-lane power-gate intervals and their lane metadata.
    EXPECT_NE(trace.find("\"gated\""), std::string::npos);
    EXPECT_NE(trace.find("\"bank "), std::string::npos);
    EXPECT_NE(trace.find("\"warp 0\""), std::string::npos);
    // GPU-wide counter tracks from the windowed timelines.
    EXPECT_NE(trace.find("\"compression_ratio\""), std::string::npos);
    EXPECT_NE(trace.find("\"ipc\""), std::string::npos);
}

TEST_F(ObsTraceTest, NoneTraceHasNoDummyMovsOrGating)
{
    const std::string trace = tracedRun(CompressionScheme::None);
    EXPECT_TRUE(MiniJson(trace).valid()) << "trace is not valid JSON";
    // The uncompressed baseline never injects decompress-MOVs and
    // cannot gate banks.
    EXPECT_EQ(trace.find("\"dummy_mov\""), std::string::npos);
    EXPECT_EQ(trace.find("\"gated\""), std::string::npos);
    EXPECT_NE(trace.find("\"issue\""), std::string::npos);
}

TEST_F(ObsTraceTest, TraceIsByteIdenticalAcrossReruns)
{
    const std::string a = tracedRun(CompressionScheme::Warped);
    const std::string b = tracedRun(CompressionScheme::Warped);
    EXPECT_EQ(a, b);
}

// ------------------------------------------------------ no-perturbation

TEST(ObsNoPerturbation, AttachingObsDoesNotChangeTheRun)
{
    ExperimentConfig plain;
    plain.numSms = 2;
    ExperimentConfig observed = plain;
    observed.obs.trace = true;
    observed.obs.windowInterval = 500;

    const RunResult a = runWorkload("stencil", plain).run;
    const RunResult b = runWorkload("stencil", observed).run;
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.stats.issued, b.stats.issued);
    EXPECT_EQ(a.stats.dummyMovs, b.stats.dummyMovs);
    EXPECT_EQ(a.stats.regWrites, b.stats.regWrites);
    EXPECT_EQ(a.stats.writesStoredCompressed,
              b.stats.writesStoredCompressed);
    ASSERT_EQ(a.bankGatedFraction.size(), b.bankGatedFraction.size());
    for (std::size_t i = 0; i < a.bankGatedFraction.size(); ++i)
        EXPECT_DOUBLE_EQ(a.bankGatedFraction[i], b.bankGatedFraction[i]);
    EXPECT_EQ(a.obs, nullptr);
    ASSERT_NE(b.obs, nullptr);
    EXPECT_GT(b.obs->ring().pushed(), 0u);
}

// --------------------------------------------------- stats-json export

TEST(ObsStatsJson, RunDocumentIsValidAndCarriesTimelines)
{
    ExperimentConfig cfg;
    cfg.numSms = 2;
    cfg.obs.windowInterval = 500;
    const RunResult run = runWorkload("stencil", cfg).run;

    std::ostringstream os;
    JsonWriter w(os);
    writeRunStatsJson(w, run, cfg.numSms);
    const std::string doc = os.str();
    EXPECT_TRUE(MiniJson(doc).valid()) << "stats dump is not valid JSON";
    EXPECT_NE(doc.find("\"timelines\""), std::string::npos);
    EXPECT_NE(doc.find("\"compression_ratio\""), std::string::npos);
    EXPECT_NE(doc.find("\"energy\""), std::string::npos);
    EXPECT_NE(doc.find("\"similarity\""), std::string::npos);
}

TEST(ObsStatsJson, ByteIdenticalAcrossRerunsAndThreadCounts)
{
    ExperimentConfig cfg;
    cfg.numSms = 2;
    cfg.obs.windowInterval = 500;
    const std::vector<std::string> names = {"stencil", "lud"};

    const auto serialize = [&](const std::vector<ExperimentResult> &rs) {
        std::ostringstream os;
        JsonWriter w(os);
        w.beginArray();
        for (const ExperimentResult &r : rs) {
            w.beginObject();
            w.field("workload", r.workload);
            w.key("run");
            writeRunStatsJson(w, r.run, cfg.numSms);
            w.endObject();
        }
        w.endArray();
        return os.str();
    };

    const std::string serial = serialize(runWorkloadsParallel(names, cfg, 1));
    const std::string rerun = serialize(runWorkloadsParallel(names, cfg, 1));
    const std::string threaded =
        serialize(runWorkloadsParallel(names, cfg, 4));
    EXPECT_EQ(serial, rerun);
    EXPECT_EQ(serial, threaded);
}

} // namespace
} // namespace warpcomp
