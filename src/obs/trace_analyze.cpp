#include "obs/trace_analyze.hpp"

#include <algorithm>
#include <vector>

#include "common/json_writer.hpp"
#include "common/key_index.hpp"
#include "obs/chrome_trace.hpp"

namespace warpcomp {

namespace {

/** Provenance echo shared by every report, so each artifact is
 *  self-describing on its own. */
void
metaBlock(JsonWriter &w, const TraceDump &dump)
{
    w.key("meta");
    w.beginObject();
    w.field("git_sha", dump.meta.gitSha);
    w.field("workload", dump.meta.workload);
    w.field("frontend", dump.meta.frontend);
    w.field("image_sha256", dump.meta.imageSha);
    w.field("config", dump.meta.config);
    w.field("sms", dump.meta.numSms);
    w.field("banks", dump.meta.numBanks);
    w.field("window_interval", dump.meta.windowInterval);
    w.field("trace_start", static_cast<u64>(dump.meta.traceStart));
    w.field("trace_end", static_cast<u64>(dump.meta.traceEnd));
    w.field("cycles", static_cast<u64>(dump.cycles));
    w.endObject();
}

struct StallBuckets
{
    u64 collectorRetry = 0;
    u64 decompressPenalty = 0;
    u64 scoreboard = 0;
    u64 issueBlocked = 0;
};

void
stallFields(JsonWriter &w, const StallBuckets &b)
{
    w.key("stall_cycles");
    w.beginObject();
    w.field("collector_retry", b.collectorRetry);
    w.field("decompress_penalty", b.decompressPenalty);
    w.field("scoreboard", b.scoreboard);
    w.field("issue_blocked", b.issueBlocked);
    w.endObject();
}

/** (sm, lane) packed so that ascending keys order by SM, then lane. */
u64
smLaneKey(u16 sm, u16 lane)
{
    return u64{sm} << 16 | lane;
}

/**
 * Per-key aggregates in a flat table: one KeyIndex lookup per event,
 * and the keys are sorted once, when the report is written.
 */
template <typename Agg>
class Grouped
{
  public:
    Agg &
    operator[](u64 key)
    {
        const u32 i = index_.intern(key);
        if (i == aggs_.size())
            aggs_.emplace_back();
        return aggs_[i];
    }

    /** Call @p fn(key, agg) for every key, in ascending key order. */
    template <typename Fn>
    void
    forEachSorted(Fn fn)
    {
        for (const u32 i : index_.sortedIndices())
            fn(index_.keys()[i], aggs_[i]);
    }

  private:
    KeyIndex index_;
    std::vector<Agg> aggs_;
};

/** Forward cursor over one chronological cycle stream. The gaps it is
 *  asked about arrive in order, so each stream is walked once. */
class StreamCursor
{
  public:
    explicit StreamCursor(const std::vector<Cycle> &cycles)
        : it_(cycles.begin()), end_(cycles.end())
    {
    }

    /** Count the values in (@p lo, @p hi) and move past them; the last
     *  one goes to @p last when there is any. @p lo never decreases
     *  from one call to the next. */
    u64
    take(Cycle lo, Cycle hi, Cycle *last = nullptr)
    {
        while (it_ != end_ && *it_ <= lo)
            ++it_;
        u64 n = 0;
        for (; it_ != end_ && *it_ < hi; ++it_, ++n)
            if (last != nullptr)
                *last = *it_;
        return n;
    }

  private:
    std::vector<Cycle>::const_iterator it_;
    std::vector<Cycle>::const_iterator end_;
};

} // namespace

void
writeDumpSummary(std::ostream &os, const TraceDump &dump)
{
    u64 by_kind[kNumTraceEventKinds] = {};
    for (const TraceEvent &ev : dump.events)
        ++by_kind[static_cast<u32>(ev.kind)];

    WindowRow tot;
    for (const WindowRow &r : dump.windows) {
        tot.issued += r.issued;
        tot.dummyMovs += r.dummyMovs;
        tot.regWrites += r.regWrites;
        tot.storedBytes += r.storedBytes;
        tot.rawBytes += r.rawBytes;
        tot.gatedBankCycles += r.gatedBankCycles;
        tot.bankCycles += r.bankCycles;
        tot.smCycles += r.smCycles;
    }

    JsonWriter w(os);
    w.beginObject();
    w.field("report", "summary");
    metaBlock(w, dump);
    w.field("events", static_cast<u64>(dump.events.size()));
    w.field("windows", static_cast<u64>(dump.windows.size()));
    w.key("events_by_kind");
    w.beginObject();
    for (u32 k = 0; k < kNumTraceEventKinds; ++k)
        w.field(traceEventName(static_cast<TraceEventKind>(k)),
                by_kind[k]);
    w.endObject();
    w.key("window_totals");
    w.beginObject();
    w.field("issued", tot.issued);
    w.field("dummy_movs", tot.dummyMovs);
    w.field("reg_writes", tot.regWrites);
    w.field("stored_bytes", tot.storedBytes);
    w.field("raw_bytes", tot.rawBytes);
    w.field("compression_ratio",
            tot.storedBytes > 0
                ? static_cast<double>(tot.rawBytes) /
                      static_cast<double>(tot.storedBytes)
                : 0.0);
    w.field("gated_bank_fraction",
            tot.bankCycles > 0
                ? static_cast<double>(tot.gatedBankCycles) /
                      static_cast<double>(tot.bankCycles)
                : 0.0);
    w.field("ipc",
            tot.smCycles > 0
                ? static_cast<double>(tot.issued) *
                      static_cast<double>(
                          dump.meta.numSms > 0 ? dump.meta.numSms : 1) /
                      static_cast<double>(tot.smCycles)
                : 0.0);
    w.endObject();
    w.endObject();
    os << '\n';
}

void
writeBankHeatmap(std::ostream &os, const TraceDump &dump)
{
    const u32 bucket = dump.meta.windowInterval > 0
                           ? dump.meta.windowInterval
                           : kHeatmapFallbackBucket;
    const u64 buckets =
        dump.cycles > 0 ? (static_cast<u64>(dump.cycles) - 1) / bucket + 1
                        : 0;

    // Per-bucket conflict counts of the (sm, bank) rows that saw a
    // conflict.
    Grouped<std::vector<u64>> rows;
    for (const TraceEvent &ev : dump.events) {
        if (ev.kind != TraceEventKind::BankConflict)
            continue;
        std::vector<u64> &counts = rows[smLaneKey(ev.sm, ev.lane)];
        if (counts.empty())
            counts.assign(static_cast<std::size_t>(buckets), 0);
        const std::size_t b =
            static_cast<std::size_t>(ev.cycle / bucket);
        if (b < counts.size())
            counts[b] += 1;
    }

    JsonWriter w(os);
    w.beginObject();
    w.field("report", "heatmap");
    metaBlock(w, dump);
    w.field("bucket_cycles", bucket);
    w.field("buckets", buckets);
    w.key("rows");
    w.beginArray();
    u64 grand_total = 0;
    auto row = [&](u64 key, const std::vector<u64> *counts) {
        u64 total = 0;
        if (counts != nullptr)
            for (u64 c : *counts)
                total += c;
        grand_total += total;
        w.beginObject();
        w.field("sm", static_cast<u16>(key >> 16));
        w.field("bank", static_cast<u16>(key & 0xFFFF));
        w.field("conflicts", total);
        w.key("per_bucket");
        w.beginArray();
        for (u64 b = 0; b < buckets; ++b)
            w.value(counts != nullptr ? (*counts)[b] : u64{0});
        w.endArray();
        w.endObject();
    };
    // Every bank of every SM in the header gets a row, so the matrix
    // shape is run-independent. Grid cells without a conflict are
    // written as zero rows on the fly, merged in (sm, bank) order with
    // the stored rows.
    const u32 banks = dump.meta.numBanks;
    const u64 grid = u64{dump.meta.numSms} * banks;
    auto grid_key = [&](u64 cell) {
        return smLaneKey(static_cast<u16>(cell / banks),
                         static_cast<u16>(cell % banks));
    };
    u64 cell = 0;
    rows.forEachSorted([&](u64 key, const std::vector<u64> &counts) {
        for (; cell < grid && grid_key(cell) <= key; ++cell)
            if (grid_key(cell) != key)
                row(grid_key(cell), nullptr);
        row(key, &counts);
    });
    for (; cell < grid; ++cell)
        row(grid_key(cell), nullptr);
    w.endArray();
    w.field("total_conflicts", grand_total);
    w.endObject();
    os << '\n';
}

void
writeStallReport(std::ostream &os, const TraceDump &dump)
{
    // Per-(sm, warp slot) chronological cycle streams.
    struct WarpStreams
    {
        std::vector<Cycle> issues;      // WarpIssue + DummyMov
        std::vector<Cycle> conflicts;   // BankConflict (ev.a = warp)
        std::vector<Cycle> decompress;  // Decompress
        std::vector<Cycle> writebacks;  // Writeback
    };
    Grouped<WarpStreams> warps;
    for (const TraceEvent &ev : dump.events) {
        switch (ev.kind) {
          case TraceEventKind::WarpIssue:
          case TraceEventKind::DummyMov:
            warps[smLaneKey(ev.sm, ev.lane)].issues.push_back(ev.cycle);
            break;
          case TraceEventKind::BankConflict:
            warps[smLaneKey(ev.sm, static_cast<u16>(ev.a))]
                .conflicts.push_back(ev.cycle);
            break;
          case TraceEventKind::Decompress:
            warps[smLaneKey(ev.sm, ev.lane)].decompress.push_back(
                ev.cycle);
            break;
          case TraceEventKind::Writeback:
            warps[smLaneKey(ev.sm, ev.lane)].writebacks.push_back(
                ev.cycle);
            break;
          default:
            break;
        }
    }

    const u64 dlat = dump.meta.decompressLatency;
    StallBuckets grand;
    u64 grand_issues = 0;

    JsonWriter w(os);
    w.beginObject();
    w.field("report", "stalls");
    metaBlock(w, dump);
    w.field("decompress_latency", dump.meta.decompressLatency);
    w.key("attribution");
    w.value("per inter-issue gap, in priority order: one cycle per "
            "bank-conflict retry, decompress_latency per decompressor "
            "activation, cycles up to the warp's last writeback in the "
            "gap (scoreboard), remainder issue-blocked");
    w.key("warps");
    w.beginArray();
    warps.forEachSorted([&](u64 key, const WarpStreams &ws) {
        if (ws.issues.empty())
            return; // conflicts recorded against a warp that never
                    // issued in-window: nothing to attribute
        StallBuckets b;
        // Gaps are visited in order, so one forward cursor per stream
        // counts conflicts in (t0, t1), decompressions in (t0, t1] and
        // finds the last writeback in (t0, t1).
        StreamCursor conflicts(ws.conflicts);
        StreamCursor decompress(ws.decompress);
        StreamCursor writebacks(ws.writebacks);
        for (std::size_t i = 1; i < ws.issues.size(); ++i) {
            const Cycle t0 = ws.issues[i - 1];
            const Cycle t1 = ws.issues[i];
            if (t1 <= t0 + 1)
                continue;
            u64 gap = t1 - t0 - 1;

            const u64 retry_c = std::min(gap, conflicts.take(t0, t1));
            b.collectorRetry += retry_c;
            gap -= retry_c;

            const u64 dec = decompress.take(t0, t1 + 1);
            const u64 dec_c = std::min(gap, dec * dlat);
            b.decompressPenalty += dec_c;
            gap -= dec_c;

            Cycle wl = 0;
            if (writebacks.take(t0, t1, &wl) > 0) {
                const u64 sb = std::min(gap, wl - t0);
                b.scoreboard += sb;
                gap -= sb;
            }
            b.issueBlocked += gap;
        }
        grand.collectorRetry += b.collectorRetry;
        grand.decompressPenalty += b.decompressPenalty;
        grand.scoreboard += b.scoreboard;
        grand.issueBlocked += b.issueBlocked;
        grand_issues += ws.issues.size();

        w.beginObject();
        w.field("sm", static_cast<u16>(key >> 16));
        w.field("warp", static_cast<u16>(key & 0xFFFF));
        w.field("issues", static_cast<u64>(ws.issues.size()));
        w.field("first_issue", static_cast<u64>(ws.issues.front()));
        w.field("last_issue", static_cast<u64>(ws.issues.back()));
        w.field("bank_conflicts",
                static_cast<u64>(ws.conflicts.size()));
        w.field("decompress_activations",
                static_cast<u64>(ws.decompress.size()));
        stallFields(w, b);
        w.endObject();
    });
    w.endArray();
    w.key("totals");
    w.beginObject();
    w.field("issues", grand_issues);
    stallFields(w, grand);
    w.endObject();
    w.endObject();
    os << '\n';
}

void
writeDecisionReport(std::ostream &os, const TraceDump &dump)
{
    // Per-register encode timeline: CompressDecision carries the
    // destination register in ev.c, achieved/stored bytes in a/b.
    struct RegAgg
    {
        u64 decisions = 0;
        u64 transitions = 0;   // stored size changed vs previous write
        u64 compressed = 0;    // stored < 128 B (kWarpRegBytes)
        u32 minStored = ~0u;
        u32 maxStored = 0;
        Cycle first = 0;
        Cycle last = 0;
        u32 lastStored = ~0u;
    };
    Grouped<RegAgg> regs; // key: (sm, warp, reg), 16 bits each

    // Dummy-MOV bursts per warp: maximal runs with inter-event gap
    // ≤ kDummyMovBurstGap cycles.
    struct BurstAgg
    {
        u64 total = 0;
        u64 bursts = 0;
        u64 longest = 0;
        u64 current = 0;
        Cycle lastCycle = 0;
    };
    Grouped<BurstAgg> bursts;

    for (const TraceEvent &ev : dump.events) {
        if (ev.kind == TraceEventKind::CompressDecision) {
            RegAgg &r = regs[(smLaneKey(ev.sm, ev.lane) << 16) | ev.c];
            if (r.decisions == 0)
                r.first = ev.cycle;
            else if (ev.b != r.lastStored)
                ++r.transitions;
            ++r.decisions;
            if (ev.b < kWarpRegBytes)
                ++r.compressed;
            r.minStored = std::min(r.minStored, ev.b);
            r.maxStored = std::max(r.maxStored, ev.b);
            r.last = ev.cycle;
            r.lastStored = ev.b;
        } else if (ev.kind == TraceEventKind::DummyMov) {
            BurstAgg &bu = bursts[smLaneKey(ev.sm, ev.lane)];
            if (bu.total == 0 ||
                ev.cycle > bu.lastCycle + kDummyMovBurstGap) {
                ++bu.bursts;
                bu.longest = std::max(bu.longest, bu.current);
                bu.current = 0;
            }
            ++bu.current;
            ++bu.total;
            bu.lastCycle = ev.cycle;
        }
    }

    u64 total_decisions = 0, total_transitions = 0, total_movs = 0;

    JsonWriter w(os);
    w.beginObject();
    w.field("report", "decisions");
    metaBlock(w, dump);
    w.field("burst_gap_cycles", kDummyMovBurstGap);
    w.key("registers");
    w.beginArray();
    regs.forEachSorted([&](u64 key, const RegAgg &r) {
        total_decisions += r.decisions;
        total_transitions += r.transitions;
        w.beginObject();
        w.field("sm", static_cast<u16>(key >> 32));
        w.field("warp", static_cast<u16>((key >> 16) & 0xFFFF));
        w.field("reg", static_cast<u16>(key & 0xFFFF));
        w.field("decisions", r.decisions);
        w.field("transitions", r.transitions);
        w.field("compressed_decisions", r.compressed);
        w.field("min_stored_bytes", r.minStored);
        w.field("max_stored_bytes", r.maxStored);
        w.field("first_cycle", static_cast<u64>(r.first));
        w.field("last_cycle", static_cast<u64>(r.last));
        w.endObject();
    });
    w.endArray();
    w.key("dummy_mov_bursts");
    w.beginArray();
    bursts.forEachSorted([&](u64 key, BurstAgg &bu) {
        bu.longest = std::max(bu.longest, bu.current);
        total_movs += bu.total;
        w.beginObject();
        w.field("sm", static_cast<u16>(key >> 16));
        w.field("warp", static_cast<u16>(key & 0xFFFF));
        w.field("bursts", bu.bursts);
        w.field("longest", bu.longest);
        w.field("total_movs", bu.total);
        w.endObject();
    });
    w.endArray();
    w.key("totals");
    w.beginObject();
    w.field("decisions", total_decisions);
    w.field("transitions", total_transitions);
    w.field("dummy_movs", total_movs);
    w.endObject();
    w.endObject();
    os << '\n';
}

void
writeDumpChromeTrace(std::ostream &os, const TraceDump &dump)
{
    const ChromeTraceView view{dump.events,
                               dump.windows,
                               dump.meta.windowInterval,
                               dump.meta.traceStart,
                               dump.meta.traceEnd,
                               0};
    ChromeTraceMeta meta;
    meta.workload = dump.meta.workload;
    meta.config = dump.meta.config;
    meta.numSms = dump.meta.numSms;
    meta.numBanks = dump.meta.numBanks;
    meta.cycles = dump.cycles;
    writeChromeTrace(os, view, meta);
}

} // namespace warpcomp
