#include "obs/chrome_trace.hpp"

#include <algorithm>
#include <optional>

#include "common/json_writer.hpp"

namespace warpcomp {

namespace {

/** pid 0 is the GPU-wide counter track; SM i maps to pid i+1. */
u32
pidOfSm(u16 sm)
{
    return static_cast<u32>(sm) + 1;
}

bool
isBankLaneEvent(TraceEventKind kind)
{
    switch (kind) {
      case TraceEventKind::GateOff:
      case TraceEventKind::GateWake:
      case TraceEventKind::ScrubVisit:
      case TraceEventKind::BankConflict:
        return true;
      default:
        return false;
    }
}

u32
tidOf(const TraceEvent &ev)
{
    return isBankLaneEvent(ev.kind) ? kBankLaneBase + ev.lane : ev.lane;
}

/** (sm, lane) packed so that sorting orders by SM, then lane. */
u32
laneKey(u16 sm, u16 lane)
{
    return static_cast<u32>(sm) << 16 | lane;
}

u16
smOfKey(u32 key)
{
    return static_cast<u16>(key >> 16);
}

u16
laneOfKey(u32 key)
{
    return static_cast<u16>(key & 0xFFFF);
}

void
sortUnique(std::vector<u32> &keys)
{
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
}

/** Position of @p key in the sorted, duplicate-free @p keys. */
std::size_t
indexOf(const std::vector<u32> &keys, u32 key)
{
    return static_cast<std::size_t>(
        std::lower_bound(keys.begin(), keys.end(), key) - keys.begin());
}

void
metadataEvent(JsonWriter &w, const char *name, u32 pid, u32 tid,
              const char *arg_key, const std::string &arg_value)
{
    w.beginObject();
    w.field("name", name);
    w.field("ph", "M");
    w.field("pid", pid);
    w.field("tid", tid);
    w.key("args");
    w.beginObject();
    w.field(arg_key, arg_value);
    w.endObject();
    w.endObject();
}

void
completeEvent(JsonWriter &w, const char *name, u32 pid, u32 tid,
              Cycle start, Cycle end)
{
    w.beginObject();
    w.field("name", name);
    w.field("ph", "X");
    w.field("ts", static_cast<u64>(start));
    w.field("dur", static_cast<u64>(end > start ? end - start : 0));
    w.field("pid", pid);
    w.field("tid", tid);
    w.endObject();
}

void
counterEvent(JsonWriter &w, const char *name, Cycle ts,
             const char *value_key, double value)
{
    w.beginObject();
    w.field("name", name);
    w.field("ph", "C");
    w.field("ts", static_cast<u64>(ts));
    w.field("pid", 0u);
    w.field("tid", 0u);
    w.key("args");
    w.beginObject();
    w.field(value_key, value);
    w.endObject();
    w.endObject();
}

/** Per-kind args object for instant pipeline/bank events. */
void
eventArgs(JsonWriter &w, const TraceEvent &ev)
{
    w.key("args");
    w.beginObject();
    switch (ev.kind) {
      case TraceEventKind::WarpIssue:
        w.field("pc", ev.a);
        w.field("lanes", ev.b);
        break;
      case TraceEventKind::DummyMov:
        w.field("dst", ev.a);
        break;
      case TraceEventKind::CompressDecision:
        w.field("achieved_bytes", ev.a);
        w.field("stored_bytes", ev.b);
        w.field("reg", ev.c);
        break;
      case TraceEventKind::OperandCollect:
        w.field("ops", ev.a);
        w.field("compressed_srcs", ev.b);
        break;
      case TraceEventKind::Writeback:
        w.field("banks", ev.a);
        w.field("compressed", ev.b != 0);
        break;
      case TraceEventKind::SeuCorruption:
        w.field("lanes", ev.a);
        w.field("amplified", ev.b != 0);
        break;
      case TraceEventKind::ScrubVisit:
        w.field("banks", ev.a);
        break;
      case TraceEventKind::GateWake:
        w.field("wakeup_latency", ev.a);
        break;
      case TraceEventKind::BankConflict:
        w.field("warp", ev.a);
        break;
      default:
        break;
    }
    w.endObject();
}

} // namespace

void
writeChromeTrace(std::ostream &os, const ChromeTraceView &view,
                 const ChromeTraceMeta &meta)
{
    const std::vector<TraceEvent> &events = view.events;
    // Gate intervals are clamped to the traced window; a wake with no
    // recorded gate-off means the bank was gated since before the
    // window opened (banks reset gated in the compressed design).
    const Cycle window_start = view.traceStart;
    const Cycle window_end =
        std::min<Cycle>(meta.cycles, view.traceEnd);

    // Pass 1: lanes present, so every lane gets a stable name. Each
    // table is a sorted, duplicate-free vector of (sm, lane) keys;
    // repeats of the previous key are dropped before the sort.
    std::vector<u32> warp_lanes; // (sm, warp slot)
    std::vector<u32> bank_lanes; // (sm, bank)
    for (const TraceEvent &ev : events) {
        std::vector<u32> &lanes =
            isBankLaneEvent(ev.kind) ? bank_lanes : warp_lanes;
        const u32 key = laneKey(ev.sm, ev.lane);
        if (lanes.empty() || lanes.back() != key)
            lanes.push_back(key);
    }
    sortUnique(warp_lanes);
    sortUnique(bank_lanes);
    std::vector<u32> sms;
    for (const u32 key : warp_lanes)
        sms.push_back(smOfKey(key));
    for (const u32 key : bank_lanes)
        sms.push_back(smOfKey(key));
    sortUnique(sms);

    JsonWriter w(os);
    w.beginObject();
    w.key("otherData");
    w.beginObject();
    w.field("workload", meta.workload);
    w.field("config", meta.config);
    w.field("sms", meta.numSms);
    w.field("banks", meta.numBanks);
    w.field("cycles", static_cast<u64>(meta.cycles));
    w.field("trace_start", static_cast<u64>(window_start));
    w.field("trace_end", static_cast<u64>(window_end));
    w.field("events_recorded", static_cast<u64>(events.size()));
    w.field("events_dropped", view.dropped);
    w.field("window_interval", view.windowInterval);
    w.field("timestamp_unit", "cycle");
    w.endObject();

    w.key("traceEvents");
    w.beginArray();

    // Lane metadata. Bank lanes sort after warp lanes via their tid
    // offset; sort indices make Perfetto keep that order.
    const bool have_counters = !view.windows.empty();
    if (have_counters)
        metadataEvent(w, "process_name", 0, 0, "name", "GPU");
    for (const u32 sm : sms) {
        metadataEvent(w, "process_name", pidOfSm(static_cast<u16>(sm)), 0,
                      "name", "SM" + std::to_string(sm));
    }
    for (const u32 key : warp_lanes) {
        const u16 warp = laneOfKey(key);
        metadataEvent(w, "thread_name", pidOfSm(smOfKey(key)), warp,
                      "name", "warp " + std::to_string(warp));
    }
    for (const u32 key : bank_lanes) {
        const u16 bank = laneOfKey(key);
        metadataEvent(w, "thread_name", pidOfSm(smOfKey(key)),
                      kBankLaneBase + bank, "name",
                      "bank " + std::to_string(bank));
    }

    // Pass 2: events in chronological order. Gate-off/wake pairs fold
    // into "gated" intervals on the bank lane (plus a short "waking"
    // interval covering the wakeup latency); everything else is an
    // instant event.
    // open_off[i] is the pending gate-off of bank_lanes[i].
    std::vector<std::optional<Cycle>> open_off(bank_lanes.size());
    for (const TraceEvent &ev : events) {
        const u32 pid = pidOfSm(ev.sm);
        if (ev.kind == TraceEventKind::GateOff) {
            open_off[indexOf(bank_lanes, laneKey(ev.sm, ev.lane))] =
                ev.cycle;
            continue;
        }
        if (ev.kind == TraceEventKind::GateWake) {
            std::optional<Cycle> &off =
                open_off[indexOf(bank_lanes, laneKey(ev.sm, ev.lane))];
            const Cycle off_at = off.value_or(window_start);
            off.reset();
            completeEvent(w, "gated", pid, kBankLaneBase + ev.lane,
                          off_at, ev.cycle);
            completeEvent(w, "waking", pid, kBankLaneBase + ev.lane,
                          ev.cycle, ev.cycle + ev.a);
            continue;
        }

        w.beginObject();
        w.field("name", traceEventName(ev.kind));
        w.field("ph", "i");
        w.field("s", "t");
        w.field("ts", static_cast<u64>(ev.cycle));
        w.field("pid", pid);
        w.field("tid", tidOf(ev));
        eventArgs(w, ev);
        w.endObject();
    }
    // Banks still gated when the run (or the traced window) ended.
    for (std::size_t i = 0; i < bank_lanes.size(); ++i) {
        if (open_off[i].has_value())
            completeEvent(w, "gated", pidOfSm(smOfKey(bank_lanes[i])),
                          kBankLaneBase + laneOfKey(bank_lanes[i]),
                          *open_off[i], window_end);
    }

    // GPU-wide counter tracks from the windowed timelines.
    for (std::size_t i = 0; i < view.windows.size(); ++i) {
        const WindowRow &r = view.windows[i];
        const Cycle ts = static_cast<Cycle>(i) * view.windowInterval;
        const double cycles_in_window = meta.numSms > 0
            ? static_cast<double>(r.smCycles) /
                static_cast<double>(meta.numSms)
            : 0.0;
        counterEvent(w, "ipc", ts, "ipc",
                     cycles_in_window > 0.0
                         ? static_cast<double>(r.issued) /
                               cycles_in_window
                         : 0.0);
        counterEvent(w, "compression_ratio", ts, "ratio",
                     r.storedBytes > 0
                         ? static_cast<double>(r.rawBytes) /
                               static_cast<double>(r.storedBytes)
                         : 0.0);
        counterEvent(w, "gated_banks", ts, "banks",
                     r.smCycles > 0
                         ? static_cast<double>(r.gatedBankCycles) /
                               static_cast<double>(r.smCycles)
                         : 0.0);
    }

    w.endArray();
    w.endObject();
}

void
writeChromeTrace(std::ostream &os, const ObsRun &obs,
                 const ChromeTraceMeta &meta)
{
    const TraceRing &ring = obs.ring();
    std::vector<TraceEvent> events;
    events.reserve(ring.size());
    for (std::size_t i = 0; i < ring.size(); ++i)
        events.push_back(ring.at(i));
    const ChromeTraceView view{events,
                               obs.windows().rows(),
                               obs.windows().interval(),
                               obs.params().traceStart,
                               obs.params().traceEnd,
                               ring.dropped()};
    writeChromeTrace(os, view, meta);
}

} // namespace warpcomp
