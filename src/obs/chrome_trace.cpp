#include "obs/chrome_trace.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstring>
#include <optional>
#include <string_view>

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

/*
 * Per-event objects (one per instant event, two per gate interval) are
 * the bulk of the document, so each is formatted from a fixed layout
 * into a stack buffer and spliced in with JsonWriter::rawValue, which
 * still owns the separating comma and the element's newline+indent.
 * The literals below are exactly what the Pretty style writes for an
 * object at depth 2 (an element of "traceEvents"); the golden tests pin
 * those bytes.
 */

/** `{` through `"ts": ` of an instant event named @p name. */
#define WC_INSTANT_HEAD(name)                                           \
    "{\n      \"name\": \"" name "\",\n      \"ph\": \"i\",\n"          \
    "      \"s\": \"t\",\n      \"ts\": "
/** `{` through `"ts": ` of a complete event named @p name. */
#define WC_COMPLETE_HEAD(name)                                          \
    "{\n      \"name\": \"" name "\",\n      \"ph\": \"X\",\n"          \
    "      \"ts\": "
/** One member of an instant event's args object, up to its value. */
#define WC_ARG_KEY(key) "\n        \"" key "\": "

constexpr std::string_view kDurKey = ",\n      \"dur\": ";
constexpr std::string_view kPidKey = ",\n      \"pid\": ";
constexpr std::string_view kTidKey = ",\n      \"tid\": ";
constexpr std::string_view kArgsOpen = ",\n      \"args\": {";
constexpr std::string_view kArgsClose = "\n      }\n    }";
constexpr std::string_view kNoArgsTail = ",\n      \"args\": {}\n    }";
constexpr std::string_view kCompleteTail = "\n    }";

/** Decimal digits of the largest u64; also covers "false". */
constexpr std::size_t kMaxValueChars = 20;

/** Where an args member's value comes from. */
enum class ArgValue : u8 { A, B, C, BIsSet };

struct ArgLayout
{
    std::string_view key;   ///< WC_ARG_KEY literal; empty ends the list
    ArgValue value = ArgValue::A;
};

struct InstantLayout
{
    TraceEventKind kind;
    std::string_view head;
    std::array<ArgLayout, 3> args{};
};

/** Instant-event layout of every kind, indexed by TraceEventKind. The
 *  names are traceEventName()'s. GateOff/GateWake never reach it (they
 *  fold into intervals); their rows only keep the table dense. */
constexpr std::array<InstantLayout, kNumTraceEventKinds> kInstantLayouts{{
    {TraceEventKind::WarpIssue, WC_INSTANT_HEAD("issue"),
     {{{WC_ARG_KEY("pc"), ArgValue::A},
       {WC_ARG_KEY("lanes"), ArgValue::B}}}},
    {TraceEventKind::DummyMov, WC_INSTANT_HEAD("dummy_mov"),
     {{{WC_ARG_KEY("dst"), ArgValue::A}}}},
    {TraceEventKind::CompressDecision, WC_INSTANT_HEAD("compress"),
     {{{WC_ARG_KEY("achieved_bytes"), ArgValue::A},
       {WC_ARG_KEY("stored_bytes"), ArgValue::B},
       {WC_ARG_KEY("reg"), ArgValue::C}}}},
    {TraceEventKind::Decompress, WC_INSTANT_HEAD("decompress"), {}},
    {TraceEventKind::OperandCollect, WC_INSTANT_HEAD("collect"),
     {{{WC_ARG_KEY("ops"), ArgValue::A},
       {WC_ARG_KEY("compressed_srcs"), ArgValue::B}}}},
    {TraceEventKind::Writeback, WC_INSTANT_HEAD("writeback"),
     {{{WC_ARG_KEY("banks"), ArgValue::A},
       {WC_ARG_KEY("compressed"), ArgValue::BIsSet}}}},
    {TraceEventKind::GateOff, WC_INSTANT_HEAD("gate_off"), {}},
    {TraceEventKind::GateWake, WC_INSTANT_HEAD("gate_wake"), {}},
    {TraceEventKind::SeuCorruption, WC_INSTANT_HEAD("seu_corruption"),
     {{{WC_ARG_KEY("lanes"), ArgValue::A},
       {WC_ARG_KEY("amplified"), ArgValue::BIsSet}}}},
    {TraceEventKind::ScrubVisit, WC_INSTANT_HEAD("scrub"),
     {{{WC_ARG_KEY("banks"), ArgValue::A}}}},
    {TraceEventKind::FaultCorruptedWrite,
     WC_INSTANT_HEAD("fault_corrupted_write"), {}},
    {TraceEventKind::BankConflict, WC_INSTANT_HEAD("bank_conflict"),
     {{{WC_ARG_KEY("warp"), ArgValue::A}}}},
}};

constexpr std::string_view kGatedHead = WC_COMPLETE_HEAD("gated");
constexpr std::string_view kWakingHead = WC_COMPLETE_HEAD("waking");

#undef WC_INSTANT_HEAD
#undef WC_COMPLETE_HEAD
#undef WC_ARG_KEY

constexpr bool
layoutsIndexedByKind()
{
    for (std::size_t i = 0; i < kInstantLayouts.size(); ++i)
        if (static_cast<std::size_t>(kInstantLayouts[i].kind) != i)
            return false;
    return true;
}
static_assert(layoutsIndexedByKind(),
              "kInstantLayouts must list the kinds in enum order");

constexpr std::size_t
instantBytes(const InstantLayout &l)
{
    std::size_t n = l.head.size() + kPidKey.size() + kTidKey.size() +
                    3 * kMaxValueChars;
    if (l.args[0].key.empty())
        return n + kNoArgsTail.size();
    n += kArgsOpen.size() + kArgsClose.size();
    for (const ArgLayout &arg : l.args)
        if (!arg.key.empty())
            n += 1 + arg.key.size() + kMaxValueChars; // 1: the comma
    return n;
}

/** Bytes of the largest per-event object any layout can produce. */
constexpr std::size_t
maxEventBytes()
{
    std::size_t n = std::max(kGatedHead.size(), kWakingHead.size()) +
                    kDurKey.size() + kPidKey.size() + kTidKey.size() +
                    kCompleteTail.size() + 4 * kMaxValueChars;
    for (const InstantLayout &l : kInstantLayouts)
        n = std::max(n, instantBytes(l));
    return n;
}

/** One per-event object, formatted on the stack. */
class EventBytes
{
  public:
    void
    lit(std::string_view s)
    {
        std::memcpy(end_, s.data(), s.size());
        end_ += s.size();
    }

    void
    num(u64 v)
    {
        end_ = std::to_chars(end_, buf_ + sizeof buf_, v).ptr;
    }

    void put(char c) { *end_++ = c; }

    std::string_view
    view() const
    {
        return {buf_, static_cast<std::size_t>(end_ - buf_)};
    }

  private:
    char buf_[maxEventBytes()];
    char *end_ = buf_;
};

void
instantEvent(JsonWriter &w, const TraceEvent &ev)
{
    const InstantLayout &l = kInstantLayouts[static_cast<u32>(ev.kind)];
    EventBytes out;
    out.lit(l.head);
    out.num(static_cast<u64>(ev.cycle));
    out.lit(kPidKey);
    out.num(pidOfSm(ev.sm));
    out.lit(kTidKey);
    out.num(tidOf(ev));
    if (l.args[0].key.empty()) {
        out.lit(kNoArgsTail);
    } else {
        out.lit(kArgsOpen);
        for (std::size_t i = 0; i < l.args.size() && !l.args[i].key.empty();
             ++i) {
            if (i > 0)
                out.put(',');
            out.lit(l.args[i].key);
            switch (l.args[i].value) {
              case ArgValue::A: out.num(ev.a); break;
              case ArgValue::B: out.num(ev.b); break;
              case ArgValue::C: out.num(ev.c); break;
              case ArgValue::BIsSet:
                out.lit(ev.b != 0 ? "true" : "false");
                break;
            }
        }
        out.lit(kArgsClose);
    }
    w.rawValue(out.view());
}

/** A "gated"/"waking" interval; @p head is kGatedHead or kWakingHead. */
void
completeEvent(JsonWriter &w, std::string_view head, u32 pid, u32 tid,
              Cycle start, Cycle end)
{
    EventBytes out;
    out.lit(head);
    out.num(static_cast<u64>(start));
    out.lit(kDurKey);
    out.num(static_cast<u64>(end > start ? end - start : 0));
    out.lit(kPidKey);
    out.num(pid);
    out.lit(kTidKey);
    out.num(tid);
    out.lit(kCompleteTail);
    w.rawValue(out.view());
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
            const u32 pid = pidOfSm(ev.sm);
            completeEvent(w, kGatedHead, pid, kBankLaneBase + ev.lane,
                          off_at, ev.cycle);
            completeEvent(w, kWakingHead, pid, kBankLaneBase + ev.lane,
                          ev.cycle, ev.cycle + ev.a);
            continue;
        }
        instantEvent(w, ev);
    }
    // Banks still gated when the run (or the traced window) ended.
    for (std::size_t i = 0; i < bank_lanes.size(); ++i) {
        if (open_off[i].has_value())
            completeEvent(w, kGatedHead, pidOfSm(smOfKey(bank_lanes[i])),
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
