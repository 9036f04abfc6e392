#include "obs/chrome_trace.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <system_error>
#include <thread>

#include <pthread.h>
#include <sched.h>

#include "common/json_writer.hpp"
#include "common/key_index.hpp"

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
smOfKey(u64 key)
{
    return static_cast<u16>(key >> 16);
}

u16
laneOfKey(u64 key)
{
    return static_cast<u16>(key & 0xFFFF);
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
 * with memcpy and to_chars, together with the ",\n    " that separates
 * it from the previous element, and spliced in with
 * JsonWriter::rawElements. Each object is compact, on a line of its
 * own at the indent the Pretty style gives an element of "traceEvents"
 * (the metadata and counter objects around them stay Pretty): about
 * half the bytes of the Pretty layout, and a line a tool can parse
 * alone. The golden tests pin those bytes.
 */

/** `{` through `"ts":` of an instant event named @p name. */
#define WC_INSTANT_HEAD(name)                                           \
    "{\"name\":\"" name "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":"
/** `{` through `"ts":` of a complete event named @p name. */
#define WC_COMPLETE_HEAD(name)                                          \
    "{\"name\":\"" name "\",\"ph\":\"X\",\"ts\":"
/** One member of an instant event's args object, up to its value. */
#define WC_ARG_KEY(key) "\"" key "\":"

constexpr std::string_view kElementSep = ",\n    ";
constexpr std::string_view kDurKey = ",\"dur\":";
constexpr std::string_view kPidKey = ",\"pid\":";
constexpr std::string_view kTidKey = ",\"tid\":";
constexpr std::string_view kArgsOpen = ",\"args\":{";
constexpr std::string_view kArgsClose = "}}";
constexpr std::string_view kNoArgsTail = ",\"args\":{}}";
constexpr std::string_view kCompleteTail = "}";

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
    std::size_t n = kElementSep.size() + l.head.size() + kPidKey.size() +
                    kTidKey.size() + 3 * kMaxValueChars;
    if (l.args[0].key.empty())
        return n + kNoArgsTail.size();
    n += kArgsOpen.size() + kArgsClose.size();
    for (const ArgLayout &arg : l.args)
        if (!arg.key.empty())
            n += 1 + arg.key.size() + kMaxValueChars; // 1: the comma
    return n;
}

/** Bytes of the largest separator + per-event object any layout can
 *  produce. */
constexpr std::size_t
maxElementBytes()
{
    std::size_t n = kElementSep.size() +
                    std::max(kGatedHead.size(), kWakingHead.size()) +
                    kDurKey.size() + kPidKey.size() + kTidKey.size() +
                    kCompleteTail.size() + 4 * kMaxValueChars;
    for (const InstantLayout &l : kInstantLayouts)
        n = std::max(n, instantBytes(l));
    return n;
}

/** Appends formatted bytes where its owner made room for them. */
class ByteCursor
{
  public:
    explicit ByteCursor(char *at) : at_(at) {}

    void
    lit(std::string_view s)
    {
        std::memcpy(at_, s.data(), s.size());
        at_ += s.size();
    }

    void
    num(u64 v)
    {
        at_ = std::to_chars(at_, at_ + kMaxValueChars, v).ptr;
    }

    void put(char c) { *at_++ = c; }

    char *at() const { return at_; }

  private:
    char *at_;
};

void
instantEvent(ByteCursor &out, const TraceEvent &ev)
{
    const InstantLayout &l = kInstantLayouts[static_cast<u32>(ev.kind)];
    out.lit(kElementSep);
    out.lit(l.head);
    out.num(static_cast<u64>(ev.cycle));
    out.lit(kPidKey);
    out.num(pidOfSm(ev.sm));
    out.lit(kTidKey);
    out.num(tidOf(ev));
    if (l.args[0].key.empty()) {
        out.lit(kNoArgsTail);
        return;
    }
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

/** A "gated"/"waking" interval; @p head is kGatedHead or kWakingHead. */
void
completeEvent(ByteCursor &out, std::string_view head, u32 pid, u32 tid,
              Cycle start, Cycle end)
{
    out.lit(kElementSep);
    out.lit(head);
    out.num(static_cast<u64>(start));
    out.lit(kDurKey);
    out.num(static_cast<u64>(end > start ? end - start : 0));
    out.lit(kPidKey);
    out.num(pid);
    out.lit(kTidKey);
    out.num(tid);
    out.lit(kCompleteTail);
}

/** Most bytes one block of events can format to: a wake becomes two
 *  objects, anything else at most one. */
constexpr std::size_t kSlabBytes = 2 * kChromeBlockEvents *
                                   maxElementBytes();

/** One formatted block: its bytes and the elements they hold. */
struct BlockBytes
{
    std::string_view bytes;
    std::size_t elements = 0;
};

/**
 * The events split into blocks of kChromeBlockEvents. The gate-off
 * each wake closes was found by a sequential pre-pass, so any block can
 * be formatted on its own, on any thread, and its bytes do not depend
 * on which one.
 */
struct EventBlocks
{
    std::span<const TraceEvent> events;
    /** Start of the "gated" interval each GateWake closes, in event
     *  order. */
    std::vector<Cycle> wakeOffAt;
    /** Per block: the wakeOffAt index of its first wake. */
    std::vector<std::size_t> firstWake;

    std::size_t count() const { return firstWake.size(); }

    /** Format block @p b into @p slab (kSlabBytes long). */
    BlockBytes
    format(std::size_t b, char *slab) const
    {
        const std::size_t begin = b * kChromeBlockEvents;
        const std::size_t end =
            std::min(events.size(), begin + kChromeBlockEvents);
        std::size_t wake = firstWake[b];
        std::size_t elements = 0;
        ByteCursor out(slab);
        for (std::size_t i = begin; i < end; ++i) {
            const TraceEvent &ev = events[i];
            if (ev.kind == TraceEventKind::GateOff)
                continue;
            if (ev.kind == TraceEventKind::GateWake) {
                const u32 pid = pidOfSm(ev.sm);
                completeEvent(out, kGatedHead, pid, kBankLaneBase + ev.lane,
                              wakeOffAt[wake++], ev.cycle);
                completeEvent(out, kWakingHead, pid,
                              kBankLaneBase + ev.lane, ev.cycle,
                              ev.cycle + ev.a);
                elements += 2;
                continue;
            }
            instantEvent(out, ev);
            ++elements;
        }
        return {{slab, static_cast<std::size_t>(out.at() - slab)},
                elements};
    }
};

/** Most threads that format blocks for one export. On a 4-vCPU VM two
 *  kept the caller's writes fed; a third was no faster. */
constexpr std::size_t kMaxFormatWorkers = 2;

/**
 * One CPU per formatting worker: those the calling thread may run on,
 * minus the one it runs on now, up to kMaxFormatWorkers. Empty (format
 * inline) on a single CPU or for a single block.
 */
std::vector<int>
workerCpus(std::size_t blocks)
{
    std::vector<int> cpus;
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (blocks < 2 ||
        ::sched_getaffinity(0, sizeof allowed, &allowed) != 0 ||
        CPU_COUNT(&allowed) < 2)
        return cpus;
    const int self = ::sched_getcpu();
    for (int cpu = 0; cpu < CPU_SETSIZE && cpus.size() < kMaxFormatWorkers;
         ++cpu)
        if (CPU_ISSET(cpu, &allowed) && cpu != self)
            cpus.push_back(cpu);
    return cpus;
}

/**
 * Worker threads format blocks into a ring of two slabs per worker,
 * which the calling thread allocated; the caller takes the blocks
 * strictly in order and writes them. A worker claims the next block
 * only once the caller has released the slab that block will use, so
 * at most two blocks per worker are in flight, memory stays fixed, and
 * the workers allocate nothing.
 *
 * Each worker is pinned to its own CPU, off the caller's. Left to the
 * scheduler, the workers kept landing on the caller's CPU, where they
 * only took turns with its writes: the export ran slower than
 * formatting inline (0.067 vs 0.054 s for the pathfinder trace);
 * pinned, it took 0.040 s.
 */
class BlockPipeline
{
  public:
    BlockPipeline(const EventBlocks &blocks, const std::vector<int> &cpus)
        : blocks_(blocks), slots_(2 * cpus.size())
    {
        for (Slot &slot : slots_)
            slot.slab.reset(new char[kSlabBytes]);
        for (const int cpu : cpus) {
            try {
                threads_.emplace_back([this] { work(); });
            } catch (const std::system_error &) {
                break; // run with the workers that did start
            }
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpu, &one);
            // Best effort: an unpinned worker formats the same bytes.
            ::pthread_setaffinity_np(threads_.back().native_handle(),
                                     sizeof one, &one);
        }
    }

    ~BlockPipeline()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        freed_.notify_all();
        for (std::thread &t : threads_)
            t.join();
    }

    BlockPipeline(const BlockPipeline &) = delete;
    BlockPipeline &operator=(const BlockPipeline &) = delete;

    /** False when no worker could be started. */
    bool running() const { return !threads_.empty(); }

    /**
     * Block @p b, once formatted. Blocks are taken in order 0, 1, ...;
     * taking one releases the slab of the one before it.
     */
    BlockBytes
    take(std::size_t b)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        released_ = b;
        freed_.notify_all();
        Slot &slot = slots_[b % slots_.size()];
        ready_.wait(lock, [&] { return slot.block == b; });
        return slot.bytes;
    }

  private:
    struct Slot
    {
        std::unique_ptr<char[]> slab;
        /** Block whose bytes the slab holds; guarded by mutex_. */
        std::size_t block = ~std::size_t{0};
        BlockBytes bytes;
    };

    void
    work()
    {
        for (;;) {
            std::size_t b = 0;
            {
                std::unique_lock<std::mutex> lock(mutex_);
                freed_.wait(lock, [&] {
                    return stop_ || next_ >= blocks_.count() ||
                           next_ < released_ + slots_.size();
                });
                if (stop_ || next_ >= blocks_.count())
                    return;
                b = next_++;
            }
            Slot &slot = slots_[b % slots_.size()];
            const BlockBytes bytes = blocks_.format(b, slot.slab.get());
            {
                std::lock_guard<std::mutex> lock(mutex_);
                slot.block = b;
                slot.bytes = bytes;
            }
            ready_.notify_one();
        }
    }

    const EventBlocks &blocks_;
    std::vector<Slot> slots_;
    std::mutex mutex_;
    std::condition_variable freed_;   ///< released_ or stop_ changed
    std::condition_variable ready_;   ///< a slot's block changed
    std::size_t next_ = 0;            ///< next block to claim
    std::size_t released_ = 0;        ///< blocks before it are spliced
    bool stop_ = false;
    std::vector<std::thread> threads_;
};

/** Splice every block into the open "traceEvents" array, in order. */
void
writeEventBlocks(JsonWriter &w, const EventBlocks &blocks)
{
    const std::size_t n = blocks.count();
    if (n == 0)
        return;
    if (const std::vector<int> cpus = workerCpus(n); !cpus.empty()) {
        BlockPipeline pipeline(blocks, cpus);
        if (pipeline.running()) {
            for (std::size_t b = 0; b < n; ++b) {
                const BlockBytes block = pipeline.take(b);
                w.rawElements(block.bytes, block.elements);
            }
            return;
        }
    }
    const std::unique_ptr<char[]> slab(new char[kSlabBytes]);
    for (std::size_t b = 0; b < n; ++b) {
        const BlockBytes block = blocks.format(b, slab.get());
        w.rawElements(block.bytes, block.elements);
    }
}

} // namespace

void
writeChromeTrace(std::ostream &os, const ChromeTraceView &view,
                 const ChromeTraceMeta &meta)
{
    const std::span<const TraceEvent> events = view.events;
    // Gate intervals are clamped to the traced window; a wake with no
    // recorded gate-off means the bank was gated since before the
    // window opened (banks reset gated in the compressed design).
    const Cycle window_start = view.traceStart;
    const Cycle window_end =
        std::min<Cycle>(meta.cycles, view.traceEnd);

    // Pass 1: lanes present, so every lane gets a stable name, and the
    // gate-off each wake closes, so the blocks of pass 2 stand alone.
    // Consecutive events mostly share a lane, so the table is only
    // probed when the key changes. open_off[i] is the pending gate-off
    // of bank lane i.
    KeyIndex warp_lanes; // (sm, warp slot)
    KeyIndex bank_lanes; // (sm, bank)
    EventBlocks blocks{events, {}, {}};
    blocks.firstWake.reserve((events.size() + kChromeBlockEvents - 1) /
                             kChromeBlockEvents);
    std::vector<std::optional<Cycle>> open_off;
    u64 last_warp = ~u64{0}, last_bank = ~u64{0};
    u32 bank = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
        if (i % kChromeBlockEvents == 0)
            blocks.firstWake.push_back(blocks.wakeOffAt.size());
        const TraceEvent &ev = events[i];
        const u64 key = laneKey(ev.sm, ev.lane);
        if (!isBankLaneEvent(ev.kind)) {
            if (key != last_warp) {
                warp_lanes.intern(key);
                last_warp = key;
            }
            continue;
        }
        if (key != last_bank) {
            bank = bank_lanes.intern(key);
            last_bank = key;
            if (bank == open_off.size())
                open_off.emplace_back();
        }
        if (ev.kind == TraceEventKind::GateOff) {
            open_off[bank] = ev.cycle;
        } else if (ev.kind == TraceEventKind::GateWake) {
            blocks.wakeOffAt.push_back(
                open_off[bank].value_or(window_start));
            open_off[bank].reset();
        }
    }
    const std::vector<u32> warp_order = warp_lanes.sortedIndices();
    const std::vector<u32> bank_order = bank_lanes.sortedIndices();
    std::vector<u16> sms;
    for (const u64 key : warp_lanes.keys())
        sms.push_back(smOfKey(key));
    for (const u64 key : bank_lanes.keys())
        sms.push_back(smOfKey(key));
    std::sort(sms.begin(), sms.end());
    sms.erase(std::unique(sms.begin(), sms.end()), sms.end());

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
    for (const u16 sm : sms) {
        metadataEvent(w, "process_name", pidOfSm(sm), 0, "name",
                      "SM" + std::to_string(sm));
    }
    for (const u32 i : warp_order) {
        const u64 key = warp_lanes.keys()[i];
        const u16 warp = laneOfKey(key);
        metadataEvent(w, "thread_name", pidOfSm(smOfKey(key)), warp,
                      "name", "warp " + std::to_string(warp));
    }
    for (const u32 i : bank_order) {
        const u64 key = bank_lanes.keys()[i];
        const u16 lane = laneOfKey(key);
        metadataEvent(w, "thread_name", pidOfSm(smOfKey(key)),
                      kBankLaneBase + lane, "name",
                      "bank " + std::to_string(lane));
    }

    // Pass 2: events in chronological order, formatted block by block.
    // Gate-off/wake pairs fold into "gated" intervals on the bank lane
    // (plus a short "waking" interval covering the wakeup latency);
    // everything else is an instant event.
    writeEventBlocks(w, blocks);
    // Banks still gated when the run (or the traced window) ended.
    for (const u32 i : bank_order) {
        if (!open_off[i].has_value())
            continue;
        const u64 key = bank_lanes.keys()[i];
        char buf[maxElementBytes()];
        ByteCursor out(buf);
        completeEvent(out, kGatedHead, pidOfSm(smOfKey(key)),
                      kBankLaneBase + laneOfKey(key), *open_off[i],
                      window_end);
        w.rawElements({buf, static_cast<std::size_t>(out.at() - buf)}, 1);
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
    // Until the ring wraps its slots are in order: no copy.
    std::span<const TraceEvent> events = ring.slots();
    std::vector<TraceEvent> unrolled;
    if (ring.dropped() > 0) {
        unrolled.reserve(ring.size());
        for (std::size_t i = 0; i < ring.size(); ++i)
            unrolled.push_back(ring.at(i));
        events = unrolled;
    }
    const ChromeTraceView view{events,
                               obs.windows().rows(),
                               obs.windows().interval(),
                               obs.params().traceStart,
                               obs.params().traceEnd,
                               ring.dropped()};
    writeChromeTrace(os, view, meta);
}

} // namespace warpcomp
