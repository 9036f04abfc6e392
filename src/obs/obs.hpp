/**
 * @file
 * Observability core: a ring-buffered cycle-level event tracer plus
 * windowed counters, shared by every SM of one simulated kernel launch.
 *
 * Zero cost when off: the simulator holds a nullable `ObsRun *`; every
 * hook site is a branch on that pointer, so a run without observability
 * attached executes the exact instruction stream it did before the
 * subsystem existed (alloc-guard and differential tested). When on, all
 * storage is preallocated at attach time — emitting an event or bumping
 * a window counter never allocates (the window table grows only past
 * its reserved 4096 rows, i.e. beyond 4M traced cycles at the default
 * interval).
 *
 * All SMs of one run share a single ObsRun: the GPU steps its SMs in
 * lockstep on one thread, so no synchronization is needed, and events
 * arrive in deterministic (cycle, SM, program) order — trace files and
 * timelines are byte-identical run over run and across harness thread
 * counts.
 */

#ifndef WARPCOMP_OBS_OBS_HPP
#define WARPCOMP_OBS_OBS_HPP

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace warpcomp {

class TraceStreamSink;

/** Observability configuration (see --trace / --trace-window /
 *  --trace-out). */
struct ObsParams
{
    /** Record trace events into the ring buffer. */
    bool trace = false;
    /** Only cycles in [traceStart, traceEnd) are recorded. */
    Cycle traceStart = 0;
    Cycle traceEnd = std::numeric_limits<Cycle>::max();
    /** Windowed-counter interval in cycles; 0 disables timelines. */
    u32 windowInterval = 0;
    /** Ring capacity in events; oldest events are dropped when full. */
    u32 ringCapacity = 1u << 20;
    /**
     * Streaming dump path (--trace-out=FILE; empty = disabled). The
     * harness — not the simulator — turns this into an armed `sink`
     * with full provenance; see runWorkload.
     */
    std::string streamPath;
    /** Human config label stamped into the dump header (suite label). */
    std::string streamLabel;
    /**
     * Armed streaming sink (non-owning; null = disabled). Every
     * in-window event is appended to the dump as it is emitted, so
     * memory stays bounded regardless of run length — the ring can
     * even be absent (`trace == false`) while streaming.
     */
    TraceStreamSink *sink = nullptr;

    bool
    enabled() const
    {
        return trace || windowInterval > 0 || sink != nullptr;
    }
};

/** Event taxonomy (DESIGN.md §9). */
enum class TraceEventKind : u8 {
    WarpIssue,          ///< instruction issued; a=pc, b=active lanes
    DummyMov,           ///< decompress-MOV injected; a=dst register
    CompressDecision,   ///< write encoded; a=achieved B, b=stored B
    Decompress,         ///< decompressor activation for one operand
    OperandCollect,     ///< all operands granted, dispatched to exec;
                        ///  a=source ops, b=compressed sources
    Writeback,          ///< bank write committed; a=banks, b=compressed
    GateOff,            ///< bank power-gated (lane = bank id)
    GateWake,           ///< gated bank wake requested; a=wakeup latency
    SeuCorruption,      ///< flips became architectural; a=lanes,
                        ///  b=amplified by decompression
    ScrubVisit,         ///< scrub engine rewrote live rows; lane=first
                        ///  bank, a=banks visited
    FaultCorruptedWrite,///< stuck-at cells changed a stored image
    BankConflict        ///< collector read denied a bank port this
                        ///  cycle (retries next); lane=bank, a=warp
};

/** Number of TraceEventKind values (dump format sanity checks). */
inline constexpr u32 kNumTraceEventKinds =
    static_cast<u32>(TraceEventKind::BankConflict) + 1;

/** Stable lower-case name used in exported documents. */
const char *traceEventName(TraceEventKind kind);

/** One trace record. `lane` is a warp slot for pipeline events and a
 *  bank index for GateOff/GateWake/ScrubVisit/BankConflict; a/b/c are
 *  per-kind payloads (see TraceEventKind). `c` rides in what used to
 *  be struct padding, so the event stays 24 bytes. */
struct TraceEvent
{
    Cycle cycle = 0;
    u32 a = 0;
    u32 b = 0;
    u16 sm = 0;
    u16 lane = 0;
    TraceEventKind kind = TraceEventKind::WarpIssue;
    /** Small third payload: destination register for CompressDecision. */
    u16 c = 0;
};

/**
 * Fixed-capacity event ring: when full, the oldest events are
 * overwritten (Chrome tracing semantics — the most recent window of
 * activity survives). push() never allocates.
 */
class TraceRing
{
  public:
    explicit TraceRing(u32 capacity) : buf_(capacity) {}

    void
    push(const TraceEvent &ev)
    {
        if (buf_.empty()) {
            ++pushed_;
            return;
        }
        buf_[static_cast<std::size_t>(pushed_ % buf_.size())] = ev;
        ++pushed_;
    }

    /** Events currently held (≤ capacity). */
    std::size_t
    size() const
    {
        return static_cast<std::size_t>(
            pushed_ < buf_.size() ? pushed_ : buf_.size());
    }

    /** Total events offered, including overwritten ones. */
    u64 pushed() const { return pushed_; }

    /** Events lost to ring wrap-around. */
    u64 dropped() const { return pushed_ - size(); }

    /** i-th surviving event in chronological order. */
    const TraceEvent &
    at(std::size_t i) const
    {
        const u64 start = pushed_ - size();
        return buf_[static_cast<std::size_t>((start + i) % buf_.size())];
    }

  private:
    std::vector<TraceEvent> buf_;
    u64 pushed_ = 0;
};

/** Raw per-window accumulators; derived metrics (IPC, compression
 *  ratio, gated occupancy) are computed at export time. */
struct WindowRow
{
    u64 issued = 0;          ///< instructions issued (incl. dummy MOVs)
    u64 dummyMovs = 0;
    u64 regWrites = 0;
    u64 storedBytes = 0;     ///< bytes as stored in the banks
    u64 rawBytes = 0;        ///< 128 B per write (uncompressed size)
    u64 gatedBankCycles = 0; ///< Σ over SM-cycles of gated banks
    u64 bankCycles = 0;      ///< Σ over SM-cycles of total banks
    u64 smCycles = 0;        ///< SM-cycle samples (numSms per cycle)
};

/** Windowed counters: one row per `interval` cycles. */
class ObsWindows
{
  public:
    explicit ObsWindows(u32 interval) : interval_(interval)
    {
        rows_.reserve(interval > 0 ? 4096 : 0);
    }

    u32 interval() const { return interval_; }
    const std::vector<WindowRow> &rows() const { return rows_; }

    /** Add one SM's cycles [from, to), each with @p gated_banks of
     *  @p total_banks gated, splitting exactly across window
     *  boundaries. Out of line (obs.cpp): only observed runs call
     *  it, and the accounting every SM-cycle runs stays small. */
    void onCycleSpan(Cycle from, Cycle to, u32 gated_banks,
                     u32 total_banks);

    void
    onIssue(Cycle now, bool dummy)
    {
        WindowRow &r = rowAt(now);
        ++r.issued;
        if (dummy)
            ++r.dummyMovs;
    }

    void
    onWrite(Cycle now, u32 stored_bytes)
    {
        WindowRow &r = rowAt(now);
        ++r.regWrites;
        r.storedBytes += stored_bytes;
        r.rawBytes += kWarpRegBytes;
    }

  private:
    WindowRow &
    rowAt(Cycle now)
    {
        const std::size_t idx =
            static_cast<std::size_t>(now / interval_);
        while (rows_.size() <= idx)
            rows_.emplace_back();
        return rows_[idx];
    }

    u32 interval_;
    std::vector<WindowRow> rows_;
};

/**
 * Per-run observability state. Gpu::run creates one when ObsParams is
 * enabled, attaches it to every SM (and their register files), and
 * hands it to the RunResult for export.
 */
class ObsRun
{
  public:
    explicit ObsRun(const ObsParams &params)
        : cfg_(params), ring_(params.trace ? params.ringCapacity : 0),
          windows_(params.windowInterval),
          windowsOn_(params.windowInterval > 0),
          recording_(params.trace || params.sink != nullptr)
    {
    }

    const ObsParams &params() const { return cfg_; }
    const TraceRing &ring() const { return ring_; }
    const ObsWindows &windows() const { return windows_; }

    /** Events forwarded to the streaming sink (0 when not armed).
     *  Tracked here, not read back from the sink, so the counter stays
     *  valid after the harness closes the dump file. */
    u64 streamedEvents() const { return streamedEvents_; }

    // ---- hook points (called behind `if (obs_ != nullptr)`) ----

    void
    onWarpIssue(u16 sm, u16 warp, u32 pc, u32 lanes, Cycle now)
    {
        if (windowsOn_)
            windows_.onIssue(now, false);
        emit({now, pc, lanes, sm, warp, TraceEventKind::WarpIssue});
    }

    void
    onDummyMov(u16 sm, u16 warp, u32 dst, Cycle now)
    {
        if (windowsOn_)
            windows_.onIssue(now, true);
        emit({now, dst, 0, sm, warp, TraceEventKind::DummyMov});
    }

    void
    onCompressDecision(u16 sm, u16 warp, u32 achieved_bytes,
                       u32 stored_bytes, u16 dst_reg, Cycle now)
    {
        if (windowsOn_)
            windows_.onWrite(now, stored_bytes);
        emit({now, achieved_bytes, stored_bytes, sm, warp,
              TraceEventKind::CompressDecision, dst_reg});
    }

    void
    onDecompress(u16 sm, u16 warp, Cycle now)
    {
        emit({now, 0, 0, sm, warp, TraceEventKind::Decompress});
    }

    void
    onOperandCollect(u16 sm, u16 warp, u32 ops, u32 compressed_srcs,
                     Cycle now)
    {
        emit({now, ops, compressed_srcs, sm, warp,
              TraceEventKind::OperandCollect});
    }

    void
    onWriteback(u16 sm, u16 warp, u32 banks, bool compressed, Cycle now)
    {
        emit({now, banks, compressed ? 1u : 0u, sm, warp,
              TraceEventKind::Writeback});
    }

    void
    onGateOff(u16 sm, u16 bank, Cycle now)
    {
        emit({now, 0, 0, sm, bank, TraceEventKind::GateOff});
    }

    void
    onGateWake(u16 sm, u16 bank, u32 wakeup_latency, Cycle now)
    {
        emit({now, wakeup_latency, 0, sm, bank,
              TraceEventKind::GateWake});
    }

    void
    onSeuCorruption(u16 sm, u16 warp, u32 lanes, bool amplified,
                    Cycle now)
    {
        emit({now, lanes, amplified ? 1u : 0u, sm, warp,
              TraceEventKind::SeuCorruption});
    }

    void
    onScrubVisit(u16 sm, u16 first_bank, u32 banks, Cycle now)
    {
        emit({now, banks, 0, sm, first_bank,
              TraceEventKind::ScrubVisit});
    }

    void
    onFaultCorruptedWrite(u16 sm, u16 warp, Cycle now)
    {
        emit({now, 0, 0, sm, warp, TraceEventKind::FaultCorruptedWrite});
    }

    void
    onBankConflict(u16 sm, u16 bank, u16 warp, Cycle now)
    {
        emit({now, warp, 0, sm, bank, TraceEventKind::BankConflict});
    }

    /** Bank census of SM cycles [from, to), during which it provably
     *  cannot change: one stepped cycle, or a skipped span in which
     *  nothing issues, writes back, or scrubs. */
    void
    onCycleSpan(u16 /*sm*/, u32 gated_banks, u32 total_banks, Cycle from,
                Cycle to)
    {
        if (windowsOn_)
            windows_.onCycleSpan(from, to, gated_banks, total_banks);
    }

  private:
    void
    emit(const TraceEvent &ev)
    {
        if (!recording_ || ev.cycle < cfg_.traceStart ||
            ev.cycle >= cfg_.traceEnd)
            return;
        // The ring only counts when --trace asked for it: a
        // streaming-only run keeps events_offered/dropped at zero
        // (nothing is lost — the sink has every event).
        if (cfg_.trace)
            ring_.push(ev);
        if (cfg_.sink != nullptr)
            streamEvent(ev);
    }

    /** Out-of-line sink append (obs.cpp), so this header needs no
     *  trace_stream dependency and the no-sink path stays a branch. */
    void streamEvent(const TraceEvent &ev);

    ObsParams cfg_;
    TraceRing ring_;
    ObsWindows windows_;
    bool windowsOn_;
    bool recording_;
    u64 streamedEvents_ = 0;
};

} // namespace warpcomp

#endif // WARPCOMP_OBS_OBS_HPP
