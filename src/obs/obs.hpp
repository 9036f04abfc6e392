/**
 * @file
 * Observability core: a ring-buffered cycle-level event tracer plus
 * windowed counters, shared by every SM of one simulated kernel launch.
 *
 * Zero cost when off: the simulator holds a nullable `ObsRun *`; every
 * hook site is a branch on that pointer, so a run without observability
 * attached executes the exact instruction stream it did before the
 * subsystem existed (alloc-guard and differential tested). When on, all
 * storage is reserved at attach time — emitting an event or bumping a
 * window counter never allocates (the window table grows only past its
 * reserved 4096 rows, i.e. beyond 4M traced cycles at the default
 * interval), and the ring's pages are touched only as events fill it.
 *
 * All SMs of one run share a single ObsRun, and every event reaches
 * its ring and sink in lockstep's order: (cycle, phase, SM, program
 * order), where a cycle's CTA-launch phase comes before every SM's
 * step. An SM stepped in lockstep writes straight through, so its
 * events arrive in that order by construction. When the SMs run ahead
 * of each other on host threads, Gpu::run arms one ObsLog per SM
 * instead (armLogs): each SM appends to its own log and window rows,
 * and drainLogs merges the logs in that order, one drain at a time,
 * up to the lowest cycle any SM can still log at. A log indexes its
 * events by runs of one (cycle, phase) key, so the drain takes each
 * log's lock twice, merges the logs run by run without locks, and
 * copies each run whole. Either way the ring, the dump and the window
 * rows are byte-identical run over run and across host-thread counts.
 */

#ifndef WARPCOMP_OBS_OBS_HPP
#define WARPCOMP_OBS_OBS_HPP

#include <algorithm>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
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
 * activity survives). Its storage is reserved at construction but not
 * filled: a slot is first written when an event lands in it, so a run
 * that records less than the capacity never touches the rest. push()
 * and pushRun() never allocate.
 */
class TraceRing
{
  public:
    explicit TraceRing(u32 capacity) : capacity_(capacity)
    {
        buf_.reserve(capacity);
    }

    void
    push(const TraceEvent &ev)
    {
        ++pushed_;
        if (buf_.size() < capacity_) {
            buf_.push_back(ev);
        } else if (capacity_ > 0) {
            buf_[next_] = ev;
            if (++next_ == capacity_)
                next_ = 0;
        }
    }

    /** push() each of the @p n events at @p ev, in order, copying
     *  whole spans: the free slots first, then over the oldest. */
    void
    pushRun(const TraceEvent *ev, std::size_t n)
    {
        pushed_ += n;
        const std::size_t fill = std::min(n, capacity_ - buf_.size());
        buf_.insert(buf_.end(), ev, ev + fill);
        ev += fill;
        n -= fill;
        if (n == 0 || capacity_ == 0)
            return;
        if (n > capacity_) {
            // Only the last capacity_ events survive.
            next_ = (next_ + (n - capacity_)) % capacity_;
            ev += n - capacity_;
            n = capacity_;
        }
        const std::size_t head = std::min(n, capacity_ - next_);
        std::copy_n(ev, head, buf_.begin() + next_);
        std::copy_n(ev + head, n - head, buf_.begin());
        next_ = (next_ + n) % capacity_;
    }

    /** Events currently held (≤ capacity). */
    std::size_t size() const { return buf_.size(); }

    /** Total events offered, including overwritten ones. */
    u64 pushed() const { return pushed_; }

    /** Events lost to ring wrap-around. */
    u64 dropped() const { return pushed_ - size(); }

    /** i-th surviving event in chronological order. */
    const TraceEvent &
    at(std::size_t i) const
    {
        const u64 start = pushed_ - size();
        return buf_[static_cast<std::size_t>((start + i) % capacity_)];
    }

    /** The held events in slot order, which is chronological order
     *  while dropped() is 0. */
    std::span<const TraceEvent> slots() const { return buf_; }

  private:
    std::size_t capacity_;
    /** The slots filled so far; never reallocates. */
    std::vector<TraceEvent> buf_;
    u64 pushed_ = 0;
    /** Once every slot is filled, the slot the next event overwrites:
     *  pushed_ modulo the capacity. */
    std::size_t next_ = 0;
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

    WindowRow &
    operator+=(const WindowRow &o)
    {
        issued += o.issued;
        dummyMovs += o.dummyMovs;
        regWrites += o.regWrites;
        storedBytes += o.storedBytes;
        rawBytes += o.rawBytes;
        gatedBankCycles += o.gatedBankCycles;
        bankCycles += o.bankCycles;
        smCycles += o.smCycles;
        return *this;
    }
};

/** Windowed counters: one row per `interval` cycles. */
class ObsWindows
{
  public:
    /** Rows for @p reserved_rows windows are reserved up front. */
    explicit ObsWindows(u32 interval, std::size_t reserved_rows = 4096)
        : interval_(interval)
    {
        rows_.reserve(interval > 0 ? reserved_rows : 0);
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

    /** Make room for the row of cycle @p now (amortized doubling). */
    void
    reserveThrough(Cycle now)
    {
        if (interval_ == 0)
            return;
        const std::size_t idx = static_cast<std::size_t>(now / interval_);
        if (rows_.capacity() <= idx)
            rows_.reserve(std::max(2 * rows_.capacity(), idx + 1));
    }

    /** Add @p other's rows to these, row by row. */
    void merge(const ObsWindows &other);

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
 * One SM's events and window rows while the SMs of an observed launch
 * run ahead of each other (ObsRun::armLogs). The host thread stepping
 * the SM appends to its open chunk; seal() hands that chunk to
 * ObsRun::drainLogs, which may drain the log while its SM steps on or
 * is sealed. Each chunk indexes its events by runs of equal key, the
 * unit the drain merges and copies. Like a run-ahead store log, the
 * open chunk and the window rows grow for as long as the SM steps, so
 * its owner restores headroom for one step outside Sm::cycle
 * (reserveHeadroom), and logging never allocates inside it.
 */
class alignas(64) ObsLog
{
  public:
    /** A log with room for @p headroom events per step; 0 when the
     *  run records no events (window rows only). */
    ObsLog(u32 window_interval, u32 headroom)
        : windows_(window_interval, 0), headroom_(headroom)
    {
        open_.reserve(headroom);
    }

    /** Make room for the events and the window row of one step at
     *  cycle @p now (amortized doubling). */
    void
    reserveHeadroom(Cycle now)
    {
        open_.reserve(headroom_);
        windows_.reserveThrough(now);
    }

    /** Log the events that follow in the cycle's CTA-launch phase,
     *  which lockstep runs before every SM's step (true), or in the
     *  step phase (false, the default). */
    void setLaunchPhase(bool launch) { launch_ = launch; }

    /** Hand every event logged so far to drainLogs. Call while no
     *  thread steps the SM. */
    void seal();

    /** Events logged and not yet drained; call while no thread steps,
     *  seals or drains the log. */
    std::size_t size() const;

  private:
    friend class ObsRun;

    /** Consecutive events of one key, lockstep's order within one SM:
     *  2 x cycle, plus 1 in the step phase (cycles stay below 2^32).
     *  Each log is in key order. */
    struct Run
    {
        u64 key;
        u32 count;
    };

    /** Events, with their real cycles, and their runs. */
    struct Chunk
    {
        std::vector<TraceEvent> events;
        std::vector<Run> runs;

        /** Room for @p n more events, and as many runs (amortized
         *  doubling). */
        void
        reserve(std::size_t n)
        {
            if (events.capacity() - events.size() < n)
                events.reserve(std::max(2 * events.capacity(),
                                        events.size() + n));
            if (runs.capacity() - runs.size() < n)
                runs.reserve(std::max(2 * runs.capacity(),
                                      runs.size() + n));
        }

        void
        clear()
        {
            events.clear();
            runs.clear();
        }
    };

    void
    push(const TraceEvent &ev)
    {
        const u64 key = 2 * ev.cycle + (launch_ ? 0 : 1);
        open_.events.push_back(ev);
        if (!open_.runs.empty() && open_.runs.back().key == key)
            ++open_.runs.back().count;
        else
            open_.runs.push_back({key, 1});
    }

    /** Appended to by the SM's host thread only. */
    Chunk open_;
    /** Guards the members below it. */
    std::mutex sealMutex_;
    /**
     * Each non-empty, oldest first. seal() only appends, and only
     * drainLogs removes, so a drain may read the chunks it listed
     * under the lock after releasing it: a deque's push_back moves no
     * element.
     */
    std::deque<Chunk> sealed_;
    /** Where the drain stopped in sealed_.front(): runs and events
     *  already drained. */
    std::size_t drainedRuns_ = 0;
    std::size_t drainedEvents_ = 0;
    /** Emptied chunks, with their capacity, for seal() to reopen. */
    std::vector<Chunk> spare_;
    /** Written by the SM's host thread only; read by closeLogs. */
    ObsWindows windows_;
    u32 headroom_;
    bool launch_ = false;
};

/**
 * Per-run observability state. Gpu::run creates one when ObsParams is
 * enabled, attaches it to every SM (and their register files), and
 * hands it to the RunResult for export. Without armed logs every hook
 * writes through to the ring, the sink and the window rows, in the
 * order the hooks run: one thread, stepping SMs in lockstep (as
 * Gpu::run's lockstep and perfbench's replay do). With armed logs
 * (armLogs) each hook writes to its SM's log, which may be on any host
 * thread, and drainLogs/closeLogs pass the events on.
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

    // ---- per-SM logs (SMs running ahead) ----

    /** Give each of @p num_sms SMs its own event log and window rows,
     *  each with room for @p headroom events per step. Call before any
     *  hook runs. */
    void armLogs(u32 num_sms, u32 headroom);

    /** SM @p sm's log; null when no logs are armed. Stable until
     *  closeLogs. */
    ObsLog *
    log(u16 sm)
    {
        return logs_.empty() ? nullptr : logs_[sm].get();
    }

    /**
     * Pass every sealed event below cycle @p floor to the ring and the
     * sink, in lockstep's order: by cycle, launch phase before step
     * phase, then by SM, then in the order each SM logged them. The
     * caller guarantees that every event below @p floor was sealed
     * before the call, and that one thread drains at a time; seals may
     * run meanwhile. Each log's lock is taken at most twice: once to
     * list its sealed chunks, and once to retire the chunks drained
     * and store where the drain stopped. The merge in between reads
     * the listed chunks without it, a run of equal key at a time.
     */
    void drainLogs(Cycle floor);

    /** Seal and drain every log, add every SM's window rows to the
     *  run's, and drop the logs: from here on the hooks write through.
     *  No thread may step an SM meanwhile. */
    void closeLogs();

    // ---- hook points (called behind `if (obs_ != nullptr)`) ----

    void
    onWarpIssue(u16 sm, u16 warp, u32 pc, u32 lanes, Cycle now)
    {
        if (windowsOn_)
            windowsOf(sm).onIssue(now, false);
        emit({now, pc, lanes, sm, warp, TraceEventKind::WarpIssue});
    }

    void
    onDummyMov(u16 sm, u16 warp, u32 dst, Cycle now)
    {
        if (windowsOn_)
            windowsOf(sm).onIssue(now, true);
        emit({now, dst, 0, sm, warp, TraceEventKind::DummyMov});
    }

    void
    onCompressDecision(u16 sm, u16 warp, u32 achieved_bytes,
                       u32 stored_bytes, u16 dst_reg, Cycle now)
    {
        if (windowsOn_)
            windowsOf(sm).onWrite(now, stored_bytes);
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

    /** Bank census of SM @p sm's cycles [from, to), during which it
     *  provably cannot change: one stepped cycle, or a skipped span in
     *  which nothing issues, writes back, or scrubs. */
    void
    onCycleSpan(u16 sm, u32 gated_banks, u32 total_banks, Cycle from,
                Cycle to)
    {
        if (windowsOn_)
            windowsOf(sm).onCycleSpan(from, to, gated_banks, total_banks);
    }

  private:
    /** The window rows SM @p sm counts into: its own while logs are
     *  armed, else the run's. */
    ObsWindows &
    windowsOf(u16 sm)
    {
        return logs_.empty() ? windows_ : logs_[sm]->windows_;
    }

    void
    emit(const TraceEvent &ev)
    {
        if (!recording_ || ev.cycle < cfg_.traceStart ||
            ev.cycle >= cfg_.traceEnd)
            return;
        if (!logs_.empty()) {
            logs_[ev.sm]->push(ev);
            return;
        }
        record(ev);
    }

    void
    record(const TraceEvent &ev)
    {
        // The ring only counts when --trace asked for it: a
        // streaming-only run keeps events_offered/dropped at zero
        // (nothing is lost — the sink has every event).
        if (cfg_.trace)
            ring_.push(ev);
        if (cfg_.sink != nullptr)
            streamRun(&ev, 1);
    }

    /** record() each of the @p n events at @p ev, in order. */
    void
    recordRun(const TraceEvent *ev, std::size_t n)
    {
        if (cfg_.trace)
            ring_.pushRun(ev, n);
        if (cfg_.sink != nullptr)
            streamRun(ev, n);
    }

    /** Out-of-line sink append (obs.cpp), so this header needs no
     *  trace_stream dependency and the no-sink path stays a branch. */
    void streamRun(const TraceEvent *ev, std::size_t n);

    /** drainLogs' view of one log: the sealed chunks it listed, and
     *  where its merge stands in them. */
    struct DrainHead
    {
        /** Key of the next run; ~0 when the listed chunks are done. */
        u64 key = ~u64{0};
        std::vector<const ObsLog::Chunk *> chunks;
        std::size_t chunk = 0;
        std::size_t run = 0;
        std::size_t event = 0;
    };

    ObsParams cfg_;
    TraceRing ring_;
    ObsWindows windows_;
    /** One per SM while they run ahead; empty otherwise. */
    std::vector<std::unique_ptr<ObsLog>> logs_;
    /** drainLogs' scratch, one per log. */
    std::vector<DrainHead> heads_;
    bool windowsOn_;
    bool recording_;
    u64 streamedEvents_ = 0;
};

} // namespace warpcomp

#endif // WARPCOMP_OBS_OBS_HPP
