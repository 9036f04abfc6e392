/**
 * @file
 * Streaming trace export (--trace-out=FILE): spills every in-window
 * trace event to disk as it reaches the run's ObsRun in lockstep's
 * order (as it is emitted, or as the per-SM logs of SMs running ahead
 * are drained), in a compact, versioned,
 * self-describing binary record format, so full-run traces exist
 * without rerunning the simulator and memory stays bounded regardless
 * of run length (the drop-oldest ring is optional while streaming).
 *
 * File layout (DESIGN.md §9; all integers little-endian):
 *
 *   file   := header record* footer-record
 *   header := magic[8]="WCTRACE\n"  u32 version=1
 *             u32 json_len  json[json_len]
 *   record := u8 type  u32 payload_len  payload[payload_len]
 *
 * The header JSON carries provenance and everything the offline
 * analyzer needs to interpret the records without the simulator: git
 * SHA, workload, frontend ("dsl"/"rv32") + image SHA-256, config
 * label, SM/bank counts, window interval, trace window bounds, the
 * comp/decomp latencies, and the event-kind name table.
 *
 * Record types: 1 = event batch (u32 count, then count × 23-byte
 * packed events), 2 = one window-summary row (u64 index + 8 u64
 * counters), 3 = footer (event/window/cycle totals + end marker).
 * Unknown record types are skippable via their length prefix. The
 * writer fsyncs once at finalize; a crash mid-run leaves a dump with
 * complete records but no footer, which the loader reports as a
 * structured "truncated_dump" error instead of trusting a torn tail —
 * the same durability contract as the sweep journal, with detection
 * instead of silent tolerance because a partial trace would silently
 * skew every offline report.
 *
 * Determinism: the byte stream is a pure function of the simulated
 * run + build provenance (no wall clock, no host info), so dumps are
 * byte-identical across reruns and harness thread counts — CI diffs
 * them.
 */

#ifndef WARPCOMP_OBS_TRACE_STREAM_HPP
#define WARPCOMP_OBS_TRACE_STREAM_HPP

#include <optional>
#include <string>
#include <vector>

#include "obs/obs.hpp"

namespace warpcomp {

/** Format constants shared by writer, loader, and tests. */
inline constexpr char kTraceDumpMagic[8] = {'W', 'C', 'T', 'R',
                                            'A', 'C', 'E', '\n'};
inline constexpr u32 kTraceDumpVersion = 1;
/** Bytes of one packed event: cycle 8, a 4, b 4, sm 2, lane 2, c 2,
 *  kind 1. */
inline constexpr u32 kPackedEventBytes = 23;
/** Bytes of one window-summary payload: index + 8 counters. */
inline constexpr u32 kPackedWindowBytes = 9 * 8;
/** Record type tags. */
inline constexpr u8 kRecordEventBatch = 1;
inline constexpr u8 kRecordWindowRow = 2;
inline constexpr u8 kRecordFooter = 3;
/** End marker inside the footer payload ("WCTREND!"). */
inline constexpr u64 kTraceDumpEndMarker = 0x21444E4552544357ull;

/** Provenance + run shape stamped into the dump header. */
struct TraceStreamMeta
{
    std::string gitSha;
    std::string workload;
    std::string frontend = "dsl";   ///< "dsl" | "rv32"
    std::string imageSha;           ///< SHA-256 for rv32, else empty
    std::string config;             ///< human config label (suite label)
    u32 numSms = 0;
    u32 numBanks = 0;
    u32 windowInterval = 0;
    Cycle traceStart = 0;
    Cycle traceEnd = ~0ull;
    u32 compressLatency = 0;
    u32 decompressLatency = 0;
};

/**
 * Append-only dump writer. Opens the file and writes the header at
 * construction (fatal on I/O errors: a run asked to stream must not
 * silently produce nothing), buffers packed events in a preallocated
 * block — push() never allocates, the hot loop stays allocation-free —
 * and flushes full batches with one write(2) each. finalize() drains
 * the buffer, appends the window-summary rows and the footer, and
 * fsyncs, so a finished dump is durable and self-checking.
 */
class TraceStreamSink
{
  public:
    TraceStreamSink(std::string path, const TraceStreamMeta &meta);
    ~TraceStreamSink();

    TraceStreamSink(const TraceStreamSink &) = delete;
    TraceStreamSink &operator=(const TraceStreamSink &) = delete;

    const std::string &path() const { return path_; }
    u64 eventsWritten() const { return events_; }

    /** Append one event (buffered; no allocation). */
    void push(const TraceEvent &ev) { pushRun(&ev, 1); }

    /** Append the @p n events at @p ev, in order: push() each, packed
     *  a batch's worth at a time. */
    void pushRun(const TraceEvent *ev, std::size_t n);

    /** Drop every event appended so far: the dump is its header again.
     *  Gpu::run calls it before it reruns a launch whose run-ahead
     *  attempt had already streamed events. */
    void rewind();

    /** Flush events, append window rows + footer, fsync, close. */
    void finalize(Cycle cycles, const ObsWindows &windows);

  private:
    void flushEvents();
    void writeAll(const u8 *data, std::size_t n);

    std::string path_;
    int fd_ = -1;
    /** Bytes of the magic, version and header JSON. */
    std::size_t headerBytes_ = 0;
    /** Batch buffer: [type u8][len u32][count u32][events...]. */
    std::vector<u8> buf_;
    u32 bufEvents_ = 0;
    u64 events_ = 0;
    bool finalized_ = false;
};

/** Structured load failure: `code` is a stable machine-readable tag
 *  (open_failed | bad_magic | bad_version | bad_header |
 *  truncated_dump | bad_record | footer_mismatch | trailing_data),
 *  `detail` is for humans. */
struct TraceDumpError
{
    std::string code;
    std::string detail;
};

/** One fully-loaded, footer-verified dump. */
struct TraceDump
{
    TraceStreamMeta meta;
    std::vector<TraceEvent> events;     ///< chronological, complete
    std::vector<WindowRow> windows;     ///< row i covers window i
    Cycle cycles = 0;                   ///< run length from the footer
};

/**
 * Load and verify @p path. Returns nullopt with @p err filled on any
 * defect — unreadable file, wrong magic/version, torn tail (missing
 * or short footer), counts that disagree with the footer, a footer
 * run length that disagrees with the window rows, or bytes after it.
 * Never crashes on hostile input.
 */
std::optional<TraceDump> loadTraceDump(const std::string &path,
                                       TraceDumpError *err);

/** The build's git SHA (a build-time constant): the one stamp of trace
 *  dumps, --stats-json documents and sweep journals and reports. */
const char *traceStreamGitSha();

} // namespace warpcomp

#endif // WARPCOMP_OBS_TRACE_STREAM_HPP
