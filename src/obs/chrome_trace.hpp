/**
 * @file
 * Chrome trace-event JSON exporter for one traced run. The document
 * loads in Perfetto / chrome://tracing: one process per SM, one thread
 * lane per warp slot (pipeline events) and per register bank
 * (power-gate intervals, scrub visits, port conflicts), plus GPU-wide
 * counter tracks derived from the windowed timelines (IPC, compression
 * ratio, gated banks). Timestamps are simulation cycles, exported
 * 1 cycle = 1 µs so viewer zoom levels behave.
 *
 * Two producers share one serializer: the live path (`--trace`, events
 * from the in-memory ring) and the offline path (`wc_trace export
 * --chrome`, events from a streamed dump). Both funnel through
 * ChromeTraceView so the emitted bytes depend only on the event/window
 * data — a dump replayed offline is byte-identical to the live export
 * of the same run.
 */

#ifndef WARPCOMP_OBS_CHROME_TRACE_HPP
#define WARPCOMP_OBS_CHROME_TRACE_HPP

#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "obs/obs.hpp"

namespace warpcomp {

/** Run context stamped into the trace document. */
struct ChromeTraceMeta
{
    std::string workload;
    std::string config;     ///< human label, e.g. "Warped" / "None"
    u32 numSms = 0;
    u32 numBanks = 0;
    Cycle cycles = 0;       ///< run length; closes open gate intervals
};

/** Thread-id base for bank lanes (warp lanes use the slot id). */
inline constexpr u32 kBankLaneBase = 1000;

/** Events per formatting block of the exporter. Blocks are formatted
 *  independently, on worker threads when more than one CPU is
 *  available, and spliced in order; the bytes do not depend on how. */
inline constexpr std::size_t kChromeBlockEvents = 1024;

/** Source-agnostic input to the serializer: chronological events plus
 *  the window table, however they were obtained. Non-owning. */
struct ChromeTraceView
{
    std::span<const TraceEvent> events;
    const std::vector<WindowRow> &windows;
    u32 windowInterval = 0;
    Cycle traceStart = 0;
    Cycle traceEnd = std::numeric_limits<Cycle>::max();
    u64 dropped = 0;        ///< ring losses (0 for streamed dumps)
};

/** Serialize @p view as Chrome trace-event JSON onto @p os. */
void writeChromeTrace(std::ostream &os, const ChromeTraceView &view,
                      const ChromeTraceMeta &meta);

/** Live-run convenience wrapper: serializes the ring in place, or a
 *  chronological copy of it once it has wrapped. */
void writeChromeTrace(std::ostream &os, const ObsRun &obs,
                      const ChromeTraceMeta &meta);

} // namespace warpcomp

#endif // WARPCOMP_OBS_CHROME_TRACE_HPP
