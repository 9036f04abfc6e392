#include "obs/obs.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "obs/trace_stream.hpp"

namespace warpcomp {

const char *
traceEventName(TraceEventKind kind)
{
    switch (kind) {
      case TraceEventKind::WarpIssue: return "issue";
      case TraceEventKind::DummyMov: return "dummy_mov";
      case TraceEventKind::CompressDecision: return "compress";
      case TraceEventKind::Decompress: return "decompress";
      case TraceEventKind::OperandCollect: return "collect";
      case TraceEventKind::Writeback: return "writeback";
      case TraceEventKind::GateOff: return "gate_off";
      case TraceEventKind::GateWake: return "gate_wake";
      case TraceEventKind::SeuCorruption: return "seu_corruption";
      case TraceEventKind::ScrubVisit: return "scrub";
      case TraceEventKind::FaultCorruptedWrite:
        return "fault_corrupted_write";
      case TraceEventKind::BankConflict: return "bank_conflict";
    }
    WC_PANIC("unknown trace event kind");
}

void
ObsWindows::onCycleSpan(Cycle from, Cycle to, u32 gated_banks,
                        u32 total_banks)
{
    while (from < to) {
        WindowRow &r = rowAt(from);
        const Cycle window_end = (from / interval_ + 1) * interval_;
        const u64 n = std::min(to, window_end) - from;
        r.gatedBankCycles += n * gated_banks;
        r.bankCycles += n * total_banks;
        r.smCycles += n;
        from += n;
    }
}

void
ObsRun::streamEvent(const TraceEvent &ev)
{
    cfg_.sink->push(ev);
    ++streamedEvents_;
}

} // namespace warpcomp
