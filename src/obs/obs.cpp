#include "obs/obs.hpp"

#include <algorithm>
#include <limits>

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
ObsWindows::merge(const ObsWindows &other)
{
    if (rows_.size() < other.rows_.size())
        rows_.resize(other.rows_.size());
    for (std::size_t i = 0; i < other.rows_.size(); ++i)
        rows_[i] += other.rows_[i];
}

void
ObsRun::armLogs(u32 num_sms, u32 headroom)
{
    WC_ASSERT(logs_.empty(), "event logs armed twice");
    logs_.reserve(num_sms);
    headKeys_.resize(num_sms);
    for (u32 i = 0; i < num_sms; ++i)
        logs_.push_back(std::make_unique<ObsLog>(cfg_.windowInterval,
                                                 recording_ ? headroom : 0));
}

void
ObsLog::seal()
{
    if (open_.empty())
        return;
    std::lock_guard<std::mutex> lock(sealMutex_);
    sealed_.push_back(std::move(open_));
    open_.clear();
    if (!spare_.empty()) {
        open_.swap(spare_.back());
        spare_.pop_back();
    }
}

std::size_t
ObsLog::size() const
{
    std::size_t n = open_.size();
    for (const std::vector<Entry> &chunk : sealed_)
        n += chunk.size();
    return n - drained_;
}

void
ObsLog::retireFront()
{
    spare_.push_back(std::move(sealed_.front()));
    spare_.back().clear();
    sealed_.pop_front();
    drained_ = 0;
}

u64
ObsRun::drainKey(ObsLog &log, u64 key)
{
    std::lock_guard<std::mutex> lock(log.sealMutex_);
    while (!log.sealed_.empty()) {
        std::vector<ObsLog::Entry> &chunk = log.sealed_.front();
        std::size_t i = log.drained_;
        for (; i < chunk.size() && chunk[i].cycle == key; ++i) {
            chunk[i].cycle /= 2;
            record(chunk[i]);
        }
        log.drained_ = i;
        if (i < chunk.size())
            return chunk[i].cycle;
        log.retireFront();
    }
    return ~u64{0};
}

void
ObsRun::drainLogs(Cycle floor)
{
    // A k-way merge over the logs' head keys: the lowest key below the
    // floor's, the lowest SM on a tie, then that SM's run of events
    // with that key.
    if (logs_.empty())
        return;
    const u64 below = floor >= (Cycle{1} << 62) ? ~u64{0} : 2 * floor;
    for (std::size_t i = 0; i < logs_.size(); ++i) {
        std::lock_guard<std::mutex> lock(logs_[i]->sealMutex_);
        headKeys_[i] = logs_[i]->headKey();
    }
    while (true) {
        std::size_t next = 0;
        for (std::size_t i = 1; i < headKeys_.size(); ++i) {
            if (headKeys_[i] < headKeys_[next])
                next = i;
        }
        if (headKeys_[next] >= below)
            break;
        headKeys_[next] = drainKey(*logs_[next], headKeys_[next]);
    }
}

void
ObsRun::closeLogs()
{
    for (auto &log : logs_)
        log->seal();
    drainLogs(std::numeric_limits<Cycle>::max());
    for (const auto &log : logs_)
        windows_.merge(log->windows_);
    logs_.clear();
    logs_.shrink_to_fit();
    headKeys_.clear();
}

void
ObsRun::streamEvent(const TraceEvent &ev)
{
    cfg_.sink->push(ev);
    ++streamedEvents_;
}

} // namespace warpcomp
