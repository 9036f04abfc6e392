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
    heads_.resize(num_sms);
    for (u32 i = 0; i < num_sms; ++i)
        logs_.push_back(std::make_unique<ObsLog>(cfg_.windowInterval,
                                                 recording_ ? headroom : 0));
}

void
ObsLog::seal()
{
    if (open_.events.empty())
        return;
    std::lock_guard<std::mutex> lock(sealMutex_);
    sealed_.push_back(std::move(open_));
    open_.clear();
    if (!spare_.empty()) {
        std::swap(open_, spare_.back());
        spare_.pop_back();
    }
}

std::size_t
ObsLog::size() const
{
    std::size_t n = open_.events.size();
    for (const Chunk &chunk : sealed_)
        n += chunk.events.size();
    return n - drainedEvents_;
}

void
ObsRun::drainLogs(Cycle floor)
{
    if (logs_.empty())
        return;
    const u64 below = floor >= (Cycle{1} << 62) ? ~u64{0} : 2 * floor;
    for (std::size_t i = 0; i < logs_.size(); ++i) {
        ObsLog &log = *logs_[i];
        DrainHead &head = heads_[i];
        head.chunks.clear();
        {
            std::lock_guard<std::mutex> lock(log.sealMutex_);
            for (const ObsLog::Chunk &chunk : log.sealed_)
                head.chunks.push_back(&chunk);
            head.run = log.drainedRuns_;
            head.event = log.drainedEvents_;
        }
        head.chunk = 0;
        head.key = head.chunks.empty()
            ? ~u64{0} : head.chunks[0]->runs[head.run].key;
    }

    // A k-way merge over the logs' head runs: the lowest key below the
    // floor's, the lowest SM on a tie, then that run, whole.
    while (true) {
        std::size_t next = 0;
        for (std::size_t i = 1; i < heads_.size(); ++i) {
            if (heads_[i].key < heads_[next].key)
                next = i;
        }
        DrainHead &head = heads_[next];
        if (head.key >= below)
            break;
        const ObsLog::Chunk &chunk = *head.chunks[head.chunk];
        const u32 count = chunk.runs[head.run].count;
        recordRun(chunk.events.data() + head.event, count);
        head.event += count;
        if (++head.run == chunk.runs.size()) {
            ++head.chunk;
            head.run = 0;
            head.event = 0;
        }
        head.key = head.chunk < head.chunks.size()
            ? head.chunks[head.chunk]->runs[head.run].key : ~u64{0};
    }

    for (std::size_t i = 0; i < logs_.size(); ++i) {
        ObsLog &log = *logs_[i];
        const DrainHead &head = heads_[i];
        if (head.chunks.empty())
            continue;
        std::lock_guard<std::mutex> lock(log.sealMutex_);
        for (std::size_t k = 0; k < head.chunk; ++k) {
            log.spare_.push_back(std::move(log.sealed_.front()));
            log.spare_.back().clear();
            log.sealed_.pop_front();
        }
        log.drainedRuns_ = head.run;
        log.drainedEvents_ = head.event;
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
    heads_.clear();
}

void
ObsRun::streamRun(const TraceEvent *ev, std::size_t n)
{
    cfg_.sink->pushRun(ev, n);
    streamedEvents_ += n;
}

} // namespace warpcomp
