/**
 * @file
 * Append-only sweep journal: durable checkpointing for multi-hour
 * grids. Every completed point — successful or failed-after-retries —
 * is one compact JSON line, fsynced on append, keyed by (point key,
 * git SHA). `--resume=JOURNAL` loads the file and serves finished
 * points from it, so re-running an interrupted grid is incremental and
 * the journal doubles as a result cache (repeated points are free).
 *
 * A line is a settled point's report entry (writePointOutcome) plus
 * the journal-only `v`, `git_sha` and `attempts`. The loader is
 * deliberately forgiving about the file's tail and hostile about its
 * content: a line without a trailing newline (a SIGKILL landed
 * mid-write), an unparseable line or a line of another version `v` is
 * skipped and counted, never fatal; a record whose git SHA differs
 * from the running binary is stale and skipped (the simulator may have
 * changed behaviour).
 */

#ifndef WARPCOMP_SWEEP_JOURNAL_HPP
#define WARPCOMP_SWEEP_JOURNAL_HPP

#include <map>
#include <optional>
#include <string>

#include "common/json_parse.hpp"
#include "common/json_writer.hpp"
#include "sweep/point.hpp"

namespace warpcomp {

/** One settled grid point: a journal line and a report entry. */
struct PointOutcome
{
    SweepPoint point;
    std::string key;        ///< pointKey(point)
    std::string status;     ///< "ok" | "failed"; empty until settled
    u32 attempts = 0;
    std::string reason;     ///< failure taxonomy; empty when ok
    /** The child's payload (ok points). */
    std::optional<JsonValue> payload;
    /** The selection of it the curves read (ok points; not written). */
    std::optional<PointStats> stats;
    /** Served from the journal/cache: no child was spawned. */
    bool fromCache = false;

    bool ok() const { return status == "ok"; }
};

/**
 * Serialize @p out as one object: workload, config spec, key, status,
 * then the payload as `stats` (ok) or `reason` (failed). A failed entry
 * carries `attempts`; @p journal writes it for every point and adds the
 * line's `v` and `git_sha`.
 */
void writePointOutcome(JsonWriter &w, const PointOutcome &out,
                       bool journal);

/** Journal loaded into memory, keyed for cache lookups. */
struct JournalIndex
{
    std::map<std::string, PointOutcome> byKey;
    u64 skippedLines = 0;   ///< truncated/garbage lines tolerated
    u64 staleRecords = 0;   ///< records from another git SHA

    const PointOutcome *
    find(const std::string &key) const
    {
        const auto it = byKey.find(key);
        return it == byKey.end() ? nullptr : &it->second;
    }
};

/**
 * Append-only journal writer. Opens lazily on first append (creating
 * the file), writes one line per record with a single write(2) call,
 * and fsyncs before returning, so a record is either durable or absent
 * — never half-present after a crash (the loader drops a torn tail).
 */
class SweepJournal
{
  public:
    explicit SweepJournal(std::string path);
    ~SweepJournal();

    SweepJournal(const SweepJournal &) = delete;
    SweepJournal &operator=(const SweepJournal &) = delete;

    const std::string &path() const { return path_; }

    /** Append one completed point; fatal on I/O errors (a sweep that
     *  cannot checkpoint should fail loudly, not silently). */
    void append(const PointOutcome &out);

  private:
    std::string path_;
    int fd_ = -1;
};

/**
 * Load @p path into an index. A missing file is an error (a mistyped
 * --resume path must not silently run the whole grid); an empty file
 * is a valid empty journal.
 */
std::optional<JournalIndex> loadJournal(const std::string &path,
                                        std::string *error);

/** Serialize one outcome as a single compact JSON line (no newline). */
std::string journalLine(const PointOutcome &out);

/** Parse one journal line and its stamp into @p git_sha; nullopt on
 *  malformed input or another line version. */
std::optional<PointOutcome> parseJournalLine(const std::string &line,
                                             std::string *git_sha);

} // namespace warpcomp

#endif // WARPCOMP_SWEEP_JOURNAL_HPP
