/**
 * @file
 * Hierarchical structured-stats export (--stats-json=FILE): every
 * counter the simulator produces for one run — SimStats, the Fig 9
 * energy breakdown and its raw event counts, per-bank gating, fault and
 * SEU census, observability counters, and the windowed timelines — as
 * one deterministic JSON document through the shared JsonWriter.
 *
 * The document deliberately excludes anything non-deterministic (wall
 * clock, host concurrency, paths), so two runs of the same workload and
 * configuration produce byte-identical files regardless of harness
 * thread count.
 */

#ifndef WARPCOMP_OBS_STATS_JSON_HPP
#define WARPCOMP_OBS_STATS_JSON_HPP

#include <fstream>
#include <string>
#include <vector>

#include "common/json_writer.hpp"
#include "common/stats.hpp"
#include "sim/gpu.hpp"

namespace warpcomp {

/** Serialize a StatGroup as an object of its counters (sorted by name,
 *  map order). Caller positions the writer (key or array slot). */
void writeJson(JsonWriter &w, const StatGroup &group);

/** Serialize a Histogram as {"bins": [...], "overflow": n, "total": n}. */
void writeJson(JsonWriter &w, const Histogram &hist);

/** Serialize an EnergyBreakdown with its derived totals. */
void writeJson(JsonWriter &w, const EnergyBreakdown &e);

/**
 * Serialize one run's full statistics hierarchy. @p num_sms converts
 * SM-cycle window samples into GPU-cycle denominators for the derived
 * per-window IPC.
 */
void writeRunStatsJson(JsonWriter &w, const RunResult &run, u32 num_sms);

/** One workload's run inside a recorded suite. */
struct StatsRunRow
{
    std::string workload;
    RunResult run;
    /** Frontend provenance: "dsl" or "rv32" (binary image). */
    std::string frontend = "dsl";
    /** SHA-256 of the binary image for "rv32" rows; empty for DSL.
     *  Content-addressed, so it keeps the document deterministic. */
    std::string imageSha;
};

/** One suite recorded for the stats dump. */
struct StatsSuiteRecord
{
    std::string label;          ///< caller-supplied config label
    u32 numSms = 0;
    u32 scale = 1;
    u64 seedSalt = 0;
    std::vector<StatsRunRow> rows;
};

/**
 * Collects suites for one bench process and writes them as one JSON
 * document at exit. The output is fully deterministic (no wall clock,
 * no hardware concurrency) so CI can diff it byte for byte across
 * reruns and thread counts.
 */
class StatsRecorder
{
  public:
    ~StatsRecorder();

    /**
     * Arm the recorder: the document goes to @p json_path at exit. The
     * file is created now, so an unwritable path is a fatal error
     * before anything is simulated.
     */
    void setOutput(std::string bench_name, std::string json_path);

    void addSuite(StatsSuiteRecord record);

    bool enabled() const { return !outPath_.empty(); }

    /** Serialize the current log; exposed for tests. */
    void writeJson(std::ostream &os) const;

    /**
     * Write the document to the armed file now (the destructor calls
     * this too). A failed write ends the process with exit 1.
     */
    void flush();

  private:
    std::string benchName_;
    std::string outPath_;
    std::ofstream out_;
    std::vector<StatsSuiteRecord> suites_;
    bool flushed_ = false;
};

/** Process-wide recorder used by the bench scaffolding. */
StatsRecorder &statsRecorder();

} // namespace warpcomp

#endif // WARPCOMP_OBS_STATS_JSON_HPP
