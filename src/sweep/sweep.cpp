#include "sweep/sweep.hpp"

#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>

#include "common/log.hpp"
#include "harness/thread_pool.hpp"

namespace warpcomp {

namespace {

void
writeSweepStats(const std::string &path, const SweepCounters &ctr)
{
    std::ofstream os(path);
    if (!os)
        WC_FATAL("cannot write sweep stats to '" << path << "'");
    JsonWriter w(os);
    w.beginObject();
    w.field("points", ctr.points);
    w.field("spawned", ctr.spawned);
    w.field("cache_hits", ctr.cacheHits);
    w.field("retries", ctr.retries);
    w.field("timeouts", ctr.timeouts);
    w.field("crashes", ctr.crashes);
    w.field("ok_points", ctr.okPoints);
    w.field("failed_points", ctr.failedPoints);
    w.endObject();
}

} // namespace

SweepOptions
parseSweepArgs(int argc, char **argv)
{
    constexpr u64 kU32Max = std::numeric_limits<u32>::max();
    SweepOptions opt;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--point=", 8) == 0) {
            opt.pointSpec = arg + 8;
            if (opt.pointSpec.empty())
                WC_FATAL("--point needs WORKLOAD|CONFIGSPEC");
        } else if (std::strncmp(arg, "--point-out=", 12) == 0) {
            opt.pointOut = arg + 12;
            if (opt.pointOut.empty())
                WC_FATAL("--point-out needs a file path");
        } else if (std::strncmp(arg, "--attempt=", 10) == 0) {
            opt.attempt = static_cast<u32>(parseCount(
                "--attempt", arg + 10, "an integer >= 1", 1, kU32Max));
        } else if (std::strncmp(arg, "--chaos=", 8) == 0) {
            std::string err;
            const auto spec = chaosFromSpec(arg + 8, &err);
            if (!spec.has_value())
                WC_FATAL(err);
            opt.chaos = *spec;
        } else if (std::strncmp(arg, "--journal=", 10) == 0) {
            opt.journalPath = arg + 10;
            if (opt.journalPath.empty())
                WC_FATAL("--journal needs a file path");
        } else if (std::strncmp(arg, "--resume=", 9) == 0) {
            opt.resumePath = arg + 9;
            if (opt.resumePath.empty())
                WC_FATAL("--resume needs a journal path");
        } else if (std::strncmp(arg, "--report=", 9) == 0) {
            opt.reportPath = arg + 9;
            if (opt.reportPath.empty())
                WC_FATAL("--report needs a file path");
        } else if (std::strncmp(arg, "--sweep-stats=", 14) == 0) {
            opt.sweepStatsPath = arg + 14;
            if (opt.sweepStatsPath.empty())
                WC_FATAL("--sweep-stats needs a file path");
        } else if (std::strncmp(arg, "--timeout=", 10) == 0) {
            const auto seconds = parseNumber(arg + 10);
            if (!seconds.has_value() || *seconds <= 0.0)
                WC_FATAL("--timeout must be a positive number of "
                         "seconds, got '" << (arg + 10) << "'");
            opt.timeoutSeconds = *seconds;
        } else if (std::strncmp(arg, "--attempts=", 11) == 0) {
            opt.maxAttempts = static_cast<u32>(parseCount(
                "--attempts", arg + 11, "an integer in 1..100", 1, 100));
        } else if (std::strncmp(arg, "--backoff-ms=", 13) == 0) {
            opt.backoffMs = static_cast<u32>(parseCount(
                "--backoff-ms", arg + 13, "an integer in 0..60000", 0,
                60'000));
        } else if (std::strncmp(arg, "--die-after=", 12) == 0) {
            opt.dieAfterPoints = static_cast<u32>(parseCount(
                "--die-after", arg + 12, "an integer >= 1", 1, kU32Max));
        } else if (std::strncmp(arg, "--grid=", 7) == 0) {
            opt.grid = arg + 7;
            if (opt.grid.empty())
                WC_FATAL("--grid needs a name");
        } else {
            WC_FATAL("unknown argument '" << arg << "'");
        }
    }
    if (opt.isChild() && opt.pointOut.empty())
        WC_FATAL("--point requires --point-out=FILE");
    return opt;
}

int
runSweepChildPoint(const SweepOptions &opt)
{
    std::string err;
    const auto point = pointFromSpec(opt.pointSpec, &err);
    if (!point.has_value())
        WC_FATAL(err);

    // Chaos first: an injured child dies (or stalls) before any
    // simulation work, the same way a real crash would.
    applyChaos(chaosAction(opt.chaos, pointKey(*point), opt.attempt));

    const ExperimentResult result =
        runWorkload(point->workload, point->cfg);
    const PointStats stats = makePointStats(result, point->cfg.energy);

    std::ofstream os(opt.pointOut, std::ios::binary);
    if (!os)
        WC_FATAL("cannot write point result to '" << opt.pointOut
                 << "'");
    JsonWriter w(os);
    writeJson(w, stats);
    os.flush();
    return os ? 0 : 1;
}

std::vector<PointOutcome>
runResilientSweep(const std::string &self_path,
                  const std::vector<SweepPoint> &points,
                  const SweepOptions &opt, u32 threads)
{
    JournalIndex resume_index;
    if (!opt.resumePath.empty()) {
        std::string err;
        const auto loaded = loadJournal(opt.resumePath, &err);
        if (!loaded.has_value())
            WC_FATAL("--resume: " << err);
        resume_index = *loaded;
        if (resume_index.skippedLines > 0 ||
            resume_index.staleRecords > 0)
            std::cerr << "sweep: resume journal '" << opt.resumePath
                      << "': tolerated " << resume_index.skippedLines
                      << " unparseable line(s), skipped "
                      << resume_index.staleRecords
                      << " stale record(s)\n";
    }

    // --resume without --journal keeps checkpointing into the same
    // file, so an interrupted resume is itself resumable.
    const std::string journal_path = !opt.journalPath.empty()
        ? opt.journalPath : opt.resumePath;
    std::optional<SweepJournal> journal;
    if (!journal_path.empty())
        journal.emplace(journal_path);

    SupervisorOptions sup;
    sup.selfPath = self_path;
    sup.workers = resolveThreadCount(threads);
    sup.timeoutSeconds = opt.timeoutSeconds;
    sup.maxAttempts = opt.maxAttempts;
    sup.backoffMs = opt.backoffMs;
    sup.chaos = opt.chaos;
    sup.dieAfterPoints = opt.dieAfterPoints;

    SweepCounters counters;
    auto outcomes = runSupervised(
        points, sup, opt.resumePath.empty() ? nullptr : &resume_index,
        journal.has_value() ? &*journal : nullptr, &counters);

    if (!opt.sweepStatsPath.empty())
        writeSweepStats(opt.sweepStatsPath, counters);
    std::cerr << "sweep: " << counters.points << " points, "
              << counters.spawned << " spawned, " << counters.cacheHits
              << " cached, " << counters.retries << " retries ("
              << counters.crashes << " crashes, " << counters.timeouts
              << " timeouts), " << counters.okPoints << " ok, "
              << counters.failedPoints << " failed\n";
    return outcomes;
}

void
writeSweepReport(std::ostream &os, const std::string &bench,
                 const std::string &grid,
                 const std::vector<PointOutcome> &outcomes)
{
    JsonWriter w(os);
    w.beginObject();
    w.field("bench", bench);
    w.field("grid", grid);
    w.field("git_sha", sweepGitSha());
    w.key("points");
    w.beginArray();
    for (const PointOutcome &out : outcomes) {
        w.beginObject();
        w.field("workload", out.point.workload);
        w.field("config", configToSpec(out.point.cfg));
        w.field("key", out.key);
        w.field("status", out.status);
        if (!out.ok()) {
            // Attempt counts are supervision detail: on an ok point
            // they vary with chaos/retries and would break the
            // byte-identity contract, so they only appear alongside a
            // failure (where the run is nondeterministic anyway).
            w.field("attempts", out.attempts);
            w.field("reason", out.reason);
        } else {
            w.key("stats");
            writeJson(w, *out.statsJson);
        }
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

} // namespace warpcomp
