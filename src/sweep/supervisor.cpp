#include "sweep/supervisor.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <fstream>
#include <map>
#include <thread>

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/log.hpp"

namespace warpcomp {

namespace {

using Clock = std::chrono::steady_clock;

/** How a child attempt ended. */
enum class AttemptFailure { None, Crash, Timeout, BadPayload };

/** A retry waiting out its backoff. */
struct PendingAttempt
{
    size_t unique = 0;
    u32 attempt = 1;
    Clock::time_point notBefore;
};

/** A live child under the watchdog. */
struct RunningChild
{
    pid_t pid = -1;
    size_t unique = 0;
    u32 attempt = 1;
    Clock::time_point deadline;
    std::string outPath;
    bool killedByWatchdog = false;
};

std::string
describeExit(int wait_status)
{
    if (WIFEXITED(wait_status))
        return "exit code " + std::to_string(WEXITSTATUS(wait_status));
    if (WIFSIGNALED(wait_status))
        return "signal " + std::to_string(WTERMSIG(wait_status));
    return "unknown wait status";
}

/** Working directory for child result files, next to the journal when
 *  one exists so everything an interrupted sweep leaves behind sits in
 *  one place. */
std::string
makeWorkDir(const SweepJournal *journal)
{
    std::string dir;
    if (journal != nullptr) {
        dir = journal->path() + ".work";
        if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST)
            WC_FATAL("cannot create sweep work dir '" << dir << "'");
        return dir;
    }
    char tmpl[] = "/tmp/wc-sweep-XXXXXX";
    const char *made = ::mkdtemp(tmpl);
    if (made == nullptr)
        WC_FATAL("cannot create sweep work dir under /tmp");
    return made;
}

pid_t
spawnChild(const SupervisorOptions &opts, const SweepPoint &point,
           u32 attempt, const std::string &out_path)
{
    std::vector<std::string> args;
    args.push_back(opts.selfPath);
    args.push_back("--point=" + pointToSpec(point));
    args.push_back("--point-out=" + out_path);
    args.push_back("--attempt=" + std::to_string(attempt));
    args.push_back("--threads=" + std::to_string(opts.childThreads));
    if (opts.chaos.enabled())
        args.push_back("--chaos=" + chaosToSpec(opts.chaos));

    const pid_t pid = ::fork();
    if (pid != 0)
        return pid;     // parent (or fork failure, pid < 0)

    // Child. Point mode talks only through the --point-out file;
    // silence stdout so a supervised bench never interleaves with the
    // parent's merged report on the parent's stdout.
    const int devnull = ::open("/dev/null", O_WRONLY);
    if (devnull >= 0) {
        ::dup2(devnull, STDOUT_FILENO);
        ::close(devnull);
    }
    std::vector<char *> argv;
    argv.reserve(args.size() + 1);
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    if (opts.selfPath.find('/') == std::string::npos)
        ::execvp(opts.selfPath.c_str(), argv.data());
    else
        ::execv(opts.selfPath.c_str(), argv.data());
    _exit(127);         // exec failed; surfaces as a crash upstream
}

} // namespace

std::vector<PointOutcome>
runSupervised(const std::vector<SweepPoint> &points,
              const SupervisorOptions &opts, const JournalIndex *cache,
              SweepJournal *journal, SweepCounters *counters)
{
    WC_ASSERT(opts.workers >= 1, "supervisor needs at least one worker");
    WC_ASSERT(opts.maxAttempts >= 1, "maxAttempts must be >= 1");
    WC_ASSERT(!opts.selfPath.empty(), "supervisor needs a driver path");

    SweepCounters local;
    SweepCounters &ctr = counters != nullptr ? *counters : local;
    ctr.points += points.size();

    // Deduplicate: identical (workload, config) points run once, each
    // settling in place (its status set) exactly once.
    std::vector<PointOutcome> unique;
    std::map<std::string, size_t> unique_of_key;
    std::vector<size_t> unique_of_input;
    std::vector<bool> input_is_dup;
    unique_of_input.reserve(points.size());
    for (const SweepPoint &p : points) {
        const std::string key = pointKey(p);
        const auto it = unique_of_key.find(key);
        if (it != unique_of_key.end()) {
            unique_of_input.push_back(it->second);
            input_is_dup.push_back(true);
            ++ctr.cacheHits;
            continue;
        }
        unique_of_key[key] = unique.size();
        unique_of_input.push_back(unique.size());
        input_is_dup.push_back(false);
        PointOutcome out;
        out.point = p;
        out.key = key;
        unique.push_back(std::move(out));
    }

    u32 journaled = 0;
    auto settle = [&](const PointOutcome &out) {
        if (out.ok())
            ++ctr.okPoints;
        else
            ++ctr.failedPoints;
        if (journal != nullptr && !out.fromCache) {
            journal->append(out);
            ++journaled;
            if (opts.dieAfterPoints != 0 &&
                journaled >= opts.dieAfterPoints) {
                // Test hook: die the way a SIGKILL/power-loss would —
                // no unwinding, no report, journal already fsynced.
                _exit(3);
            }
        }
    };

    // Serve journal/cache hits before spawning anything.
    std::vector<PendingAttempt> pending;
    for (size_t i = 0; i < unique.size(); ++i) {
        const PointOutcome *rec =
            cache != nullptr ? cache->find(unique[i].key) : nullptr;
        if (rec != nullptr) {
            PointOutcome &out = unique[i];
            out = *rec;
            if (out.ok()) {
                std::string err;
                out.stats = pointStatsFromJson(*out.payload, &err);
                if (!out.stats.has_value())
                    WC_FATAL("journal record for point " << out.key
                             << " has a bad stats payload: " << err);
            }
            out.fromCache = true;
            ++ctr.cacheHits;
            settle(out);
            continue;
        }
        pending.push_back(
            PendingAttempt{i, 1, Clock::time_point::min()});
    }

    const std::string work_dir = makeWorkDir(journal);
    std::vector<RunningChild> running;
    const auto timeout = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(opts.timeoutSeconds));

    auto handleAttemptEnd = [&](const RunningChild &child,
                                AttemptFailure failure,
                                const std::string &detail) {
        if (failure == AttemptFailure::None) {
            ::unlink(child.outPath.c_str());
            return;
        }
        switch (failure) {
          case AttemptFailure::Crash: ++ctr.crashes; break;
          case AttemptFailure::Timeout: ++ctr.timeouts; break;
          default: break;
        }
        ::unlink(child.outPath.c_str());
        if (child.attempt < opts.maxAttempts) {
            ++ctr.retries;
            const auto backoff = std::chrono::milliseconds(
                static_cast<u64>(opts.backoffMs)
                << (child.attempt - 1));
            pending.push_back(PendingAttempt{
                child.unique, child.attempt + 1,
                Clock::now() + backoff});
            return;
        }
        PointOutcome &out = unique[child.unique];
        out.status = "failed";
        out.attempts = child.attempt;
        out.reason = detail + " after " +
                     std::to_string(child.attempt) + " attempts";
        settle(out);
    };

    auto collectChild = [&](const RunningChild &child, int wait_status) {
        if (child.killedByWatchdog) {
            handleAttemptEnd(child, AttemptFailure::Timeout,
                             "watchdog timeout");
            return;
        }
        if (!WIFEXITED(wait_status) || WEXITSTATUS(wait_status) != 0) {
            handleAttemptEnd(child, AttemptFailure::Crash,
                             describeExit(wait_status));
            return;
        }
        std::ifstream in(child.outPath, std::ios::binary);
        std::string payload;
        if (in)
            payload.assign((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
        const JsonParseOutcome parsed = parseJson(payload);
        std::string err;
        std::optional<PointStats> stats;
        if (parsed.ok())
            stats = pointStatsFromJson(*parsed.value, &err);
        if (!parsed.ok() || !stats.has_value()) {
            handleAttemptEnd(child, AttemptFailure::BadPayload,
                             "unreadable result payload");
            return;
        }
        handleAttemptEnd(child, AttemptFailure::None, "");
        PointOutcome &out = unique[child.unique];
        out.status = "ok";
        out.attempts = child.attempt;
        out.payload = std::move(*parsed.value);
        out.stats = std::move(stats);
        settle(out);
    };

    while (!pending.empty() || !running.empty()) {
        const auto now = Clock::now();

        // Launch every eligible attempt while worker slots are free.
        while (running.size() < opts.workers) {
            auto it = std::find_if(
                pending.begin(), pending.end(),
                [&](const PendingAttempt &p) { return p.notBefore <= now; });
            if (it == pending.end())
                break;
            const PendingAttempt attempt = *it;
            pending.erase(it);
            const PointOutcome &target = unique[attempt.unique];
            const std::string out_path =
                work_dir + "/p" + target.key + "-a" +
                std::to_string(attempt.attempt) + ".json";
            const pid_t pid =
                spawnChild(opts, target.point, attempt.attempt, out_path);
            if (pid < 0) {
                // fork failed (resource pressure): treat like a crash
                // of this attempt so the backoff machinery applies.
                RunningChild ghost{-1, attempt.unique, attempt.attempt,
                                   now, out_path, false};
                handleAttemptEnd(ghost, AttemptFailure::Crash,
                                 "fork failed");
                continue;
            }
            ++ctr.spawned;
            running.push_back(RunningChild{pid, attempt.unique,
                                           attempt.attempt,
                                           now + timeout, out_path,
                                           false});
        }

        if (running.empty()) {
            if (pending.empty())
                break;
            // Everything is backing off; sleep to the earliest retry.
            auto earliest = Clock::time_point::max();
            for (const PendingAttempt &p : pending)
                earliest = std::min(earliest, p.notBefore);
            std::this_thread::sleep_until(earliest);
            continue;
        }

        // Watchdog: SIGKILL expired children; they are reaped below.
        for (RunningChild &child : running) {
            if (!child.killedByWatchdog && Clock::now() >= child.deadline) {
                child.killedByWatchdog = true;
                ::kill(child.pid, SIGKILL);
            }
        }

        // Reap every child that has exited.
        bool reaped = false;
        while (true) {
            int wait_status = 0;
            const pid_t pid = ::waitpid(-1, &wait_status, WNOHANG);
            if (pid <= 0)
                break;
            const auto it = std::find_if(
                running.begin(), running.end(),
                [&](const RunningChild &c) { return c.pid == pid; });
            if (it == running.end())
                continue;   // not ours (shouldn't happen)
            const RunningChild child = *it;
            running.erase(it);
            collectChild(child, wait_status);
            reaped = true;
        }
        if (!reaped)
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }

    ::rmdir(work_dir.c_str());  // best effort; ignored when non-empty

    // Expand unique outcomes back to submission order.
    std::vector<PointOutcome> outcomes;
    outcomes.reserve(points.size());
    for (size_t i = 0; i < points.size(); ++i) {
        PointOutcome out = unique[unique_of_input[i]];
        WC_ASSERT(!out.status.empty(), "unsettled sweep point");
        if (input_is_dup[i])
            out.fromCache = true;
        outcomes.push_back(std::move(out));
    }
    return outcomes;
}

} // namespace warpcomp
