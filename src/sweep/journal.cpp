#include "sweep/journal.hpp"

#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

#include "common/log.hpp"
#include "obs/trace_stream.hpp"

namespace warpcomp {

namespace {

/** The line format; lines of any other `v` load as skipped lines.
 *  Version 2: an ok point's `stats` is its --stats-json row. */
constexpr u64 kJournalVersion = 2;

} // namespace

void
writePointOutcome(JsonWriter &w, const PointOutcome &out, bool journal)
{
    w.beginObject();
    if (journal) {
        w.field("v", kJournalVersion);
        w.field("git_sha", traceStreamGitSha());
    }
    w.field("workload", out.point.workload);
    w.field("config", configToSpec(out.point.cfg));
    w.field("key", out.key);
    w.field("status", out.status);
    // Attempt counts are supervision detail: on an ok point they vary
    // with chaos/retries and would break the report's byte-identity
    // across clean and resumed runs, so a report shows them only
    // beside a failure (where the run is nondeterministic anyway).
    if (journal || !out.ok())
        w.field("attempts", out.attempts);
    if (out.ok()) {
        WC_ASSERT(out.payload.has_value(), "an ok point needs its payload");
        w.key("stats");
        writeJson(w, *out.payload);
    } else {
        w.field("reason", out.reason);
    }
    w.endObject();
}

SweepJournal::SweepJournal(std::string path) : path_(std::move(path))
{
    WC_ASSERT(!path_.empty(), "journal path must not be empty");
}

SweepJournal::~SweepJournal()
{
    if (fd_ >= 0)
        ::close(fd_);
}

std::string
journalLine(const PointOutcome &out)
{
    std::ostringstream ss;
    JsonWriter w(ss, JsonWriter::Style::Compact);
    writePointOutcome(w, out, true);
    return ss.str();
}

void
SweepJournal::append(const PointOutcome &out)
{
    if (fd_ < 0) {
        fd_ = ::open(path_.c_str(),
                     O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
        if (fd_ < 0)
            WC_FATAL("cannot open sweep journal '" << path_ << "'");
    }
    const std::string line = journalLine(out) + "\n";
    // One write(2) for the whole line: appends from concurrent sweeps
    // on the same journal interleave at line granularity, and a torn
    // tail can only be the final line (which the loader drops).
    size_t off = 0;
    while (off < line.size()) {
        const ssize_t n =
            ::write(fd_, line.data() + off, line.size() - off);
        if (n < 0)
            WC_FATAL("cannot append to sweep journal '" << path_ << "'");
        off += static_cast<size_t>(n);
    }
    if (::fsync(fd_) != 0)
        WC_FATAL("cannot fsync sweep journal '" << path_ << "'");
}

std::optional<PointOutcome>
parseJournalLine(const std::string &line, std::string *git_sha)
{
    const JsonParseOutcome parsed = parseJson(line);
    if (!parsed.ok())
        return std::nullopt;
    const JsonValue &v = *parsed.value;

    const JsonValue *version = v.find("v");
    if (version == nullptr ||
        version->asU64() != std::optional<u64>(kJournalVersion))
        return std::nullopt;

    PointOutcome out;
    auto str = [&](const char *key, std::string *dst) {
        const JsonValue *f = v.find(key);
        if (f == nullptr || f->asString() == nullptr)
            return false;
        *dst = *f->asString();
        return true;
    };
    std::string config;
    if (!str("git_sha", git_sha) || !str("workload", &out.point.workload) ||
        !str("config", &config) || !str("key", &out.key) ||
        !str("status", &out.status))
        return std::nullopt;
    const auto cfg = configFromSpec(config, nullptr);
    if (!cfg.has_value())
        return std::nullopt;
    out.point.cfg = *cfg;

    const JsonValue *attempts = v.find("attempts");
    const auto attempts_v =
        attempts != nullptr ? attempts->asU64() : std::nullopt;
    if (!attempts_v.has_value() || *attempts_v < 1 ||
        *attempts_v > 0xFFFFFFFFull)
        return std::nullopt;
    out.attempts = static_cast<u32>(*attempts_v);

    if (out.ok()) {
        // A successful point must carry its payload.
        const JsonValue *stats = v.find("stats");
        if (stats == nullptr || !stats->isObject())
            return std::nullopt;
        out.payload = *stats;
    } else if (out.status != "failed" || !str("reason", &out.reason)) {
        return std::nullopt;
    }
    return out;
}

std::optional<JournalIndex>
loadJournal(const std::string &path, std::string *error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (error != nullptr)
            *error = "cannot open journal '" + path + "'";
        return std::nullopt;
    }
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());

    JournalIndex index;
    size_t pos = 0;
    while (pos < content.size()) {
        const size_t nl = content.find('\n', pos);
        if (nl == std::string::npos) {
            // Torn tail: the writer died mid-line. Drop it.
            ++index.skippedLines;
            break;
        }
        const std::string line = content.substr(pos, nl - pos);
        pos = nl + 1;
        if (line.empty())
            continue;
        std::string git_sha;
        auto rec = parseJournalLine(line, &git_sha);
        if (!rec.has_value()) {
            ++index.skippedLines;
            continue;
        }
        // Stale-cache guard: a record minted by a different source
        // revision may describe different simulator behaviour.
        if (git_sha != traceStreamGitSha()) {
            ++index.staleRecords;
            continue;
        }
        // Later records win: a re-run may have replaced an earlier
        // failure with a success.
        index.byKey[rec->key] = std::move(*rec);
    }
    return index;
}

} // namespace warpcomp
