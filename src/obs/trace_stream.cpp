#include "obs/trace_stream.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string_view>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/json_parse.hpp"
#include "common/json_writer.hpp"
#include "common/log.hpp"
#include "sim/arbiter.hpp"

#ifndef WC_GIT_SHA
#define WC_GIT_SHA "unknown"
#endif

namespace warpcomp {

namespace {

/** Events per batch record: 4096 × 23 B ≈ 92 KiB of buffered payload —
 *  bounded memory however long the run, few syscalls per million
 *  events. */
constexpr u32 kBatchEvents = 4096;
constexpr std::size_t kBatchHeaderBytes = 1 + 4 + 4; // type, len, count

void
put16(u8 *p, u16 v)
{
    p[0] = static_cast<u8>(v);
    p[1] = static_cast<u8>(v >> 8);
}

void
put32(u8 *p, u32 v)
{
    for (int i = 0; i < 4; ++i)
        p[i] = static_cast<u8>(v >> (8 * i));
}

void
put64(u8 *p, u64 v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = static_cast<u8>(v >> (8 * i));
}

u16
get16(const u8 *p)
{
    return static_cast<u16>(p[0] | (u16{p[1]} << 8));
}

u32
get32(const u8 *p)
{
    u32 v = 0;
    for (int i = 0; i < 4; ++i)
        v |= u32{p[i]} << (8 * i);
    return v;
}

u64
get64(const u8 *p)
{
    u64 v = 0;
    for (int i = 0; i < 8; ++i)
        v |= u64{p[i]} << (8 * i);
    return v;
}

std::string
headerJson(const TraceStreamMeta &meta)
{
    std::ostringstream ss;
    JsonWriter w(ss, JsonWriter::Style::Compact);
    w.beginObject();
    w.field("format", "wc-trace");
    w.field("version", kTraceDumpVersion);
    w.field("git_sha", meta.gitSha);
    w.field("workload", meta.workload);
    w.field("frontend", meta.frontend);
    w.field("image_sha256", meta.imageSha);
    w.field("config", meta.config);
    w.field("sms", meta.numSms);
    w.field("banks", meta.numBanks);
    w.field("window_interval", meta.windowInterval);
    w.field("trace_start", static_cast<u64>(meta.traceStart));
    w.field("trace_end", static_cast<u64>(meta.traceEnd));
    w.field("compress_latency", meta.compressLatency);
    w.field("decompress_latency", meta.decompressLatency);
    w.key("event_kinds");
    w.beginArray();
    for (u32 k = 0; k < kNumTraceEventKinds; ++k)
        w.value(traceEventName(static_cast<TraceEventKind>(k)));
    w.endArray();
    w.endObject();
    return ss.str();
}

std::optional<TraceStreamMeta>
metaFromJson(std::string_view json)
{
    const JsonParseOutcome parsed = parseJson(json);
    if (!parsed.ok() || !parsed.value->isObject())
        return std::nullopt;
    const JsonValue &v = *parsed.value;

    const JsonValue *format = v.find("format");
    if (format == nullptr || format->asString() == nullptr ||
        *format->asString() != "wc-trace")
        return std::nullopt;

    TraceStreamMeta meta;
    auto str = [&](const char *key, std::string *out) {
        const JsonValue *f = v.find(key);
        if (f == nullptr || f->asString() == nullptr)
            return false;
        *out = *f->asString();
        return true;
    };
    auto num = [&](const char *key, u64 *out) {
        const JsonValue *f = v.find(key);
        if (f == nullptr)
            return false;
        const auto n = f->asU64();
        if (!n.has_value())
            return false;
        *out = *n;
        return true;
    };
    u64 sms = 0, banks = 0, interval = 0, start = 0, end = 0;
    u64 clat = 0, dlat = 0;
    if (!str("git_sha", &meta.gitSha) ||
        !str("workload", &meta.workload) ||
        !str("frontend", &meta.frontend) ||
        !str("image_sha256", &meta.imageSha) ||
        !str("config", &meta.config) || !num("sms", &sms) ||
        !num("banks", &banks) || !num("window_interval", &interval) ||
        !num("trace_start", &start) || !num("trace_end", &end) ||
        !num("compress_latency", &clat) ||
        !num("decompress_latency", &dlat))
        return std::nullopt;
    // A bank count the simulator cannot run would only size the
    // analyzers' per-bank tables.
    if (sms > 0xFFFF || banks < 1 || banks > kMaxArbiterBanks ||
        interval > 0xFFFFFFFFull ||
        clat > 0xFFFFFFFFull || dlat > 0xFFFFFFFFull)
        return std::nullopt;
    meta.numSms = static_cast<u32>(sms);
    meta.numBanks = static_cast<u32>(banks);
    meta.windowInterval = static_cast<u32>(interval);
    meta.traceStart = start;
    meta.traceEnd = end;
    meta.compressLatency = static_cast<u32>(clat);
    meta.decompressLatency = static_cast<u32>(dlat);
    return meta;
}

} // namespace

const char *
traceStreamGitSha()
{
    return WC_GIT_SHA;
}

TraceStreamSink::TraceStreamSink(std::string path,
                                 const TraceStreamMeta &meta)
    : path_(std::move(path))
{
    WC_ASSERT(!path_.empty(), "trace dump path must not be empty");
    fd_ = ::open(path_.c_str(),
                 O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd_ < 0)
        WC_FATAL("cannot open trace dump '" << path_ << "'");

    const std::string json = headerJson(meta);
    std::vector<u8> header(sizeof(kTraceDumpMagic) + 8 + json.size());
    std::memcpy(header.data(), kTraceDumpMagic, sizeof(kTraceDumpMagic));
    put32(header.data() + 8, kTraceDumpVersion);
    put32(header.data() + 12, static_cast<u32>(json.size()));
    std::memcpy(header.data() + 16, json.data(), json.size());
    writeAll(header.data(), header.size());
    headerBytes_ = header.size();

    buf_.resize(kBatchHeaderBytes +
                static_cast<std::size_t>(kBatchEvents) *
                    kPackedEventBytes);
}

TraceStreamSink::~TraceStreamSink()
{
    // Destruction without finalize() (a fatal mid-run) leaves a dump
    // with no footer — exactly what the loader reports as truncated.
    if (fd_ >= 0)
        ::close(fd_);
}

void
TraceStreamSink::writeAll(const u8 *data, std::size_t n)
{
    std::size_t off = 0;
    while (off < n) {
        const ssize_t w = ::write(fd_, data + off, n - off);
        if (w < 0)
            WC_FATAL("cannot append to trace dump '" << path_ << "'");
        off += static_cast<std::size_t>(w);
    }
}

void
TraceStreamSink::pushRun(const TraceEvent *ev, std::size_t n)
{
    WC_ASSERT(!finalized_, "push after finalize on trace dump");
    events_ += n;
    while (n > 0) {
        // Up to the end of the batch in the buffer.
        const std::size_t k =
            std::min<std::size_t>(n, kBatchEvents - bufEvents_);
        u8 *p = buf_.data() + kBatchHeaderBytes +
                static_cast<std::size_t>(bufEvents_) * kPackedEventBytes;
        for (const TraceEvent *end = ev + k; ev != end;
             ++ev, p += kPackedEventBytes) {
            put64(p, ev->cycle);
            put32(p + 8, ev->a);
            put32(p + 12, ev->b);
            put16(p + 16, ev->sm);
            put16(p + 18, ev->lane);
            put16(p + 20, ev->c);
            p[22] = static_cast<u8>(ev->kind);
        }
        n -= k;
        bufEvents_ += static_cast<u32>(k);
        if (bufEvents_ == kBatchEvents)
            flushEvents();
    }
}

void
TraceStreamSink::rewind()
{
    WC_ASSERT(!finalized_, "rewind after finalize on trace dump");
    const off_t end = static_cast<off_t>(headerBytes_);
    if (::lseek(fd_, end, SEEK_SET) != end || ::ftruncate(fd_, end) != 0)
        WC_FATAL("cannot rewind trace dump '" << path_ << "'");
    bufEvents_ = 0;
    events_ = 0;
}

void
TraceStreamSink::flushEvents()
{
    if (bufEvents_ == 0)
        return;
    const u32 payload =
        4 + bufEvents_ * kPackedEventBytes; // count + events
    buf_[0] = kRecordEventBatch;
    put32(buf_.data() + 1, payload);
    put32(buf_.data() + 5, bufEvents_);
    writeAll(buf_.data(), kBatchHeaderBytes +
                              static_cast<std::size_t>(bufEvents_) *
                                  kPackedEventBytes);
    bufEvents_ = 0;
}

void
TraceStreamSink::finalize(Cycle cycles, const ObsWindows &windows)
{
    WC_ASSERT(!finalized_, "double finalize on trace dump");
    finalized_ = true;
    flushEvents();

    // Window-summary rows: one record per interval, dense from 0 so
    // the analyzer indexes them directly.
    u8 rec[1 + 4 + kPackedWindowBytes];
    for (std::size_t i = 0; i < windows.rows().size(); ++i) {
        const WindowRow &r = windows.rows()[i];
        rec[0] = kRecordWindowRow;
        put32(rec + 1, kPackedWindowBytes);
        u8 *p = rec + 5;
        put64(p, static_cast<u64>(i));
        put64(p + 8, r.issued);
        put64(p + 16, r.dummyMovs);
        put64(p + 24, r.regWrites);
        put64(p + 32, r.storedBytes);
        put64(p + 40, r.rawBytes);
        put64(p + 48, r.gatedBankCycles);
        put64(p + 56, r.bankCycles);
        put64(p + 64, r.smCycles);
        writeAll(rec, sizeof(rec));
    }

    u8 footer[1 + 4 + 32];
    footer[0] = kRecordFooter;
    put32(footer + 1, 32);
    put64(footer + 5, events_);
    put64(footer + 13, static_cast<u64>(windows.rows().size()));
    put64(footer + 21, static_cast<u64>(cycles));
    put64(footer + 29, kTraceDumpEndMarker);
    writeAll(footer, sizeof(footer));

    if (::fsync(fd_) != 0)
        WC_FATAL("cannot fsync trace dump '" << path_ << "'");
    ::close(fd_);
    fd_ = -1;
}

namespace {

std::optional<TraceDump>
failLoad(TraceDumpError *err, std::string code, std::string detail)
{
    if (err != nullptr)
        *err = {std::move(code), std::move(detail)};
    return std::nullopt;
}

/** Bytes a read asks for at most: the step by which the payload
 *  buffer can grow past the bytes that have arrived. */
constexpr std::size_t kReadChunk = std::size_t{1} << 20;

/**
 * A dump read front to back with read(2), so a pipe loads like a file.
 * Each fill() lands in one buffer, reused from record to record; it
 * grows by at most kReadChunk past the bytes that did arrive, so no
 * length field sizes more than the input holds.
 */
class DumpReader
{
  public:
    explicit DumpReader(int fd) : fd_(fd) {}
    ~DumpReader() { ::close(fd_); }

    DumpReader(const DumpReader &) = delete;
    DumpReader &operator=(const DumpReader &) = delete;

    /** The next @p n bytes into data(); returns how many arrived, fewer
     *  only where the input ends. */
    u64
    fill(u64 n)
    {
        u64 have = 0;
        while (have < n) {
            const std::size_t want = static_cast<std::size_t>(
                std::min<u64>(n - have, kReadChunk));
            if (buf_.size() < have + want)
                buf_.resize(have + want);
            const std::size_t got = readSome(buf_.data() + have, want);
            have += got;
            if (got < want)
                break;
        }
        return have;
    }

    /** Past the next @p n bytes, kReadChunk at a time; false if the
     *  input ends first. */
    bool
    skip(u64 n)
    {
        while (n > 0) {
            const u64 want = std::min<u64>(n, kReadChunk);
            if (fill(want) != want)
                return false;
            n -= want;
        }
        return true;
    }

    const u8 *data() const { return buf_.data(); }

  private:
    /** Up to @p n bytes; fewer only at the end of the input or on a
     *  read error, which ends it. */
    std::size_t
    readSome(u8 *out, std::size_t n)
    {
        std::size_t got = 0;
        while (got < n) {
            const ssize_t r = ::read(fd_, out + got, n - got);
            if (r < 0 && errno == EINTR)
                continue;
            if (r <= 0)
                break;
            got += static_cast<std::size_t>(r);
        }
        return got;
    }

    int fd_;
    std::vector<u8> buf_;
};

/**
 * Events declared by the batch records from @p pos on, to size the
 * event vector once. Only a regular file has record headers to read
 * ahead, with pread, which leaves the reader where it is. A writer
 * writes every batch before its window rows, so the count stops at the
 * first record that is not a whole, well-formed batch; the parse still
 * checks every record.
 */
std::size_t
countBatchEvents(int fd, u64 pos)
{
    struct stat st{};
    if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode))
        return 0;
    const u64 size = static_cast<u64>(st.st_size);
    std::size_t n = 0;
    u8 head[kBatchHeaderBytes];
    while (pos + sizeof head <= size &&
           ::pread(fd, head, sizeof head, static_cast<off_t>(pos)) ==
               static_cast<ssize_t>(sizeof head)) {
        const u32 len = get32(head + 1);
        const u32 count = get32(head + 5);
        if (head[0] != kRecordEventBatch || pos + 5 + len > size ||
            4 + static_cast<u64>(count) * kPackedEventBytes != len)
            break;
        n += count;
        pos += 5 + static_cast<u64>(len);
    }
    return n;
}

} // namespace

std::optional<TraceDump>
loadTraceDump(const std::string &path, TraceDumpError *err)
{
    std::error_code ec;
    if (std::filesystem::is_directory(path, ec))
        return failLoad(err, "open_failed",
                        "trace dump '" + path + "' is a directory");
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return failLoad(err, "open_failed",
                        "cannot open trace dump '" + path + "'");
    DumpReader in(fd);

    if (in.fill(16) < 16 ||
        std::memcmp(in.data(), kTraceDumpMagic, sizeof(kTraceDumpMagic)) !=
            0)
        return failLoad(err, "bad_magic",
                        "not a wc-trace dump (bad or short magic)");
    const u32 version = get32(in.data() + 8);
    if (version != kTraceDumpVersion)
        return failLoad(err, "bad_version",
                        "unsupported dump version " +
                            std::to_string(version));
    const u32 json_len = get32(in.data() + 12);
    if (in.fill(json_len) < json_len)
        return failLoad(err, "truncated_dump",
                        "header JSON extends past end of file");
    const auto meta = metaFromJson(
        {reinterpret_cast<const char *>(in.data()), json_len});
    if (!meta.has_value())
        return failLoad(err, "bad_header",
                        "header JSON is missing required fields or "
                        "holds an out-of-range value");

    TraceDump dump;
    dump.meta = *meta;

    u64 pos = 16 + static_cast<u64>(json_len);
    dump.events.reserve(countBatchEvents(fd, pos));
    bool saw_footer = false;
    u64 footer_events = 0, footer_windows = 0;
    for (;;) {
        const u64 head = in.fill(5);
        if (head == 0)
            break;
        if (head < 5)
            return failLoad(err, "truncated_dump",
                            "record header torn at byte " +
                                std::to_string(pos));
        const u8 type = in.data()[0];
        const u32 len = get32(in.data() + 1);
        pos += 5;
        // Only a payload the checks below decode is kept; any other is
        // read past, so its length sizes nothing.
        const bool keep = !saw_footer &&
            (type == kRecordEventBatch ||
             (type == kRecordWindowRow && len == kPackedWindowBytes) ||
             (type == kRecordFooter && len == 32));
        if (keep ? in.fill(len) < len : !in.skip(len))
            return failLoad(err, "truncated_dump",
                            "record payload torn at byte " +
                                std::to_string(pos));
        const u8 *payload = in.data();
        pos += len;

        if (saw_footer)
            return failLoad(err, "trailing_data",
                            "records after the footer");

        if (type == kRecordEventBatch) {
            if (len < 4)
                return failLoad(err, "bad_record",
                                "event batch shorter than its count");
            const u32 count = get32(payload);
            if (4 + static_cast<u64>(count) * kPackedEventBytes != len)
                return failLoad(err, "bad_record",
                                "event batch length/count mismatch");
            for (u32 i = 0; i < count; ++i) {
                const u8 *p = payload + 4 +
                              static_cast<std::size_t>(i) *
                                  kPackedEventBytes;
                if (p[22] >= kNumTraceEventKinds)
                    return failLoad(err, "bad_record",
                                    "unknown event kind " +
                                        std::to_string(p[22]));
                TraceEvent ev;
                ev.cycle = get64(p);
                ev.a = get32(p + 8);
                ev.b = get32(p + 12);
                ev.sm = get16(p + 16);
                ev.lane = get16(p + 18);
                ev.c = get16(p + 20);
                ev.kind = static_cast<TraceEventKind>(p[22]);
                dump.events.push_back(ev);
            }
        } else if (type == kRecordWindowRow) {
            if (len != kPackedWindowBytes)
                return failLoad(err, "bad_record",
                                "window row has wrong size");
            const u64 index = get64(payload);
            if (index != dump.windows.size())
                return failLoad(err, "bad_record",
                                "window rows out of order");
            WindowRow r;
            r.issued = get64(payload + 8);
            r.dummyMovs = get64(payload + 16);
            r.regWrites = get64(payload + 24);
            r.storedBytes = get64(payload + 32);
            r.rawBytes = get64(payload + 40);
            r.gatedBankCycles = get64(payload + 48);
            r.bankCycles = get64(payload + 56);
            r.smCycles = get64(payload + 64);
            dump.windows.push_back(r);
        } else if (type == kRecordFooter) {
            if (len != 32)
                return failLoad(err, "bad_record",
                                "footer has wrong size");
            footer_events = get64(payload);
            footer_windows = get64(payload + 8);
            dump.cycles = get64(payload + 16);
            if (get64(payload + 24) != kTraceDumpEndMarker)
                return failLoad(err, "bad_record",
                                "footer end marker mismatch");
            saw_footer = true;
        } else {
            // Forward compatibility: unknown records are skippable by
            // construction — but within version 1 they are a defect.
            return failLoad(err, "bad_record",
                            "unknown record type " +
                                std::to_string(type));
        }
    }
    if (!saw_footer)
        return failLoad(err, "truncated_dump",
                        "no footer: the writer did not finalize "
                        "(crashed mid-run?) or the file was cut short");
    if (footer_events != dump.events.size() ||
        footer_windows != dump.windows.size())
        return failLoad(err, "footer_mismatch",
                        "footer counts events=" +
                            std::to_string(footer_events) + " windows=" +
                            std::to_string(footer_windows) +
                            " but file holds events=" +
                            std::to_string(dump.events.size()) +
                            " windows=" +
                            std::to_string(dump.windows.size()));
    // Analyzers size per-bucket tables from the run length, so it must
    // agree with the window rows: one per interval the run started.
    const u32 interval = dump.meta.windowInterval;
    const u64 expect_windows =
        interval > 0 ? dump.cycles / interval +
                           (dump.cycles % interval != 0 ? 1 : 0)
                     : 0;
    if (dump.windows.size() != expect_windows)
        return failLoad(err, "footer_mismatch",
                        "footer cycles=" + std::to_string(dump.cycles) +
                            " implies " + std::to_string(expect_windows) +
                            " windows of " + std::to_string(interval) +
                            " cycles but the file holds " +
                            std::to_string(dump.windows.size()));
    return dump;
}

} // namespace warpcomp
