/**
 * @file
 * Streaming JSON writer shared by every machine-readable output path
 * (perf records, sweep benches, the structured-stats dump, and the
 * Chrome trace exporter). Centralizes string escaping and stable float
 * formatting so all documents are deterministic byte-for-byte given the
 * same data, regardless of which binary produced them.
 */

#ifndef WARPCOMP_COMMON_JSON_WRITER_HPP
#define WARPCOMP_COMMON_JSON_WRITER_HPP

#include <cstddef>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace warpcomp {

/**
 * Minimal structural JSON emitter. Call begin/end for containers,
 * key() inside objects, value() for leaves; commas and newlines are
 * inserted automatically. Layout is fixed: containers indent by two
 * spaces per level, one element per line, so output is both diffable
 * and byte-stable across runs. The Compact style drops all whitespace
 * (one document per line) for append-only journals where a record must
 * be exactly one line.
 *
 * Tokens are formatted into a fixed kBufferBytes buffer the writer
 * owns and reach the stream in large write() calls. The buffer is
 * handed over whenever a top-level value completes (so the stream
 * holds the whole document, trailing newline included, as soon as its
 * closing brace is written), when the next token does not fit, on
 * flush() and in the destructor. A caller must not write to or read
 * from the stream itself while a top-level value is still open.
 */
class JsonWriter
{
  public:
    enum class Style : u8 { Pretty, Compact };

    /** Most bytes the writer holds before handing them to the stream. */
    static constexpr std::size_t kBufferBytes = 64 * 1024;

    explicit JsonWriter(std::ostream &os, Style style = Style::Pretty)
        : os_(os), style_(style)
    {
    }
    ~JsonWriter();
    JsonWriter(const JsonWriter &) = delete;
    JsonWriter &operator=(const JsonWriter &) = delete;

    /** Hand every buffered byte to the stream (the stream itself is
     *  not flushed). */
    void flush();

    void beginObject();
    void endObject();
    void beginArray();
    void endArray();

    /** Object member key; must be followed by a value or container. */
    void key(std::string_view k);

    void value(std::string_view v);
    void value(const char *v) { value(std::string_view(v)); }
    void value(const std::string &v) { value(std::string_view(v)); }
    void value(bool v);
    void value(double v);
    void value(u64 v);
    void value(u32 v) { value(static_cast<u64>(v)); }
    void value(u16 v) { value(static_cast<u64>(v)); }
    void value(i64 v);
    void value(i32 v) { value(static_cast<i64>(v)); }
    /** JSON null (also what non-finite doubles degrade to). */
    void valueNull();

    /**
     * Splice @p raw — one complete, already-serialized JSON value —
     * into the current value slot verbatim. The writer adds the comma
     * and the slot's newline+indent as for any value; everything inside
     * @p raw is the caller's, so a multi-line value must already be
     * laid out exactly as this style would write it at that depth.
     * Used to re-emit numeric literals byte-for-byte when copying a
     * parsed document (going through double would round u64 counters
     * above 2^53).
     */
    void rawValue(std::string_view raw);

    /**
     * Splice @p count already-serialized elements into the open array.
     * Unlike rawValue, every element in @p elems carries its own
     * separator: a comma, then (Pretty style) the newline+indent of an
     * element at this depth. So a block of elements can be formatted
     * without knowing whether the array already holds one; the writer
     * drops the leading comma when it does not, and counts the
     * elements. An empty @p elems with @p count 0 writes nothing. The
     * Chrome trace exporter splices each formatted block through this.
     */
    void rawElements(std::string_view elems, std::size_t count);

    /** key + value in one call. */
    template <typename T>
    void
    field(std::string_view k, T v)
    {
        key(k);
        value(v);
    }

    /** Escape one string body (no surrounding quotes). */
    static std::string escape(std::string_view s);

    /**
     * Stable float formatting: shortest fixed/scientific form with up
     * to 12 significant digits ("%.12g"), identical run over run for
     * the same bits. Non-finite values (JSON has no NaN/Inf) render as
     * null.
     */
    static std::string formatDouble(double v);

  private:
    enum class Ctx : u8 { Object, Array };

    void beforeValue();
    /** Flush if the value just written was top-level. */
    void afterValue();
    void newlineIndent();
    void closeContainer(char close);
    /** Append raw bytes, flushing first if they do not fit. */
    void put(const char *p, std::size_t n);
    void put(std::string_view s) { put(s.data(), s.size()); }
    void put(char c) { put(&c, 1); }
    /** Quoted and escaped. */
    void putString(std::string_view s);

    std::ostream &os_;
    Style style_ = Style::Pretty;
    std::unique_ptr<char[]> buf_{new char[kBufferBytes]};
    std::size_t len_ = 0;
    std::vector<Ctx> stack_;
    /** Elements already emitted at each open level. */
    std::vector<u32> counts_;
    bool pendingKey_ = false;
};

} // namespace warpcomp

#endif // WARPCOMP_COMMON_JSON_WRITER_HPP
