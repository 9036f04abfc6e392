#include "common/json_writer.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/log.hpp"

namespace warpcomp {

namespace {

bool
needsEscape(char c)
{
    return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
}

/** Newline plus indentation for the common nesting depths. */
constexpr char kNewlineIndent[] = "\n                                ";

template <typename Int>
std::string_view
formatInt(char (&buf)[24], Int v)
{
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return {buf, static_cast<std::size_t>(res.ptr - buf)};
}

} // namespace

std::string
JsonWriter::escape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
JsonWriter::formatDouble(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.12g", v);
    return buf;
}

JsonWriter::~JsonWriter()
{
    flush();
}

void
JsonWriter::flush()
{
    if (len_ == 0)
        return;
    os_.write(buf_.get(), static_cast<std::streamsize>(len_));
    len_ = 0;
}

void
JsonWriter::put(const char *p, std::size_t n)
{
    if (len_ + n > kBufferBytes) {
        flush();
        if (n > kBufferBytes) {
            os_.write(p, static_cast<std::streamsize>(n));
            return;
        }
    }
    std::memcpy(buf_.get() + len_, p, n);
    len_ += n;
}

void
JsonWriter::afterValue()
{
    if (stack_.empty())
        flush();
}

void
JsonWriter::newlineIndent()
{
    if (style_ == Style::Compact)
        return;
    const std::size_t n = 1 + 2 * stack_.size();
    if (n < sizeof kNewlineIndent) {
        put(kNewlineIndent, n);
        return;
    }
    put('\n');
    for (std::size_t i = 0; i < stack_.size(); ++i)
        put("  ", 2);
}

void
JsonWriter::putString(std::string_view s)
{
    put('"');
    if (std::none_of(s.begin(), s.end(), needsEscape))
        put(s);
    else
        put(escape(s));
    put('"');
}

void
JsonWriter::beforeValue()
{
    if (stack_.empty())
        return;
    if (stack_.back() == Ctx::Object) {
        WC_ASSERT(pendingKey_, "JSON object value without a key");
        pendingKey_ = false;
        return;
    }
    if (counts_.back() > 0)
        put(',');
    newlineIndent();
    ++counts_.back();
}

void
JsonWriter::key(std::string_view k)
{
    WC_ASSERT(!stack_.empty() && stack_.back() == Ctx::Object,
              "JSON key outside an object");
    WC_ASSERT(!pendingKey_, "two JSON keys in a row");
    if (counts_.back() > 0)
        put(',');
    newlineIndent();
    ++counts_.back();
    putString(k);
    put(style_ == Style::Compact ? ":" : ": ");
    pendingKey_ = true;
}

void
JsonWriter::beginObject()
{
    beforeValue();
    put('{');
    stack_.push_back(Ctx::Object);
    counts_.push_back(0);
}

void
JsonWriter::endObject()
{
    WC_ASSERT(!stack_.empty() && stack_.back() == Ctx::Object,
              "unbalanced endObject");
    closeContainer('}');
}

void
JsonWriter::beginArray()
{
    beforeValue();
    put('[');
    stack_.push_back(Ctx::Array);
    counts_.push_back(0);
}

void
JsonWriter::endArray()
{
    WC_ASSERT(!stack_.empty() && stack_.back() == Ctx::Array,
              "unbalanced endArray");
    closeContainer(']');
}

void
JsonWriter::closeContainer(char close)
{
    const bool empty = counts_.back() == 0;
    stack_.pop_back();
    counts_.pop_back();
    if (!empty)
        newlineIndent();
    put(close);
    if (stack_.empty() && style_ != Style::Compact)
        put('\n');
    afterValue();
}

void
JsonWriter::value(std::string_view v)
{
    beforeValue();
    putString(v);
    afterValue();
}

void
JsonWriter::value(bool v)
{
    beforeValue();
    put(v ? "true" : "false");
    afterValue();
}

void
JsonWriter::value(double v)
{
    beforeValue();
    put(formatDouble(v));
    afterValue();
}

void
JsonWriter::value(u64 v)
{
    beforeValue();
    char buf[24];
    put(formatInt(buf, v));
    afterValue();
}

void
JsonWriter::value(i64 v)
{
    beforeValue();
    char buf[24];
    put(formatInt(buf, v));
    afterValue();
}

void
JsonWriter::valueNull()
{
    beforeValue();
    put("null");
    afterValue();
}

void
JsonWriter::rawValue(std::string_view raw)
{
    WC_ASSERT(!raw.empty(), "empty raw JSON value");
    beforeValue();
    put(raw);
    afterValue();
}

void
JsonWriter::rawElements(std::string_view elems, std::size_t count)
{
    WC_ASSERT(!stack_.empty() && stack_.back() == Ctx::Array,
              "raw elements outside an array");
    WC_ASSERT((count == 0) == elems.empty(),
              "raw elements: " << count << " elements in " << elems.size()
                               << " bytes");
    if (count == 0)
        return;
    const std::size_t indent = 2 * stack_.size();
    const bool separated = style_ == Style::Compact
        ? elems.front() == ','
        : elems.size() > 2 + indent && elems.substr(0, 2) == ",\n" &&
              elems.find_first_not_of(' ', 2) == 2 + indent;
    WC_ASSERT(separated,
              "raw elements must start with this depth's separator");
    if (counts_.back() == 0)
        elems.remove_prefix(1);
    put(elems);
    counts_.back() += static_cast<u32>(count);
}

} // namespace warpcomp
