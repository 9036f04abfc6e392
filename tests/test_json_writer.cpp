/**
 * @file
 * Tests for the shared JSON writer: structural layout, string escaping,
 * stable float formatting, and when buffered bytes reach the stream.
 * Every machine-readable exporter (perf records, sweep benches, stats
 * dump, Chrome trace) rides on this, so the byte-level guarantees are
 * pinned here once.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json_writer.hpp"

namespace warpcomp {
namespace {

TEST(JsonWriter, EmptyContainers)
{
    std::ostringstream o1, o2;
    {
        JsonWriter w(o1);
        w.beginObject();
        w.endObject();
    }
    {
        JsonWriter w(o2);
        w.beginArray();
        w.endArray();
    }
    EXPECT_EQ(o1.str(), "{}\n");
    EXPECT_EQ(o2.str(), "[]\n");
}

TEST(JsonWriter, ObjectLayoutIsTwoSpaceIndentOnePerLine)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.field("a", u64{1});
    w.key("b");
    w.beginArray();
    w.value(u64{2});
    w.value(u64{3});
    w.endArray();
    w.endObject();
    EXPECT_EQ(os.str(),
              "{\n"
              "  \"a\": 1,\n"
              "  \"b\": [\n"
              "    2,\n"
              "    3\n"
              "  ]\n"
              "}\n");
}

TEST(JsonWriter, NestedObjectsInArrays)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginArray();
    w.beginObject();
    w.field("x", true);
    w.endObject();
    w.beginObject();
    w.field("y", false);
    w.endObject();
    w.endArray();
    EXPECT_EQ(os.str(),
              "[\n"
              "  {\n"
              "    \"x\": true\n"
              "  },\n"
              "  {\n"
              "    \"y\": false\n"
              "  }\n"
              "]\n");
}

TEST(JsonWriter, EscapesControlAndSpecialCharacters)
{
    EXPECT_EQ(JsonWriter::escape("plain"), "plain");
    EXPECT_EQ(JsonWriter::escape("a\"b"), "a\\\"b");
    EXPECT_EQ(JsonWriter::escape("a\\b"), "a\\\\b");
    EXPECT_EQ(JsonWriter::escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
    EXPECT_EQ(JsonWriter::escape(std::string_view("\x01\x1f", 2)),
              "\\u0001\\u001f");
    // Multibyte UTF-8 passes through untouched.
    EXPECT_EQ(JsonWriter::escape("caf\xc3\xa9"), "caf\xc3\xa9");
}

TEST(JsonWriter, EscapedStringValueRoundTrips)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.field("s", "line1\nline2\" end");
    w.endObject();
    EXPECT_EQ(os.str(), "{\n  \"s\": \"line1\\nline2\\\" end\"\n}\n");
}

TEST(JsonWriter, FloatFormattingIsStable)
{
    EXPECT_EQ(JsonWriter::formatDouble(0.0), "0");
    EXPECT_EQ(JsonWriter::formatDouble(1.0), "1");
    EXPECT_EQ(JsonWriter::formatDouble(0.5), "0.5");
    EXPECT_EQ(JsonWriter::formatDouble(1e-4), "0.0001");
    EXPECT_EQ(JsonWriter::formatDouble(5e-3), "0.005");
    EXPECT_EQ(JsonWriter::formatDouble(1.0 / 3.0), "0.333333333333");
    // Same bits must give the same bytes, run over run.
    const double v = 0.1 + 0.2;
    EXPECT_EQ(JsonWriter::formatDouble(v), JsonWriter::formatDouble(v));
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull)
{
    EXPECT_EQ(JsonWriter::formatDouble(
                  std::numeric_limits<double>::quiet_NaN()),
              "null");
    EXPECT_EQ(JsonWriter::formatDouble(
                  std::numeric_limits<double>::infinity()),
              "null");
    EXPECT_EQ(JsonWriter::formatDouble(
                  -std::numeric_limits<double>::infinity()),
              "null");

    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.field("bad", std::nan(""));
    w.endObject();
    EXPECT_EQ(os.str(), "{\n  \"bad\": null\n}\n");
}

TEST(JsonWriter, SignedAndUnsignedIntegers)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.field("neg", i64{-42});
    w.field("big", std::numeric_limits<u64>::max());
    w.field("u16v", u16{7});
    w.endObject();
    EXPECT_EQ(os.str(),
              "{\n"
              "  \"neg\": -42,\n"
              "  \"big\": 18446744073709551615,\n"
              "  \"u16v\": 7\n"
              "}\n");
}

TEST(JsonWriter, NullValueAndRootNewline)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginArray();
    w.valueNull();
    w.endArray();
    EXPECT_EQ(os.str(), "[\n  null\n]\n");
}

TEST(JsonWriter, IntegerExtremes)
{
    std::ostringstream os;
    JsonWriter w(os, JsonWriter::Style::Compact);
    w.beginArray();
    w.value(std::numeric_limits<u64>::max());
    w.value(std::numeric_limits<i64>::min());
    w.value(std::numeric_limits<i64>::max());
    w.value(u64{0});
    w.endArray();
    EXPECT_EQ(os.str(), "[18446744073709551615,-9223372036854775808,"
                        "9223372036854775807,0]");
}

TEST(JsonWriter, KeysAndValuesEscapeOnlyWhatJsonRequires)
{
    // One special byte per case, so each must be found on its own.
    const std::pair<const char *, const char *> cases[] = {
        {"a\"b", "a\\\"b"},
        {"a\\b", "a\\\\b"},
        {"a\nb", "a\\nb"},
        {"a\x01" "b", "a\\u0001b"},
        {"a\x1f" "b", "a\\u001fb"},
        {"a\x7f" "b", "a\x7f" "b"},
    };
    for (const auto &[raw, escaped] : cases) {
        std::ostringstream os;
        JsonWriter w(os, JsonWriter::Style::Compact);
        w.beginObject();
        w.field(raw, raw);
        w.endObject();
        EXPECT_EQ(os.str(), std::string("{\"") + escaped + "\":\"" +
                                escaped + "\"}")
            << escaped;
        EXPECT_EQ(JsonWriter::escape(raw), escaped);
    }
}

TEST(JsonWriter, EachTopLevelValueIsVisibleWhenItCompletes)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.field("a", u64{1});
    w.endObject();
    EXPECT_EQ(os.str(), "{\n  \"a\": 1\n}\n");
    // A caller may append to the stream between documents.
    os << "--\n";
    w.beginArray();
    w.endArray();
    EXPECT_EQ(os.str(), "{\n  \"a\": 1\n}\n--\n[]\n");
    w.value("top");
    EXPECT_EQ(os.str(), "{\n  \"a\": 1\n}\n--\n[]\n\"top\"");

    std::ostringstream compact;
    JsonWriter c(compact, JsonWriter::Style::Compact);
    c.value(0.25);
    EXPECT_EQ(compact.str(), "0.25");
}

TEST(JsonWriter, ExplicitFlushHandsOverAnOpenDocument)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.field("a", u64{1});
    w.flush();
    EXPECT_EQ(os.str(), "{\n  \"a\": 1");
    w.field("b", false);
    w.endObject();
    EXPECT_EQ(os.str(), "{\n  \"a\": 1,\n  \"b\": false\n}\n");
}

TEST(JsonWriter, DestructorFlushes)
{
    std::ostringstream os;
    {
        JsonWriter w(os);
        w.beginArray();
        w.value(u64{7});
    }
    EXPECT_EQ(os.str(), "[\n  7");
}

TEST(JsonWriter, LargeDocumentMatchesStreamReferenceInBoundedChunks)
{
    // Reference bytes built token by token on an ostream, the layout
    // the writer must reproduce.
    constexpr u64 kItems = 20000;
    std::ostringstream ref;
    ref << '[';
    for (u64 i = 0; i < kItems; ++i) {
        ref << (i > 0 ? "," : "") << "\n  {\n    \"i\": " << i
            << ",\n    \"s\": \"k" << i << "\\n\"\n  }";
    }
    ref << "\n]\n";
    ASSERT_GT(ref.str().size(), 4 * JsonWriter::kBufferBytes);

    std::ostringstream os;
    JsonWriter w(os);
    w.beginArray();
    for (u64 i = 0; i < kItems; ++i) {
        w.beginObject();
        w.field("i", i);
        std::string s = "k";
        s += std::to_string(i);
        s += '\n';
        w.field("s", s);
        w.endObject();
    }
    // The open document has mostly reached the stream already: the
    // writer holds at most one buffer of it, and "\n]\n" is unwritten.
    EXPECT_GE(os.str().size(),
              ref.str().size() - 3 - JsonWriter::kBufferBytes);
    w.endArray();
    EXPECT_EQ(os.str(), ref.str());
}

TEST(JsonWriter, TokenLargerThanTheBufferPassesThrough)
{
    const std::string big(2 * JsonWriter::kBufferBytes + 5, 'x');
    std::ostringstream os;
    JsonWriter w(os, JsonWriter::Style::Compact);
    w.beginArray();
    w.value(u64{1});
    w.rawValue(big);
    w.value(u64{2});
    w.endArray();
    EXPECT_EQ(os.str(), "[1," + big + ",2]");
}

TEST(JsonWriter, RawElementsOwnTheFirstCommaAndCountElements)
{
    // Pre-separated elements of an array at depth 2, as the Chrome
    // exporter formats them.
    const std::string a = ",\n    1";
    const std::string b = ",\n    {}";
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.key("x");
    w.beginArray();
    w.rawElements(a + b, 2); // first in the array: its comma is dropped
    w.rawElements("", 0);    // an empty block writes nothing
    w.value(u64{3});         // counted: this one needs a comma
    w.rawElements(a, 1);     // not first: its comma stays
    w.endArray();
    w.key("y");
    w.beginArray();
    w.rawElements("", 0);    // the array is still empty
    w.endArray();
    w.endObject();
    EXPECT_EQ(os.str(),
              "{\n  \"x\": [\n    1,\n    {},\n    3,\n    1\n  ],\n"
              "  \"y\": []\n}\n");

    std::ostringstream compact;
    JsonWriter c(compact, JsonWriter::Style::Compact);
    c.beginArray();
    c.rawElements(",1,2", 2);
    c.rawElements(",3", 1);
    c.endArray();
    EXPECT_EQ(compact.str(), "[1,2,3]");
}

TEST(JsonWriter, RawElementsMatchRawValuesAcrossAFlush)
{
    // Elements spliced in blocks, the first of which overflows the
    // buffer the writer has already half filled, give the bytes that
    // one rawValue per element gives.
    std::vector<std::string> elems;
    for (u64 i = 0; i < 4000; ++i)
        elems.push_back("{\"i\": " + std::to_string(i * 7919) +
                        ", \"pad\": \"" + std::string(40, 'p') + "\"}");
    std::ostringstream ref;
    {
        JsonWriter w(ref);
        w.beginArray();
        for (const std::string &e : elems)
            w.rawValue(e);
        w.endArray();
    }
    std::ostringstream os;
    JsonWriter w(os);
    w.beginArray();
    std::size_t i = 0;
    std::string pad;
    while (pad.size() < JsonWriter::kBufferBytes / 2)
        pad += ",\n  " + elems[i++];
    w.rawElements(pad, i);
    EXPECT_TRUE(os.str().empty()) << "the first block fits the buffer";
    for (const std::size_t block : {std::size_t{2500}, std::size_t{1}}) {
        std::string bytes;
        const std::size_t start = i;
        for (; i < std::min(elems.size(), start + block); ++i)
            bytes += ",\n  " + elems[i];
        w.rawElements(bytes, i - start);
    }
    EXPECT_GT(os.str().size(), 2 * JsonWriter::kBufferBytes)
        << "a block larger than the buffer reaches the stream mid-array";
    ASSERT_LT(i, elems.size());
    for (; i < elems.size(); ++i)
        w.rawElements(",\n  " + elems[i], 1);
    w.endArray();
    EXPECT_EQ(os.str(), ref.str());
}

TEST(JsonWriter, RawElementsRejectAMissingSeparator)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginArray();
    EXPECT_DEATH(w.rawElements("1", 1), "separator");
    EXPECT_DEATH(w.rawElements(",\n    1", 1), "separator"); // wrong depth
    EXPECT_DEATH(w.rawElements(",\n  1", 0), "elements");
}

} // namespace
} // namespace warpcomp
