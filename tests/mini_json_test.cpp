// Tests for the mini_json dialect helpers — in particular the strict numeric
// conversions. strtoll with no endptr/errno check silently saturates
// overflow to INT64_MAX and turns garbage into 0; both corpus artifacts and
// the serve request decoder parse through these helpers, so every such
// failure must be a loud ParseError.
#include "fedcons/util/mini_json.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace fedcons {
namespace {

TEST(MiniJsonTest, ParsesFlatAndNestedObjects) {
  const auto fields = parse_mini_json(
      R"({"a": 1, "b": "two", "c": {"d": 3, "e": "four"}})");
  EXPECT_EQ(fields.at("a"), "1");
  EXPECT_EQ(fields.at("b"), "two");
  EXPECT_EQ(fields.at("c.d"), "3");
  EXPECT_EQ(fields.at("c.e"), "four");
}

TEST(MiniJsonTest, ScannerYieldsMembersInDocumentOrder) {
  MiniJsonScanner scanner(
      R"({"b": 1, "a": "x", "n": {"c": 2, "d": "y"}, "e": {}, "b": 3})");
  std::vector<std::pair<std::string, std::string>> members;
  while (scanner.next()) {
    members.emplace_back(std::string(scanner.key()),
                         std::string(scanner.value()));
  }
  const std::vector<std::pair<std::string, std::string>> expected = {
      {"b", "1"}, {"a", "x"}, {"n.c", "2"}, {"n.d", "y"}, {"b", "3"}};
  EXPECT_EQ(members, expected);
  EXPECT_FALSE(scanner.next());  // stays at the end
}

TEST(MiniJsonTest, ScannerValueViewsOutliveLaterMembers) {
  // Escaped values are unescaped into the scanner's buffer; later members
  // must not move or overwrite the earlier ones.
  const std::string text =
      R"({"a": "x\ny", "k\"": "p\tq", "o": {"i": "r\"s"}, "n": 5})";
  MiniJsonScanner scanner(text);
  std::vector<std::string_view> values;
  while (scanner.next()) values.push_back(scanner.value());
  ASSERT_EQ(values.size(), 4u);
  EXPECT_EQ(values[0], "x\ny");
  EXPECT_EQ(values[1], "p\tq");
  EXPECT_EQ(values[2], "r\"s");
  EXPECT_EQ(values[3], "5");
}

TEST(MiniJsonTest, LaterDuplicateKeyWins) {
  const auto fields = parse_mini_json(R"({"a": 1, "o": {"b": 2}, "a": 3,
                                          "o.b": "4"})");
  EXPECT_EQ(fields.at("a"), "3");
  EXPECT_EQ(fields.at("o.b"), "4");
}

TEST(MiniJsonTest, ScannerReportsMembersReadBeforeAnError) {
  MiniJsonScanner scanner(R"({"op": "ping", "seq": 7, "x": 1x})");
  std::vector<std::string> keys;
  EXPECT_THROW(
      {
        while (scanner.next()) keys.emplace_back(scanner.key());
      },
      ParseError);
  EXPECT_EQ(keys, (std::vector<std::string>{"op", "seq", "x"}));
}

TEST(MiniJsonTest, IdListsSplitOnEveryCLocaleSpace) {
  EXPECT_EQ(split_ids(" 1\v2\f3\r\n4\t"),
            (std::vector<std::size_t>{1, 2, 3, 4}));
  std::vector<std::size_t> reused = {9, 9, 9};
  split_ids("5", reused);
  EXPECT_EQ(reused, (std::vector<std::size_t>{5}));
  EXPECT_EQ(join_ids({0, 18446744073709551615u}), "0 18446744073709551615");
  EXPECT_THROW((void)split_ids("1 +2"), ParseError);
}

TEST(MiniJsonTest, EscapeRoundTrips) {
  const std::string raw = "line\none\ttab \"quote\" back\\slash\r";
  const auto fields =
      parse_mini_json("{\"k\": \"" + json_escape(raw) + "\"}");
  EXPECT_EQ(fields.at("k"), raw);
}

TEST(MiniJsonTest, IntRoundTripsAtInt64Extremes) {
  const std::int64_t max = std::numeric_limits<std::int64_t>::max();
  const std::int64_t min = std::numeric_limits<std::int64_t>::min();
  EXPECT_EQ(mini_json_int(std::to_string(max)), max);
  EXPECT_EQ(mini_json_int(std::to_string(max - 1)), max - 1);
  EXPECT_EQ(mini_json_int(std::to_string(min)), min);
  EXPECT_EQ(mini_json_int("0"), 0);
  EXPECT_EQ(mini_json_int("-42"), -42);
}

TEST(MiniJsonTest, IntOverflowThrowsInsteadOfSaturating) {
  // INT64_MAX + 1: the old strtoll path returned INT64_MAX silently.
  EXPECT_THROW(mini_json_int("9223372036854775808"), ParseError);
  EXPECT_THROW(mini_json_int("-9223372036854775809"), ParseError);
  EXPECT_THROW(mini_json_int("99999999999999999999999"), ParseError);
}

TEST(MiniJsonTest, IntGarbageThrowsInsteadOfZero) {
  EXPECT_THROW(mini_json_int(""), ParseError);
  EXPECT_THROW(mini_json_int("abc"), ParseError);
  EXPECT_THROW(mini_json_int("12abc"), ParseError);
  EXPECT_THROW(mini_json_int("1.5"), ParseError);
  EXPECT_THROW(mini_json_int("1e3"), ParseError);
  EXPECT_THROW(mini_json_int(" 1"), ParseError);
}

TEST(MiniJsonTest, UintRoundTripsAtUint64Extremes) {
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(mini_json_uint(std::to_string(max)), max);
  EXPECT_EQ(mini_json_uint(std::to_string(max - 1)), max - 1);
  EXPECT_EQ(mini_json_uint("0"), 0u);
}

TEST(MiniJsonTest, UintRejectsOverflowSignsAndGarbage) {
  // UINT64_MAX + 1 must not wrap to 0.
  EXPECT_THROW(mini_json_uint("18446744073709551616"), ParseError);
  // strtoull accepts "-5" and wraps it to 2^64-5; an unsigned field is
  // digits only.
  EXPECT_THROW(mini_json_uint("-5"), ParseError);
  EXPECT_THROW(mini_json_uint("+5"), ParseError);
  EXPECT_THROW(mini_json_uint(""), ParseError);
  EXPECT_THROW(mini_json_uint("7x"), ParseError);
}

TEST(MiniJsonTest, MalformedDocumentsThrow) {
  EXPECT_THROW(parse_mini_json(""), ParseError);
  EXPECT_THROW(parse_mini_json("{\"a\": 1"), ParseError);
  EXPECT_THROW(parse_mini_json("{\"a\": 1} trailing"), ParseError);
  EXPECT_THROW(parse_mini_json("{\"a\": {\"b\": {\"c\": 1}}}"), ParseError);
  EXPECT_THROW(parse_mini_json("{\"a\": [1, 2]}"), ParseError);
}

}  // namespace
}  // namespace fedcons
