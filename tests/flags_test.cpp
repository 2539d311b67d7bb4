// Tests for command-line flag parsing.
#include "fedcons/util/flags.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "fedcons/util/check.h"

namespace fedcons {
namespace {

Flags parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, EqualsSyntax) {
  Flags f = parse({"--trials=500", "--name=sweep"});
  EXPECT_EQ(f.get_int("trials", 0), 500);
  EXPECT_EQ(f.get_string("name", ""), "sweep");
}

// The two-token "--key value" form is gone: it used to swallow any
// following non-flag token as a value, so "--json file.json" silently lost
// the positional input file. The token after a bare flag is positional.
TEST(FlagsTest, TokenAfterBareFlagIsPositional) {
  Flags f = parse({"--trials", "250"});
  EXPECT_TRUE(f.get_bool("trials", false));
  EXPECT_THROW(f.get_int("trials", 0), ContractViolation);  // value is "true"
  ASSERT_EQ(f.positional().size(), 1u);
  EXPECT_EQ(f.positional()[0], "250");
}

TEST(FlagsTest, BooleanFlagThenPositionalFile) {
  Flags f = parse({"--json", "file.json"});
  EXPECT_TRUE(f.get_bool("json", false));
  ASSERT_EQ(f.positional().size(), 1u);
  EXPECT_EQ(f.positional()[0], "file.json");
}

TEST(FlagsTest, BareFlagIsTrue) {
  Flags f = parse({"--csv"});
  EXPECT_TRUE(f.has("csv"));
  EXPECT_TRUE(f.get_bool("csv", false));
}

TEST(FlagsTest, DefaultsWhenAbsent) {
  Flags f = parse({});
  EXPECT_FALSE(f.has("missing"));
  EXPECT_EQ(f.get_int("missing", 7), 7);
  EXPECT_EQ(f.get_double("missing", 2.5), 2.5);
  EXPECT_EQ(f.get_string("missing", "d"), "d");
  EXPECT_TRUE(f.get_bool("missing", true));
  // A default is returned as given, even outside the range a value must
  // meet: callers use that to tell an absent flag apart.
  EXPECT_EQ(f.get_int("missing", 0, 1, 9), 0);
  EXPECT_EQ(f.get_double("missing", -1.0, 0.0, 1.0), -1.0);
}

TEST(FlagsTest, BoolSpellings) {
  EXPECT_TRUE(parse({"--a=yes"}).get_bool("a", false));
  EXPECT_TRUE(parse({"--a=1"}).get_bool("a", false));
  EXPECT_TRUE(parse({"--a=on"}).get_bool("a", false));
  EXPECT_FALSE(parse({"--a=no"}).get_bool("a", true));
  EXPECT_FALSE(parse({"--a=0"}).get_bool("a", true));
  EXPECT_FALSE(parse({"--a=off"}).get_bool("a", true));
}

TEST(FlagsTest, DoubleParsing) {
  Flags f = parse({"--ratio=0.75"});
  EXPECT_DOUBLE_EQ(f.get_double("ratio", 0.0), 0.75);
}

TEST(FlagsTest, Positional) {
  Flags f = parse({"input.txt", "--k=1", "more"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "input.txt");
  EXPECT_EQ(f.positional()[1], "more");
}

TEST(FlagsTest, MalformedValuesThrow) {
  EXPECT_THROW(parse({"--n=abc"}).get_int("n", 0), ContractViolation);
  EXPECT_THROW(parse({"--x=abc"}).get_double("x", 0), ContractViolation);
  EXPECT_THROW(parse({"--b=maybe"}).get_bool("b", false), ContractViolation);
  EXPECT_THROW(parse({"--"}), ContractViolation);
}

// stoll/stod stop at the first bad character and return the prefix, so
// --threads=8x used to run with 8 threads. The whole token must convert.
TEST(FlagsTest, TrailingGarbageThrows) {
  EXPECT_THROW(parse({"--threads=8x"}).get_int("threads", 0),
               ContractViolation);
  EXPECT_THROW(parse({"--n=1 2"}).get_int("n", 0), ContractViolation);
  EXPECT_THROW(parse({"--n=0x10"}).get_int("n", 0), ContractViolation);
  EXPECT_THROW(parse({"--ratio=0.5abc"}).get_double("ratio", 0.0),
               ContractViolation);
  EXPECT_THROW(parse({"--ratio=1e"}).get_double("ratio", 0.0),
               ContractViolation);
  // Surrounding whitespace is stripped, not treated as garbage.
  EXPECT_EQ(parse({"--n= 8 "}).get_int("n", 0), 8);
  EXPECT_DOUBLE_EQ(parse({"--ratio= 0.5"}).get_double("ratio", 0.0), 0.5);
  // Out-of-range still reports as not-an-integer, never saturates.
  EXPECT_THROW(parse({"--n=99999999999999999999"}).get_int("n", 0),
               ContractViolation);
}

// get_int returns its default's type, and a value that type cannot hold
// throws instead of wrapping: static_cast<int>(4294967297) is 1.
TEST(FlagsTest, IntegersFitTheirTypeAndRange) {
  const Flags f = parse({"--n=4294967297", "--neg=-1", "--m=8"});
  EXPECT_THROW(f.get_int("n", 0), ContractViolation);
  EXPECT_EQ(f.get_int<std::int64_t>("n", 0), 4294967297);
  EXPECT_THROW(f.get_int<std::uint64_t>("neg", 1), ContractViolation);
  EXPECT_THROW(f.get_int<std::size_t>("neg", 1), ContractViolation);
  EXPECT_EQ(f.get_int<std::uint64_t>("m", 1), 8u);
  // An explicit [lo, hi] narrows the type's range; both ends are inclusive.
  EXPECT_EQ(f.get_int("m", 1, 8, 8), 8);
  EXPECT_THROW(f.get_int("m", 1, 1, 7), ContractViolation);
  EXPECT_THROW(f.get_int("m", 1, 9), ContractViolation);
  EXPECT_THROW(f.get_int("neg", 0, 0), ContractViolation);
  // An upper bound past int64 leaves int64's own limit in force.
  EXPECT_EQ(parse({"--n=9223372036854775807"}).get_int<std::uint64_t>("n", 0),
            9223372036854775807u);
}

// stod reads "nan", "inf" and hex floats, and 1e999 overflows; none is a
// finite decimal number, so none reaches the caller.
TEST(FlagsTest, DoublesAreFiniteAndInRange) {
  for (const char* bad : {"--x=nan", "--x=-nan", "--x=inf", "--x=-inf",
                          "--x=infinity", "--x=1e999", "--x=-1e999",
                          "--x=0x1p3"}) {
    EXPECT_THROW(parse({bad}).get_double("x", 0.0), ContractViolation) << bad;
  }
  EXPECT_DOUBLE_EQ(parse({"--x=1e300"}).get_double("x", 0.0), 1e300);
  EXPECT_DOUBLE_EQ(parse({"--x=-2.5"}).get_double("x", 0.0), -2.5);
  EXPECT_DOUBLE_EQ(parse({"--x=1"}).get_double("x", 0.0, 0.0, 1.0), 1.0);
  EXPECT_THROW(parse({"--x=1.5"}).get_double("x", 0.0, 0.0, 1.0),
               ContractViolation);
  EXPECT_THROW(parse({"--x=-0.1"}).get_double("x", 0.0, 0.0, 1.0),
               ContractViolation);
}

TEST(FlagsTest, LaterOccurrenceWins) {
  Flags f = parse({"--k=1", "--k=2"});
  EXPECT_EQ(f.get_int("k", 0), 2);
}

}  // namespace
}  // namespace fedcons
