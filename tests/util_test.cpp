#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "util/check.h"
#include "util/math.h"
#include "util/parse.h"
#include "util/rng.h"
#include "util/spec.h"
#include "util/table.h"

namespace ehdnn {
namespace {

TEST(Check, ThrowsWithMessage) {
  EXPECT_NO_THROW(check(true, "fine"));
  try {
    check(false, "boom");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
    // The location is relative to the source root, not the build machine's path.
    EXPECT_EQ(std::string(e.what()).rfind("tests/util_test.cpp:", 0), 0u) << e.what();
  }
}

TEST(Check, FailAlwaysThrows) { EXPECT_THROW(fail("nope"), Error); }

// The one key=value reader: every rule that every format inherits, one
// row each. Each reader consumes `double`, `integer` (in [1, 10]) and
// `text`, so an unconsumed key can only come from the items.
TEST(SpecArgs, RejectsMalformedItems) {
  struct Case {
    const char* why;
    std::vector<std::string> items;
  };
  const std::vector<Case> cases = {
      {"missing '='", {"double"}},
      {"empty key", {"=1"}},
      {"duplicate key", {"double=1", "double=2"}},
      {"unconsumed key", {"dobule=1"}},
      {"bad number", {"double=soon"}},
      {"trailing junk", {"double=1e-3x"}},
      {"fractional integer", {"integer=2.5"}},
      {"integer below range", {"integer=0"}},
      {"integer above range", {"integer=11"}},
      {"integer past long long", {"integer=1e30"}},
      {"integer NaN", {"integer=nan"}},
      {"garbage integer", {"integer=two"}},
  };
  for (const Case& c : cases) {
    EXPECT_THROW(
        {
          SpecArgs a("test", c.items);
          a.num("double", 0.0);
          a.integer("integer", 1, 1, 10);
          a.str("text", "");
          a.finish();
        },
        Error)
        << c.why;
  }
  SpecArgs missing("test", {});
  EXPECT_THROW(missing.num("double"), Error);
  EXPECT_THROW(missing.integer("integer", 1, 10), Error);
  EXPECT_THROW(missing.str("text"), Error);
}

TEST(SpecArgs, SplitsAtTheFirstEqualsAndSkipsEmptyItems) {
  SpecArgs a("test", {"", "src=rf:seed=3,base=1", "n=1e3", "x=0.5", ""});
  EXPECT_EQ(a.str("src"), "rf:seed=3,base=1");
  EXPECT_EQ(a.integer("n", 0, 1000), 1000);
  EXPECT_DOUBLE_EQ(a.num("x"), 0.5);
  EXPECT_EQ(a.str("absent", "dflt"), "dflt");
  EXPECT_EQ(a.integer("absent", 7, 0, 1), 7);  // the fallback is not range-checked
  EXPECT_NO_THROW(a.finish());
  EXPECT_EQ(spec_items("kind"), std::vector<std::string>{});
  EXPECT_EQ(spec_items("kind:a=1,,b=2"), (std::vector<std::string>{"a=1", "", "b=2"}));
}

TEST(Parse, IntegerFieldsAreCheckedBeforeAnyCast) {
  EXPECT_EQ(parse_integer("42", 0, 100), 42);
  EXPECT_EQ(parse_integer(" 42 ", 0, 100), 42);
  EXPECT_EQ(parse_integer("8.0", 0, 100), 8);
  EXPECT_EQ(parse_integer("-3", -5, 5), -3);
  EXPECT_EQ(parse_integer("9223372036854775807", 0, LLONG_MAX), LLONG_MAX);  // exact
  EXPECT_FALSE(parse_integer("9223372036854775808", 0, LLONG_MAX));
  EXPECT_FALSE(parse_integer("9.3e18", 0, LLONG_MAX));
  EXPECT_FALSE(parse_integer("-1e300", LLONG_MIN, 0));
  EXPECT_FALSE(parse_integer("inf", 0, LLONG_MAX));
  EXPECT_FALSE(parse_integer("2.5", 0, 100));
  EXPECT_FALSE(parse_integer("", 0, 100));
  EXPECT_FALSE(parse_integer("4294967297", 0, INT_MAX));
}

TEST(Parse, SeedsAreUnsignedAndComplete) {
  EXPECT_EQ(parse_seed("0xb0a710ad"), 0xb0a710adu);
  EXPECT_EQ(parse_seed("18446744073709551615"), UINT64_MAX);
  EXPECT_FALSE(parse_seed("18446744073709551616"));
  EXPECT_FALSE(parse_seed("-1"));
  EXPECT_FALSE(parse_seed(" 1"));
  EXPECT_FALSE(parse_seed("banana"));
  EXPECT_FALSE(parse_seed("12oops"));
  EXPECT_FALSE(parse_seed(""));
}

TEST(Parse, SplitsAndIdLists) {
  EXPECT_EQ(split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(split("", ';'), std::vector<std::string>{""});
  EXPECT_EQ(split_ws("  group  a=1\tb=2 "), (std::vector<std::string>{"group", "a=1", "b=2"}));
  EXPECT_TRUE(split_ws(" \t").empty());
  EXPECT_EQ(parse_id_list("0,8,12", "--ids"), (std::vector<int>{0, 8, 12}));
  for (const char* bad : {"", "1,,2", "-1", "1e30", "2.5", "x", "4294967296"}) {
    EXPECT_THROW(parse_id_list(bad, "--ids"), Error) << bad;
  }
}

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64() ? 1 : 0;
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = r.uniform(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, UniformMeanConverges) {
  Rng r(11);
  double sum = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) sum += r.uniform();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, GaussMoments) {
  Rng r(13);
  double sum = 0.0, sq = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double g = r.gauss();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.05);
  EXPECT_NEAR(sq / kN, 1.0, 0.05);
}

TEST(Rng, BelowBounds) {
  Rng r(17);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(13), 13u);
}

TEST(Rng, RangeInclusive) {
  Rng r(19);
  std::set<int> seen;
  for (int i = 0; i < 500; ++i) {
    const int v = r.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Math, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_TRUE(is_pow2(1024));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_FALSE(is_pow2(1000));
}

TEST(Math, Ilog2) {
  EXPECT_EQ(ilog2(1), 0);
  EXPECT_EQ(ilog2(2), 1);
  EXPECT_EQ(ilog2(128), 7);
  EXPECT_EQ(ilog2(255), 7);  // floor
}

TEST(Math, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(3520), 4096u);
}

TEST(Math, DivCeil) {
  EXPECT_EQ(div_ceil(10, 5), 2u);
  EXPECT_EQ(div_ceil(11, 5), 3u);
  EXPECT_EQ(div_ceil(1, 5), 1u);
}

TEST(Table, AlignsColumns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("longer-name"), std::string::npos);
  EXPECT_NE(s.find("| x "), std::string::npos);
}

TEST(Table, NumAndPct) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::pct(0.9375, 2), "93.75%");
}

}  // namespace
}  // namespace ehdnn
