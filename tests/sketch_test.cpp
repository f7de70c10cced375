// Quantile-sketch unit tests: accuracy bounds vs exact percentiles, merge
// algebra (commutative, associative), byte-identical serialization for any
// merge order, and round-trip through the text form. These properties are
// what the sharded fleet engine's determinism contract rests on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "util/check.h"
#include "util/qsketch.h"
#include "util/rng.h"

namespace ehdnn {
namespace {

double exact_nearest_rank(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  if (rank < 1) rank = 1;
  return v[rank - 1];
}

TEST(QuantileSketch, EmptyAndSingleValue) {
  QuantileSketch s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_THROW(s.quantile(0.5), Error);
  EXPECT_THROW(s.min(), Error);
  s.add(0.125);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.min(), 0.125);
  EXPECT_DOUBLE_EQ(s.max(), 0.125);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 0.125);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.125);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 0.125);
}

TEST(QuantileSketch, ZeroValuesGoToZeroBucket) {
  QuantileSketch s;
  s.add(0.0);
  s.add(0.0);
  s.add(1.0);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 1.0);
  EXPECT_THROW(s.add(-1.0), Error);
  EXPECT_THROW(s.add(std::nan("")), Error);
}

TEST(QuantileSketch, RelativeErrorBoundOnLogNormalStream) {
  // Latency-like data spanning several decades.
  Rng rng(7);
  std::vector<double> values;
  QuantileSketch s(0.01);
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    const double v = std::exp(-6.0 + 9.0 * u);  // ~2.5e-3 .. ~20
    values.push_back(v);
    s.add(v);
  }
  for (double q : {0.01, 0.25, 0.5, 0.9, 0.99, 0.999}) {
    const double exact = exact_nearest_rank(values, q);
    const double est = s.quantile(q);
    EXPECT_LE(std::abs(est - exact) / exact, 0.011) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(s.quantile(1.0), *std::max_element(values.begin(), values.end()));
  EXPECT_DOUBLE_EQ(s.quantile(0.0), *std::min_element(values.begin(), values.end()));
}

TEST(QuantileSketch, MergeIsCommutativeAndAssociative) {
  Rng rng(11);
  QuantileSketch a, b, c;
  for (int i = 0; i < 500; ++i) a.add(0.001 + rng.uniform());
  for (int i = 0; i < 300; ++i) b.add(0.5 + 4.0 * rng.uniform());
  for (int i = 0; i < 200; ++i) c.add(rng.uniform() < 0.1 ? 0.0 : 10.0 * rng.uniform());

  QuantileSketch ab = a;
  ab.merge(b);
  QuantileSketch ba = b;
  ba.merge(a);
  EXPECT_EQ(ab.serialize(), ba.serialize());

  QuantileSketch ab_c = ab;
  ab_c.merge(c);
  QuantileSketch bc = b;
  bc.merge(c);
  QuantileSketch a_bc = a;
  a_bc.merge(bc);
  EXPECT_EQ(ab_c.serialize(), a_bc.serialize());
  EXPECT_EQ(ab_c.count(), 1000u);
}

TEST(QuantileSketch, SerializationIdenticalForAnyMergeOrder) {
  // Split one stream across 4 "shards", merge in every permutation order,
  // and against the unsharded sketch: all five byte-identical.
  Rng rng(23);
  std::vector<double> values;
  for (int i = 0; i < 4000; ++i) values.push_back(std::exp(-3.0 + 6.0 * rng.uniform()));

  QuantileSketch whole;
  for (double v : values) whole.add(v);

  std::vector<QuantileSketch> shards(4, QuantileSketch{});
  for (std::size_t i = 0; i < values.size(); ++i) shards[i % 4].add(values[i]);

  std::vector<int> order = {0, 1, 2, 3};
  const std::string expect = whole.serialize();
  do {
    QuantileSketch merged;
    for (int i : order) merged.merge(shards[static_cast<std::size_t>(i)]);
    EXPECT_EQ(merged.serialize(), expect);
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(QuantileSketch, RoundTripsThroughText) {
  Rng rng(31);
  QuantileSketch s(0.02);
  s.add(0.0);
  for (int i = 0; i < 1000; ++i) s.add(1e-6 + rng.uniform() * 100.0);
  const std::string line = s.serialize();
  const QuantileSketch back = QuantileSketch::deserialize(line);
  EXPECT_EQ(back.serialize(), line);
  EXPECT_EQ(back.count(), s.count());
  EXPECT_DOUBLE_EQ(back.min(), s.min());
  EXPECT_DOUBLE_EQ(back.max(), s.max());
  EXPECT_DOUBLE_EQ(back.quantile(0.9), s.quantile(0.9));

  QuantileSketch empty;
  EXPECT_EQ(QuantileSketch::deserialize(empty.serialize()).serialize(), empty.serialize());
  EXPECT_THROW(QuantileSketch::deserialize("nonsense"), Error);
  EXPECT_THROW(QuantileSketch::deserialize("qsketch-v1 rel_err=0.01 2 0 0 1 5:1"), Error);
}

TEST(QuantileSketch, DeserializeRejectsBadIntegerFields) {
  // Shard partials carry sketches, so every integer field is untrusted:
  // garbage must raise ehdnn::Error (not std::invalid_argument), and a
  // bin index past int32 must not truncate onto another bin.
  for (const char* line : {
           "qsketch-v1 rel_err=0.01 abc 0 1 1 0:1",
           "qsketch-v1 rel_err=0.01 1 abc 1 1 0:1",
           "qsketch-v1 rel_err=0.01 1 0 1 1 abc:1",
           "qsketch-v1 rel_err=0.01 1 0 1 1 0:abc",
           "qsketch-v1 rel_err=0.01 1 0 1 1 4294967296:1",
           "qsketch-v1 rel_err=0.01 1 0 1 1 0:99999999999999999999",
           "qsketch-v1 rel_err=0.01 1 0 1 1 0:1.5",
       }) {
    EXPECT_THROW(QuantileSketch::deserialize(line), Error) << line;
  }
}

TEST(QuantileSketch, RepeatedValueStreamCollapsesToOneBin) {
  // A fleet where every job takes identical time (the lockstep-device
  // degenerate case): the whole stream lands in one log bin, and every
  // quantile must come back within rel_err of the one true value — with
  // q=0/q=1 exact via the tracked min/max.
  QuantileSketch s(0.01);
  for (int i = 0; i < 10000; ++i) s.add(0.007);
  EXPECT_EQ(s.count(), 10000u);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 0.007);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 0.007);
  for (double q : {0.001, 0.25, 0.5, 0.99}) {
    EXPECT_LE(std::abs(s.quantile(q) - 0.007) / 0.007, 0.01) << "q=" << q;
  }
  // Exactly one "i:c" bin in the text form.
  const std::string line = s.serialize();
  EXPECT_EQ(std::count(line.begin(), line.end(), ':'), 1);
}

TEST(QuantileSketch, DenormalRangeValuesFoldIntoTheZeroBucket) {
  // Sub-threshold values (including true denormals) count as zero rather
  // than producing astronomically negative bin indices; min() still
  // reports the exact smallest value seen.
  QuantileSketch s;
  s.add(5e-324);  // smallest positive denormal
  s.add(1e-300);
  s.add(1e-13);
  s.add(2.0);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.min(), 5e-324);
  EXPECT_DOUBLE_EQ(s.max(), 2.0);
  // Ranks 1..3 are the zero bucket (reported as min after clamping).
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 5e-324);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 2.0);
  // And the whole thing still round-trips through the text form.
  const QuantileSketch back = QuantileSketch::deserialize(s.serialize());
  EXPECT_EQ(back.serialize(), s.serialize());
}

TEST(QuantileSketch, MergeWithEmptyIsIdentityBothWays) {
  QuantileSketch full;
  for (int i = 1; i <= 100; ++i) full.add(0.01 * i);
  const std::string expect = full.serialize();

  QuantileSketch a = full;  // nonempty.merge(empty)
  a.merge(QuantileSketch{});
  EXPECT_EQ(a.serialize(), expect);

  QuantileSketch b;  // empty.merge(nonempty)
  b.merge(full);
  EXPECT_EQ(b.serialize(), expect);
  EXPECT_DOUBLE_EQ(b.min(), 0.01);
  EXPECT_DOUBLE_EQ(b.max(), 1.0);

  QuantileSketch c;  // empty.merge(empty) stays empty
  c.merge(QuantileSketch{});
  EXPECT_EQ(c.count(), 0u);
  EXPECT_THROW(c.quantile(0.5), Error);
}

TEST(QuantileSketch, MergeRejectsMismatchedRelErr) {
  QuantileSketch a(0.01), b(0.02);
  a.add(1.0);
  b.add(1.0);
  EXPECT_THROW(a.merge(b), Error);
}

}  // namespace
}  // namespace ehdnn
