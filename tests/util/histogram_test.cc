#include "util/histogram.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "gtest/gtest.h"
#include "util/rng.h"

namespace awmoe {
namespace {

// The smallest sample with at least pct% of the mass at or below it.
double NearestRank(std::vector<double> samples, double pct) {
  std::sort(samples.begin(), samples.end());
  const auto rank = std::max<size_t>(
      1, static_cast<size_t>(
             std::ceil(pct / 100.0 * static_cast<double>(samples.size()))));
  return samples[rank - 1];
}

TEST(HistogramTest, EmptyReadsZero) {
  const Histogram histogram;
  EXPECT_EQ(histogram.count(), 0);
  EXPECT_DOUBLE_EQ(histogram.Percentile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(histogram.Percentile(100.0), 0.0);
}

TEST(HistogramTest, IntegersAndDyadicValuesAreTheirOwnEdges) {
  std::vector<double> values;
  for (int ms = 1; ms <= 255; ++ms) values.push_back(ms);
  // Dyadic values with at most 8 significant bits, across the range.
  for (int exponent = Histogram::kMinExponent;
       exponent < Histogram::kMaxExponent; ++exponent) {
    for (const int mantissa : {1, 3, 129, 255}) {
      const double value = std::ldexp(mantissa, exponent);
      if (value < std::ldexp(1.0, Histogram::kMaxExponent)) {
        values.push_back(value);
      }
    }
  }
  for (const double value : values) {
    EXPECT_EQ(Histogram::LowerEdge(Histogram::BucketOf(value)), value)
        << value;
    Histogram one;
    one.Record(value);
    EXPECT_EQ(one.Percentile(50.0), value) << value;
  }
  // 1..100 recorded in any order: the nearest ranks come back exactly.
  Histogram hundred;
  for (int ms = 100; ms >= 1; --ms) hundred.Record(ms);
  EXPECT_EQ(hundred.count(), 100);
  EXPECT_EQ(hundred.Percentile(1.0), 1.0);
  EXPECT_EQ(hundred.Percentile(50.0), 50.0);
  EXPECT_EQ(hundred.Percentile(99.0), 99.0);
  EXPECT_EQ(hundred.Percentile(100.0), 100.0);
}

TEST(HistogramTest, PercentilesReadAtMostOneSubBucketLow) {
  // Log-uniform from 1 us to 10 s, in ms.
  Rng rng(20231);
  std::vector<double> samples;
  Histogram histogram;
  for (int i = 0; i < 20000; ++i) {
    const double value = std::pow(10.0, rng.Uniform(-3.0, 4.0));
    samples.push_back(value);
    histogram.Record(value);
  }
  for (const double pct : {0.1, 1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0,
                           99.0, 99.9, 100.0}) {
    const double exact = NearestRank(samples, pct);
    const double got = histogram.Percentile(pct);
    EXPECT_LE(got, exact) << pct;
    EXPECT_GE(got, exact * (1.0 - 1.0 / Histogram::kSubBuckets)) << pct;
  }
}

TEST(HistogramTest, SpecialValuesLandInTheEndBuckets) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double subnormal = std::numeric_limits<double>::denorm_min();
  const int last = Histogram::kNumBuckets - 1;
  for (const double low : {0.0, -0.0, -1.0, -inf, nan, subnormal,
                           std::ldexp(1.0, Histogram::kMinExponent - 1)}) {
    EXPECT_EQ(Histogram::BucketOf(low), 0) << low;
  }
  for (const double high :
       {inf, 1e300, std::numeric_limits<double>::max(),
        std::ldexp(1.0, Histogram::kMaxExponent)}) {
    EXPECT_EQ(Histogram::BucketOf(high), last) << high;
  }
  // The range's own ends are in-range buckets.
  EXPECT_EQ(Histogram::BucketOf(std::ldexp(1.0, Histogram::kMinExponent)), 1);
  EXPECT_EQ(Histogram::BucketOf(std::nextafter(
                std::ldexp(1.0, Histogram::kMaxExponent), 0.0)),
            last - 1);

  Histogram histogram;
  for (const double value : {0.0, -1.0, -inf, nan, subnormal, inf, 1e300}) {
    histogram.Record(value);
  }
  EXPECT_EQ(histogram.count(), 7);
  EXPECT_EQ(histogram.bucket_count(0), 5);
  EXPECT_EQ(histogram.bucket_count(last), 2);
  EXPECT_EQ(histogram.Percentile(50.0), 0.0);
  EXPECT_EQ(histogram.Percentile(100.0),
            std::ldexp(1.0, Histogram::kMaxExponent));
}

TEST(HistogramTest, EraseUndoesRecord) {
  Histogram histogram;
  histogram.Record(1.0);
  const int slow = histogram.Record(50.0);
  histogram.Erase(slow);
  EXPECT_EQ(histogram.count(), 1);
  EXPECT_EQ(histogram.bucket_count(slow), 0);
  EXPECT_EQ(histogram.Percentile(100.0), 1.0);
}

TEST(HistogramTest, MergeEqualsRecordingTheUnion) {
  Rng rng(7);
  Histogram a;
  Histogram b;
  Histogram direct;
  for (int i = 0; i < 5000; ++i) {
    const double value = std::pow(10.0, rng.Uniform(-2.0, 3.0));
    (i % 3 == 0 ? a : b).Record(value);
    direct.Record(value);
  }
  Histogram merged;
  merged.Merge(a);
  merged.Merge(b);
  EXPECT_TRUE(merged == direct);
  EXPECT_EQ(merged.count(), 5000);
  for (const double pct : {50.0, 95.0, 99.0}) {
    EXPECT_EQ(merged.Percentile(pct), direct.Percentile(pct)) << pct;
  }
}

}  // namespace
}  // namespace awmoe
