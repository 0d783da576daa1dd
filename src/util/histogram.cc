#include "util/histogram.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace awmoe {

namespace {

constexpr double Pow2(int exponent) {
  double result = 1.0;
  for (; exponent > 0; --exponent) result *= 2.0;
  for (; exponent < 0; ++exponent) result /= 2.0;
  return result;
}

constexpr double kMinValue = Pow2(Histogram::kMinExponent);
constexpr double kMaxValue = Pow2(Histogram::kMaxExponent);

}  // namespace

int Histogram::BucketOf(double value) {
  // Written so NaN fails the first test: it lands in the underflow bucket.
  if (!(value >= kMinValue)) return 0;
  if (value >= kMaxValue) return kNumBuckets - 1;
  int exponent = 0;
  // value = mantissa * 2^exponent with mantissa in [0.5, 1), so the
  // value's octave starts at 2^(exponent - 1) and mantissa * 2 * kSub
  // in [kSub, 2 * kSub) truncates to kSub + its sub-bucket.
  const double mantissa = std::frexp(value, &exponent);
  const int sub =
      static_cast<int>(mantissa * (2 * kSubBuckets)) - kSubBuckets;
  return 1 + (exponent - 1 - kMinExponent) * kSubBuckets + sub;
}

double Histogram::LowerEdge(int bucket) {
  if (bucket <= 0) return 0.0;
  if (bucket >= kNumBuckets - 1) return kMaxValue;
  const int octave = (bucket - 1) / kSubBuckets;
  const int sub = (bucket - 1) % kSubBuckets;
  return std::ldexp(1.0 + static_cast<double>(sub) / kSubBuckets,
                    kMinExponent + octave);
}

int Histogram::Record(double value) {
  const int bucket = BucketOf(value);
  ++counts_[bucket];
  ++count_;
  return bucket;
}

void Histogram::Erase(int bucket) {
  AWMOE_DCHECK(bucket >= 0 && bucket < kNumBuckets && counts_[bucket] > 0)
      << "erasing from empty bucket " << bucket;
  --counts_[bucket];
  --count_;
}

void Histogram::Merge(const Histogram& other) {
  for (int bucket = 0; bucket < kNumBuckets; ++bucket) {
    counts_[bucket] += other.counts_[bucket];
  }
  count_ += other.count_;
}

double Histogram::Percentile(double pct) const {
  AWMOE_CHECK(pct > 0.0 && pct <= 100.0) << "percentile " << pct;
  if (count_ == 0) return 0.0;
  const int64_t rank = std::max<int64_t>(
      1, static_cast<int64_t>(
             std::ceil(pct / 100.0 * static_cast<double>(count_))));
  int64_t seen = 0;
  for (int bucket = 0; bucket < kNumBuckets; ++bucket) {
    seen += counts_[bucket];
    if (seen >= rank) return LowerEdge(bucket);
  }
  return LowerEdge(kNumBuckets - 1);  // Unreachable: seen ends at count_.
}

}  // namespace awmoe
