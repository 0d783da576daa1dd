#ifndef AWMOE_UTIL_HISTOGRAM_H_
#define AWMOE_UTIL_HISTOGRAM_H_

#include <cstdint>
#include <vector>

namespace awmoe {

/// Log-linear latency histogram (HdrHistogram style): every power of two
/// of the value is split into kSubBuckets equal-width buckets over
/// [2^kMinExponent, 2^kMaxExponent), plus one underflow bucket (values
/// below the range, zero, negatives and NaN; lower edge 0) and one
/// overflow bucket (values at or above the range, +Inf; lower edge
/// 2^kMaxExponent).
///
/// Recording is O(1) and memory is fixed. A percentile is the LOWER EDGE
/// of the bucket that holds the nearest-rank sample, so inside the range
/// it reads at most 1/kSubBuckets (0.78%) below that sample and never
/// above it; integers below 2 * kSubBuckets and dyadic values with at
/// most 8 significant bits are their own edges and read back exactly.
/// Merging adds bucket counts, so a merge equals recording the union at
/// any volume. Not thread-safe; owners lock around it.
class Histogram {
 public:
  static constexpr int kSubBuckets = 128;
  static constexpr int kMinExponent = -20;
  static constexpr int kMaxExponent = 20;
  static constexpr int kNumBuckets =
      (kMaxExponent - kMinExponent) * kSubBuckets + 2;

  Histogram() : counts_(kNumBuckets, 0) {}

  /// The bucket `value` falls in; always in [0, kNumBuckets).
  static int BucketOf(double value);
  /// Smallest value that falls in `bucket`.
  static double LowerEdge(int bucket);

  /// Counts one sample; returns its bucket (what a sliding window keeps
  /// to evict it later with Erase).
  int Record(double value);
  /// Removes one sample previously recorded into `bucket`.
  void Erase(int bucket);
  void Merge(const Histogram& other);

  /// Nearest-rank percentile, `pct` in (0, 100]: the lower edge of the
  /// bucket holding the ceil(pct% * count)-th smallest sample. Returns 0
  /// when nothing has been recorded.
  double Percentile(double pct) const;

  int64_t count() const { return count_; }
  int64_t bucket_count(int bucket) const { return counts_[bucket]; }

  bool operator==(const Histogram&) const = default;

 private:
  std::vector<int64_t> counts_;
  int64_t count_ = 0;
};

}  // namespace awmoe

#endif  // AWMOE_UTIL_HISTOGRAM_H_
