#ifndef AWMOE_UTIL_RNG_H_
#define AWMOE_UTIL_RNG_H_

#include <cstdint>
#include <vector>

#include "util/check.h"

namespace awmoe {

/// Deterministic pseudo-random number generator (xoshiro256++ seeded via
/// SplitMix64). Every source of randomness in the library flows through an
/// explicitly seeded Rng so experiments are reproducible bit-for-bit.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL) { Seed(seed); }

  /// Re-seeds the generator; identical seeds produce identical streams.
  void Seed(uint64_t seed);

  /// Next raw 64-bit value.
  uint64_t NextU64();

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  int64_t UniformInt(int64_t n);

  /// Uniform integer in [lo, hi). Requires lo < hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Standard normal via Box-Muller (cached second value).
  double Normal();

  /// Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  /// Bernoulli draw with success probability p.
  bool Bernoulli(double p);

  /// Samples an index from an (unnormalised, non-negative) weight vector.
  /// Requires at least one positive weight.
  int64_t Categorical(const std::vector<double>& weights);

  /// Exponential with the given rate (lambda > 0).
  double Exponential(double rate);

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (int64_t i = static_cast<int64_t>(v->size()) - 1; i > 0; --i) {
      int64_t j = UniformInt(i + 1);
      std::swap((*v)[i], (*v)[j]);
    }
  }

  /// Samples k distinct indices from [0, n) (k <= n), order unspecified.
  std::vector<int64_t> SampleWithoutReplacement(int64_t n, int64_t k);

  /// Derives an independent child generator; changing the order of Fork()
  /// calls does not perturb this generator's own stream consumers.
  Rng Fork();

 private:
  uint64_t state_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

/// Zipf distribution over [0, n) with exponent s >= 0 (s = 0 is uniform;
/// larger s concentrates mass on small indices). Precomputes the CDF once so
/// sampling is an O(log n) binary search — exact for any s, unlike rejection
/// methods that require s > 1.
class ZipfDistribution {
 public:
  ZipfDistribution(int64_t n, double s);

  /// Draws one value in [0, n).
  int64_t Sample(Rng* rng) const;

  int64_t n() const { return static_cast<int64_t>(cdf_.size()); }

 private:
  std::vector<double> cdf_;
};

}  // namespace awmoe

#endif  // AWMOE_UTIL_RNG_H_
