#include "util/rng.h"

#include <cmath>
#include <numbers>

namespace awmoe {

namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

void Rng::Seed(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(&sm);
  has_cached_normal_ = false;
}

uint64_t Rng::NextU64() {
  // xoshiro256++ step.
  uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
  uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::Uniform() {
  // 53 high bits give a uniform double in [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) {
  AWMOE_DCHECK(lo <= hi) << "lo=" << lo << " hi=" << hi;
  return lo + (hi - lo) * Uniform();
}

int64_t Rng::UniformInt(int64_t n) {
  AWMOE_CHECK(n > 0) << "UniformInt bound must be positive, got " << n;
  // Rejection sampling to avoid modulo bias.
  uint64_t un = static_cast<uint64_t>(n);
  uint64_t limit = UINT64_MAX - UINT64_MAX % un;
  uint64_t x;
  do {
    x = NextU64();
  } while (x >= limit);
  return static_cast<int64_t>(x % un);
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  AWMOE_CHECK(lo < hi) << "lo=" << lo << " hi=" << hi;
  return lo + UniformInt(hi - lo);
}

double Rng::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller transform.
  double u1 = Uniform();
  while (u1 <= 1e-300) u1 = Uniform();
  double u2 = Uniform();
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::Normal(double mean, double stddev) {
  return mean + stddev * Normal();
}

bool Rng::Bernoulli(double p) { return Uniform() < p; }

int64_t Rng::Categorical(const std::vector<double>& weights) {
  AWMOE_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    AWMOE_DCHECK(w >= 0.0) << "negative categorical weight " << w;
    total += w;
  }
  AWMOE_CHECK(total > 0.0) << "categorical weights sum to zero";
  double u = Uniform() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (u < acc) return static_cast<int64_t>(i);
  }
  return static_cast<int64_t>(weights.size()) - 1;
}

double Rng::Exponential(double rate) {
  AWMOE_CHECK(rate > 0.0) << "rate=" << rate;
  double u = Uniform();
  while (u <= 1e-300) u = Uniform();
  return -std::log(u) / rate;
}

std::vector<int64_t> Rng::SampleWithoutReplacement(int64_t n, int64_t k) {
  AWMOE_CHECK(k >= 0 && k <= n) << "k=" << k << " n=" << n;
  // Floyd's algorithm: O(k) expected insertions.
  std::vector<int64_t> chosen;
  chosen.reserve(k);
  for (int64_t j = n - k; j < n; ++j) {
    int64_t t = UniformInt(j + 1);
    bool seen = false;
    for (int64_t c : chosen) {
      if (c == t) {
        seen = true;
        break;
      }
    }
    chosen.push_back(seen ? j : t);
  }
  return chosen;
}

Rng Rng::Fork() {
  Rng child(NextU64() ^ 0xD1B54A32D192ED03ULL);
  return child;
}

ZipfDistribution::ZipfDistribution(int64_t n, double s) {
  AWMOE_CHECK(n > 0) << "ZipfDistribution needs n > 0, got " << n;
  AWMOE_CHECK(s >= 0.0) << "ZipfDistribution needs s >= 0, got " << s;
  cdf_.resize(n);
  double acc = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = acc;
  }
  for (int64_t i = 0; i < n; ++i) cdf_[i] /= acc;
  cdf_[n - 1] = 1.0;  // Guard against accumulated rounding.
}

int64_t ZipfDistribution::Sample(Rng* rng) const {
  double u = rng->Uniform();
  // First index whose CDF value exceeds u.
  int64_t lo = 0;
  int64_t hi = static_cast<int64_t>(cdf_.size()) - 1;
  while (lo < hi) {
    int64_t mid = lo + (hi - lo) / 2;
    if (cdf_[mid] <= u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace awmoe
