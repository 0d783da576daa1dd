#include "nn/init.h"

#include <cmath>

namespace awmoe {

Matrix HeNormal(int64_t rows, int64_t cols, Rng* rng) {
  float stddev = std::sqrt(2.0f / static_cast<float>(rows));
  return NormalInit(rows, cols, stddev, rng);
}

Matrix NormalInit(int64_t rows, int64_t cols, float stddev, Rng* rng) {
  Matrix m(rows, cols);
  float* p = m.data();
  for (int64_t i = 0; i < m.size(); ++i) {
    p[i] = static_cast<float>(rng->Normal(0.0, stddev));
  }
  return m;
}

}  // namespace awmoe
