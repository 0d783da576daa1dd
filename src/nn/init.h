#ifndef AWMOE_NN_INIT_H_
#define AWMOE_NN_INIT_H_

#include <cstdint>

#include "mat/matrix.h"
#include "util/rng.h"

namespace awmoe {

/// He/Kaiming normal init: N(0, sqrt(2/fan_in)). Suited to ReLU stacks.
Matrix HeNormal(int64_t rows, int64_t cols, Rng* rng);

/// N(0, stddev) init (embedding tables).
Matrix NormalInit(int64_t rows, int64_t cols, float stddev, Rng* rng);

}  // namespace awmoe

#endif  // AWMOE_NN_INIT_H_
