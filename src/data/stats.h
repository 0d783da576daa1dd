#ifndef AWMOE_DATA_STATS_H_
#define AWMOE_DATA_STATS_H_

#include <cstdint>
#include <vector>

#include "data/example.h"

namespace awmoe {

/// The Table I columns: corpus-level counts for one dataset split.
struct SplitStats {
  int64_t num_sessions = 0;
  int64_t num_users = 0;
  int64_t num_queries = 0;
  int64_t num_examples = 0;
  int64_t num_positives = 0;
  int64_t num_negatives = 0;
  /// "1 : ratio" positives to negatives.
  double neg_per_pos = 0.0;
  double examples_per_session = 0.0;
  double mean_history_len = 0.0;
};

/// Computes Table I statistics for a split.
SplitStats ComputeSplitStats(const std::vector<Example>& split);

}  // namespace awmoe

#endif  // AWMOE_DATA_STATS_H_
