#include "data/stats.h"

#include <set>

namespace awmoe {

SplitStats ComputeSplitStats(const std::vector<Example>& split) {
  SplitStats stats;
  std::set<int64_t> sessions, users, queries;
  double hist_total = 0.0;
  for (const Example& ex : split) {
    sessions.insert(ex.session_id);
    users.insert(ex.user_id);
    queries.insert(ex.query_id);
    ++stats.num_examples;
    if (ex.label > 0.5f) {
      ++stats.num_positives;
    } else {
      ++stats.num_negatives;
    }
    hist_total += static_cast<double>(ex.history_len);
  }
  stats.num_sessions = static_cast<int64_t>(sessions.size());
  stats.num_users = static_cast<int64_t>(users.size());
  stats.num_queries = static_cast<int64_t>(queries.size());
  if (stats.num_positives > 0) {
    stats.neg_per_pos = static_cast<double>(stats.num_negatives) /
                        static_cast<double>(stats.num_positives);
  }
  if (stats.num_sessions > 0) {
    stats.examples_per_session =
        static_cast<double>(stats.num_examples) /
        static_cast<double>(stats.num_sessions);
  }
  if (stats.num_examples > 0) {
    stats.mean_history_len = hist_total / stats.num_examples;
  }
  return stats;
}

}  // namespace awmoe
