#include "data/stats.h"

#include <gtest/gtest.h>

namespace awmoe {
namespace {

Example Ex(int64_t session, int64_t user, int64_t query, float label,
           int64_t hist) {
  Example ex;
  ex.session_id = session;
  ex.user_id = user;
  ex.query_id = query;
  ex.label = label;
  ex.history_len = hist;
  return ex;
}

TEST(StatsTest, CountsDistinctEntities) {
  std::vector<Example> split = {
      Ex(1, 10, 100, 1.0f, 4), Ex(1, 10, 100, 0.0f, 4),
      Ex(2, 11, 101, 1.0f, 2), Ex(2, 11, 101, 0.0f, 2),
      Ex(3, 10, 100, 1.0f, 4),
  };
  SplitStats stats = ComputeSplitStats(split);
  EXPECT_EQ(stats.num_sessions, 3);
  EXPECT_EQ(stats.num_users, 2);
  EXPECT_EQ(stats.num_queries, 2);
  EXPECT_EQ(stats.num_examples, 5);
  EXPECT_EQ(stats.num_positives, 3);
  EXPECT_EQ(stats.num_negatives, 2);
  EXPECT_NEAR(stats.neg_per_pos, 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(stats.examples_per_session, 5.0 / 3.0, 1e-9);
  EXPECT_NEAR(stats.mean_history_len, (4 + 4 + 2 + 2 + 4) / 5.0, 1e-9);
}

TEST(StatsTest, EmptySplit) {
  SplitStats stats = ComputeSplitStats({});
  EXPECT_EQ(stats.num_sessions, 0);
  EXPECT_EQ(stats.num_examples, 0);
  EXPECT_EQ(stats.neg_per_pos, 0.0);
}

TEST(StatsTest, NegativesPerPositive) {
  std::vector<Example> split;
  split.push_back(Ex(1, 1, 1, 1.0f, 0));
  for (int i = 0; i < 10; ++i) split.push_back(Ex(1, 1, 1, 0.0f, 0));
  SplitStats stats = ComputeSplitStats(split);
  EXPECT_DOUBLE_EQ(stats.neg_per_pos, 10.0);
}

}  // namespace
}  // namespace awmoe
