#include "data/batcher.h"

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace awmoe {
namespace {

Example MakeExample(int64_t id, int64_t history_len, float label) {
  Example ex;
  for (int64_t j = 0; j < history_len; ++j) {
    ex.behavior_items.push_back(10 + j);
    ex.behavior_cats.push_back(1 + j % 3);
    ex.behavior_brands.push_back(5 + j);
  }
  ex.target_item = id;
  ex.target_cat = 1;
  ex.target_brand = 2;
  ex.target_shop = 3;
  ex.query_id = 4;
  ex.query_cat = 1;
  ex.user_id = 100 + id;
  ex.session_id = 1000 + id;
  ex.age_segment = 1;
  ex.label = label;
  ex.numeric.assign(kNumNumericFeatures, static_cast<float>(id));
  ex.history_len = history_len;
  return ex;
}

DatasetMeta TestMeta() {
  DatasetMeta meta;
  meta.num_items = 64;
  meta.num_cats = 8;
  meta.num_brands = 32;
  meta.num_shops = 8;
  meta.num_queries = 8;
  meta.max_seq_len = 5;
  return meta;
}

TEST(StandardizerTest, ZeroMeanUnitVarianceAfterFit) {
  std::vector<Example> data;
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    Example ex = MakeExample(i % 50, 2, 0.0f);
    for (auto& v : ex.numeric) {
      v = static_cast<float>(rng.Normal(3.0, 2.0));
    }
    data.push_back(ex);
  }
  Standardizer standardizer;
  standardizer.Fit(data);
  ASSERT_TRUE(standardizer.fitted());

  // Transform the corpus and verify moments.
  double sum = 0.0, sum_sq = 0.0;
  int64_t n = 0;
  for (const Example& ex : data) {
    std::vector<float> z = standardizer.Transform(ex.numeric);
    for (float v : z) {
      sum += v;
      sum_sq += static_cast<double>(v) * v;
      ++n;
    }
  }
  double mean = sum / n;
  double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.1);
}

TEST(StandardizerTest, ConstantFeaturePassesThroughCentred) {
  std::vector<Example> data;
  for (int i = 0; i < 10; ++i) {
    Example ex = MakeExample(i, 1, 0.0f);
    ex.numeric.assign(kNumNumericFeatures, 7.0f);
    data.push_back(ex);
  }
  Standardizer standardizer;
  standardizer.Fit(data);
  std::vector<float> z = standardizer.Transform(data[0].numeric);
  for (float v : z) EXPECT_NEAR(v, 0.0f, 1e-5f);
}

TEST(CollateBatchTest, ShapesAndPadding) {
  DatasetMeta meta = TestMeta();
  Example a = MakeExample(1, 2, 1.0f);
  Example b = MakeExample(2, 5, 0.0f);
  Batch batch = CollateBatch({&a, &b}, meta, nullptr);

  EXPECT_EQ(batch.size, 2);
  EXPECT_EQ(batch.seq_len, 5);
  // Row 0 padded beyond position 2.
  EXPECT_EQ(batch.behavior_items[0], 10);
  EXPECT_EQ(batch.behavior_items[1], 11);
  EXPECT_EQ(batch.behavior_items[2], 0);
  EXPECT_EQ(batch.behavior_mask(0, 1), 1.0f);
  EXPECT_EQ(batch.behavior_mask(0, 2), 0.0f);
  EXPECT_EQ(batch.behavior_mask(1, 4), 1.0f);
  EXPECT_EQ(batch.labels(0, 0), 1.0f);
  EXPECT_EQ(batch.labels(1, 0), 0.0f);
  EXPECT_EQ(batch.numeric.rows(), 2);
  EXPECT_EQ(batch.numeric.cols(), kNumNumericFeatures);
}

TEST(CollateBatchTest, TruncatesOverlongHistories) {
  DatasetMeta meta = TestMeta();
  Example a = MakeExample(1, 9, 1.0f);  // Longer than max_seq_len = 5.
  Batch batch = CollateBatch({&a}, meta, nullptr);
  EXPECT_EQ(batch.seq_len, 5);
  for (int64_t j = 0; j < 5; ++j) {
    EXPECT_EQ(batch.behavior_mask(0, j), 1.0f);
  }
}

TEST(CollateBatchTest, BehaviorPositionsAndMask) {
  DatasetMeta meta = TestMeta();
  Example a = MakeExample(1, 3, 1.0f);
  Example b = MakeExample(2, 1, 0.0f);
  Batch batch = CollateBatch({&a, &b}, meta, nullptr);
  // Position j of row i is behavior_items[i * seq_len + j].
  const auto item = [&batch](int64_t i, int64_t j) {
    return batch.behavior_items[static_cast<size_t>(i * batch.seq_len + j)];
  };
  EXPECT_EQ(item(0, 0), 10);
  EXPECT_EQ(item(1, 0), 10);
  EXPECT_EQ(item(0, 2), 12);
  EXPECT_EQ(item(1, 2), 0);
  EXPECT_EQ(batch.behavior_mask(0, 2), 1.0f);
  EXPECT_EQ(batch.behavior_mask(1, 2), 0.0f);
}

TEST(BatchIteratorTest, CoversAllExamplesOnce) {
  DatasetMeta meta = TestMeta();
  std::vector<Example> data;
  for (int i = 0; i < 23; ++i) data.push_back(MakeExample(i, 1, 0.0f));
  BatchIterator it(&data, meta, 5, nullptr, nullptr);

  std::multiset<int64_t> seen;
  Batch batch;
  int64_t batches = 0;
  while (it.Next(&batch)) {
    ++batches;
    for (int64_t id : batch.target_items) seen.insert(id);
  }
  EXPECT_EQ(batches, 5);
  EXPECT_EQ(seen.size(), 23u);
  // Sequential (no rng): first batch is examples 0..4 in order.
}

TEST(BatchIteratorTest, ShufflesWithRngButCoversAll) {
  DatasetMeta meta = TestMeta();
  std::vector<Example> data;
  for (int i = 0; i < 40; ++i) data.push_back(MakeExample(i, 1, 0.0f));
  Rng rng(5);
  BatchIterator it(&data, meta, 8, nullptr, &rng);
  std::set<int64_t> seen;
  std::vector<int64_t> first_batch;
  Batch batch;
  while (it.Next(&batch)) {
    for (int64_t id : batch.target_items) seen.insert(id);
    if (first_batch.empty()) first_batch = batch.target_items;
  }
  EXPECT_EQ(seen.size(), 40u);
  // Shuffled: first batch unlikely to be identity order.
  bool identity = true;
  for (size_t i = 0; i < first_batch.size(); ++i) {
    if (first_batch[i] != static_cast<int64_t>(i)) identity = false;
  }
  EXPECT_FALSE(identity);
}

TEST(BatchIteratorTest, ResetStartsNewEpoch) {
  DatasetMeta meta = TestMeta();
  std::vector<Example> data;
  for (int i = 0; i < 10; ++i) data.push_back(MakeExample(i, 1, 0.0f));
  BatchIterator it(&data, meta, 4, nullptr, nullptr);
  Batch batch;
  int64_t count = 0;
  while (it.Next(&batch)) ++count;
  EXPECT_EQ(count, 3);
  EXPECT_FALSE(it.Next(&batch));
  it.Reset();
  EXPECT_TRUE(it.Next(&batch));
}

// Grouping mode: every batch carries its group boundaries as explicit
// slate starts, and a session longer than max_group_rows is split into
// consecutive sub-slates of at most the cap instead of emitting a
// slate a listwise model's length CHECK would abort on.
TEST(BatchIteratorTest, GroupingEmitsSlateStartsAndSplitsOversizedSessions) {
  DatasetMeta meta = TestMeta();
  std::vector<Example> data;
  const int64_t sizes[] = {3, 10, 2};
  int64_t id = 0;
  for (int64_t s = 0; s < 3; ++s) {
    for (int64_t r = 0; r < sizes[s]; ++r) {
      Example ex = MakeExample(id++, 1, 0.0f);
      ex.session_id = s;
      data.push_back(ex);
    }
  }
  BatchIterator it(&data, meta, /*batch_size=*/6, nullptr, /*rng=*/nullptr,
                   /*group_by_session=*/true, /*max_group_rows=*/4);
  Batch batch;
  std::multiset<int64_t> seen;
  std::vector<int64_t> slate_sizes;
  while (it.Next(&batch)) {
    ASSERT_FALSE(batch.slate_starts.empty());
    EXPECT_EQ(batch.slate_starts[0], 0);
    for (size_t s = 0; s < batch.slate_starts.size(); ++s) {
      const int64_t begin = batch.slate_starts[s];
      const int64_t end = s + 1 < batch.slate_starts.size()
                              ? batch.slate_starts[s + 1]
                              : batch.size;
      ASSERT_GT(end, begin);
      EXPECT_LE(end - begin, 4);
      slate_sizes.push_back(end - begin);
      // A slate never mixes sessions, even after splitting.
      for (int64_t r = begin; r < end; ++r) {
        EXPECT_EQ(batch.session_ids[static_cast<size_t>(r)],
                  batch.session_ids[static_cast<size_t>(begin)]);
      }
    }
    for (int64_t t : batch.target_items) seen.insert(t);
  }
  EXPECT_EQ(seen.size(), 15u);  // Every row served exactly once.
  // Sequential order: the 10-row session splits 4+4+2, and 6-row
  // packing yields batches [3], [4], [4,2], [2].
  EXPECT_EQ(slate_sizes, (std::vector<int64_t>{3, 4, 4, 2, 2}));
}

// Two chunks of one split session can share a batch; the explicit
// slate starts keep them distinct slates even though every row carries
// the same session id (session-run derivation would merge them back
// into one over-long slate).
TEST(BatchIteratorTest, AdjacentChunksOfOneSessionStayDistinctSlates) {
  DatasetMeta meta = TestMeta();
  std::vector<Example> data;
  for (int64_t r = 0; r < 10; ++r) {
    Example ex = MakeExample(r, 1, 0.0f);
    ex.session_id = 7;
    data.push_back(ex);
  }
  BatchIterator it(&data, meta, /*batch_size=*/8, nullptr, /*rng=*/nullptr,
                   /*group_by_session=*/true, /*max_group_rows=*/4);
  Batch batch;
  ASSERT_TRUE(it.Next(&batch));
  EXPECT_EQ(batch.size, 8);
  EXPECT_EQ(batch.slate_starts, (std::vector<int64_t>{0, 4}));
  for (int64_t r = 0; r < batch.size; ++r) {
    EXPECT_EQ(batch.session_ids[static_cast<size_t>(r)], 7);
  }
  ASSERT_TRUE(it.Next(&batch));
  EXPECT_EQ(batch.size, 2);
  EXPECT_EQ(batch.slate_starts, (std::vector<int64_t>{0}));
  EXPECT_FALSE(it.Next(&batch));
}

// Row mode (no grouping) tracks no slates: slate_starts stays empty so
// listwise consumers fall back to session-run derivation.
TEST(BatchIteratorTest, RowModeLeavesSlateStartsEmpty) {
  DatasetMeta meta = TestMeta();
  std::vector<Example> data;
  for (int i = 0; i < 7; ++i) data.push_back(MakeExample(i, 1, 0.0f));
  BatchIterator it(&data, meta, 4, nullptr, nullptr);
  Batch batch;
  while (it.Next(&batch)) {
    EXPECT_TRUE(batch.slate_starts.empty());
  }
}

TEST(CollateBatchTest, StandardizerApplied) {
  DatasetMeta meta = TestMeta();
  std::vector<Example> data;
  for (int i = 0; i < 20; ++i) data.push_back(MakeExample(i, 1, 0.0f));
  Standardizer standardizer;
  standardizer.Fit(data);
  Batch batch = CollateBatch({&data[0]}, meta, &standardizer);
  std::vector<float> expected = standardizer.Transform(data[0].numeric);
  for (int64_t j = 0; j < batch.numeric.cols(); ++j) {
    EXPECT_FLOAT_EQ(batch.numeric(0, j), expected[static_cast<size_t>(j)]);
  }
}

}  // namespace
}  // namespace awmoe
