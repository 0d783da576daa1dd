#include "data/example.h"

#include "util/check.h"

namespace awmoe {

const char* NumericFeatureName(int index) {
  static const char* kNames[kNumNumericFeatures] = {
      "Sales",
      "Popularity",
      "Price",
      "Item_click_cnt",
      "Brand_click_time_diff",
      "Shop_click_cnt",
      "Brand_click_cnt",
      "Cat_click_cnt",
      "Cat_click_time_diff",
      "User_activity",
      "User_price_affinity",
      "Price_match",
      "Query_cat_match",
      "User_brand_loyalty",
      "User_cat_diversity",
      "Target_ctr",
      "Target_cvr",
      "Hour_of_day",
      "Session_length",
      "Item_age",
      "Review_score",
      "Is_promoted",
  };
  AWMOE_CHECK(index >= 0 && index < kNumNumericFeatures)
      << "feature index " << index;
  return kNames[index];
}

std::vector<int64_t> Batch::BehaviorColumn(const std::vector<int64_t>& field,
                                           int64_t j) const {
  AWMOE_CHECK(j >= 0 && j < seq_len) << "position " << j << " of " << seq_len;
  AWMOE_CHECK(static_cast<int64_t>(field.size()) == size * seq_len)
      << "field size " << field.size() << " vs " << size * seq_len;
  std::vector<int64_t> column(static_cast<size_t>(size));
  for (int64_t i = 0; i < size; ++i) {
    column[static_cast<size_t>(i)] = field[static_cast<size_t>(i * seq_len + j)];
  }
  return column;
}

Matrix Batch::MaskColumn(int64_t j) const {
  AWMOE_CHECK(j >= 0 && j < seq_len) << "position " << j << " of " << seq_len;
  Matrix column(size, 1);
  for (int64_t i = 0; i < size; ++i) column(i, 0) = behavior_mask(i, j);
  return column;
}

}  // namespace awmoe
