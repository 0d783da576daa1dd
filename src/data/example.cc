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

}  // namespace awmoe
