#ifndef AWMOE_DATA_EXAMPLE_H_
#define AWMOE_DATA_EXAMPLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "mat/matrix.h"

namespace awmoe {

/// Named indices into Example::numeric. These mirror the paper's 22-feature
/// impression schema (§IV-A1); the six features of Fig. 2 are present under
/// the same names.
enum NumericFeature : int {
  kFeatSales = 0,            // "Sales" (Fig. 2)
  kFeatPopularity,           // "Popularity" (Fig. 2)
  kFeatPrice,                // "Price" (Fig. 2)
  kFeatItemClickCnt,         // "Item_click_cnt" (Fig. 2)
  kFeatBrandClickTimeDiff,   // "Brand_click_time_diff" (Fig. 2)
  kFeatShopClickCnt,         // "Shop_click_cnt" (Fig. 2)
  kFeatBrandClickCnt,
  kFeatCatClickCnt,
  kFeatCatClickTimeDiff,
  kFeatUserActivity,
  kFeatUserPriceAffinity,
  kFeatPriceMatch,
  kFeatQueryCatMatch,
  kFeatUserBrandLoyalty,
  kFeatUserCatDiversity,
  kFeatTargetCtr,
  kFeatTargetCvr,
  kFeatHourOfDay,
  kFeatSessionLength,
  kFeatItemAge,
  kFeatReviewScore,
  kFeatIsPromoted,
  kNumNumericFeatures,
};

/// Human-readable feature names (index-aligned with NumericFeature).
const char* NumericFeatureName(int index);

/// User-group annotations used by Fig. 7 (t-SNE of gate outputs).
enum class UserGroup : int {
  kNewUser = 0,            // No historical behaviours at all.
  kOldWithoutTargetOrder,  // History, but never interacted with the target.
  kOldWithTargetOrder,     // Interacted with the target item before.
};

/// One impression (user, item, context): the atomic training/eval example.
/// Ids use 0 as the padding/unknown value; real ids start at 1.
struct Example {
  /// Number of dense side-info attributes carried per behaviour item and
  /// by the target (standardised price, popularity, review score).
  static constexpr int64_t kItemAttrs = 3;

  // --- User behaviour sequence, most recent first (unpadded). ---
  std::vector<int64_t> behavior_items;
  std::vector<int64_t> behavior_cats;
  std::vector<int64_t> behavior_brands;
  /// kItemAttrs values per behaviour item (price_z, popularity, review),
  /// flattened; may be empty, in which case zeros are assumed.
  std::vector<float> behavior_attrs;

  // --- Target item. ---
  int64_t target_item = 0;
  int64_t target_cat = 0;
  int64_t target_brand = 0;
  int64_t target_shop = 0;
  /// Side-info of the target item (same layout as behavior_attrs).
  float target_attrs[kItemAttrs] = {0.0f, 0.0f, 0.0f};

  // --- Query (0 in recommendation mode). ---
  int64_t query_id = 0;
  int64_t query_cat = 0;

  // --- User profile. ---
  int64_t user_id = 0;
  int64_t age_segment = 0;  // 0 young, 1 mid, 2 elderly.

  // --- Dense features (kNumNumericFeatures wide). ---
  std::vector<float> numeric;

  float label = 0.0f;
  int64_t session_id = 0;

  // --- Ground-truth annotations (never fed to models). ---
  int64_t latent_style = 0;     // Generator's latent interaction style.
  bool is_category_new = false;  // No history in the target category.
  int64_t history_len = 0;
  UserGroup user_group = UserGroup::kNewUser;
  /// Noiseless generator utility (oracle score); lets tests and benches
  /// measure the achievable ranking ceiling.
  double oracle_utility = 0.0;
};

/// Dataset-level vocabulary sizes and shapes the models need to build their
/// embedding tables. All vocab sizes include the padding id 0.
struct DatasetMeta {
  int64_t num_items = 0;
  int64_t num_cats = 0;
  int64_t num_brands = 0;
  int64_t num_shops = 0;
  int64_t num_queries = 0;
  int64_t num_age_segments = 3;
  int64_t numeric_dim = kNumNumericFeatures;
  int64_t max_seq_len = 10;
  /// True when there is no query and the gate network should receive the
  /// target item instead (paper §IV-A2, Amazon mode).
  bool recommendation_mode = false;
};

/// A padded, column-layout minibatch ready for model consumption.
/// Behaviour ids are stored row-major [size x seq_len]; position j of every
/// row is extracted with BehaviorColumn.
struct Batch {
  int64_t size = 0;
  int64_t seq_len = 0;

  std::vector<int64_t> behavior_items;   // size * seq_len, 0-padded.
  std::vector<int64_t> behavior_cats;
  std::vector<int64_t> behavior_brands;
  Matrix behavior_attrs;                 // [size, seq_len * kItemAttrs].
  Matrix behavior_mask;                  // [size, seq_len], 1 = real item.

  std::vector<int64_t> target_items;
  std::vector<int64_t> target_cats;
  std::vector<int64_t> target_brands;
  std::vector<int64_t> target_shops;
  Matrix target_attrs;  // [size, kItemAttrs].
  std::vector<int64_t> query_ids;
  std::vector<int64_t> query_cats;
  std::vector<int64_t> age_segments;

  Matrix numeric;  // [size, numeric_dim], standardised.
  Matrix labels;   // [size, 1].

  // Bookkeeping for evaluation / figures.
  std::vector<int64_t> session_ids;
  std::vector<int64_t> user_ids;
  std::vector<UserGroup> user_groups;

  /// Explicit slate boundaries for listwise consumers: first-row index
  /// of each slate, ascending from 0 (same contract as the
  /// `slate_starts` field of Ranker::Score's ScoreCall). Filled by
  /// BatchIterator in group-by-session mode from its GROUP boundaries —
  /// authoritative where set, because groups need not coincide with
  /// session-id runs (an oversized session is split into sub-slates,
  /// and a dataset with non-contiguous duplicate session ids keeps each
  /// run a distinct slate even if shuffling lands two runs adjacent).
  /// Empty when the producer tracked no slates; consumers then fall
  /// back to deriving runs via SlateStartsFromBatch.
  std::vector<int64_t> slate_starts;

  /// Ids at sequence position `j` across the batch: [size] values.
  std::vector<int64_t> BehaviorColumn(const std::vector<int64_t>& field,
                                      int64_t j) const;

  /// Mask column j as a [size,1] matrix.
  Matrix MaskColumn(int64_t j) const;

  /// Side-info of sequence position `j`: [size, kItemAttrs].
  Matrix BehaviorAttrsColumn(int64_t j) const;
};

}  // namespace awmoe

#endif  // AWMOE_DATA_EXAMPLE_H_
