#ifndef AWMOE_DATA_JD_SYNTHETIC_H_
#define AWMOE_DATA_JD_SYNTHETIC_H_

#include <cstdint>
#include <vector>

#include "data/example.h"
#include "util/rng.h"

namespace awmoe {

/// Configuration of the synthetic JD-style search-log world. Defaults are
/// sized for single-core CPU training; the *structure* (not the scale)
/// is what reproduces the paper's phenomena (see
/// docs/reproduction.md#the-synthetic-corpora).
struct JdConfig {
  int64_t num_users = 8000;
  int64_t num_items = 4000;
  int64_t num_categories = 30;
  int64_t brands_per_category = 10;
  int64_t num_shops = 150;
  int64_t queries_per_category = 3;

  /// Maximum behaviour-sequence length M fed to models.
  int64_t max_history = 10;

  int64_t train_sessions = 15000;
  int64_t test_sessions = 1500;
  int64_t longtail1_sessions = 500;  // Users with very few behaviours.
  int64_t longtail2_sessions = 700;  // Elderly users.

  int64_t items_per_session = 12;

  /// Fraction of users with 0-3 historical behaviours (the long-tail).
  double longtail_user_fraction = 0.20;
  /// Fraction of users with no behaviours at all (Fig. 7 "new users").
  double new_user_fraction = 0.05;
  double elderly_fraction = 0.15;

  /// Label noise temperature: higher = noisier purchases.
  double purchase_temperature = 0.45;
  double utility_noise = 0.25;

  uint64_t seed = 20230608;  // Paper's arXiv date.
};

/// The generated corpus: balanced 1:1 train examples plus the three test
/// sets of Table I (all-impression labels).
struct JdDataset {
  DatasetMeta meta;
  std::vector<Example> train;
  std::vector<Example> full_test;
  std::vector<Example> longtail1_test;
  std::vector<Example> longtail2_test;
};

/// Simulates the JD e-commerce search world of §IV-A1:
///  - a catalog of items with category/brand/shop structure and
///    Zipf-distributed popularity;
///  - users carrying a latent interaction style (price-driven, brand-loyal,
///    quality-seeking, trend-following) plus category preferences, with
///    behaviour sequences emitted from that state;
///  - search sessions whose purchase labels come from a regime-switching
///    utility: *category-new* (user, category) pairs weight popularity
///    features, *category-old* pairs weight user-item cross features, and
///    the latent style modulates the weights. The regime is recoverable
///    from the behaviour sequence + query but NOT from the query alone,
///    which is exactly the structure AW-MoE's user-conditioned gate
///    exploits and a category-conditioned gate cannot.
class JdSyntheticGenerator {
 public:
  explicit JdSyntheticGenerator(const JdConfig& config);

  /// Generates the full dataset. Deterministic given config.seed.
  JdDataset Generate();

  /// Ground-truth utility weights used by the label model. Exposed so
  /// tests can verify the regime-switching structure directly.
  struct RegimeWeights {
    double alpha_category_new = 0.85;
    double alpha_category_old = 0.25;
  };
  static RegimeWeights regime_weights() { return RegimeWeights{}; }

 private:
  struct ItemInfo {
    int64_t cat = 0;
    int64_t brand = 0;
    int64_t shop = 0;
    float price_z = 0.0f;   // Standardised log-price within category.
    float quality = 0.0f;
    float popularity = 0.0f;  // In [0,1], Zipf-shaped within category.
    float sales = 0.0f;
    float ctr = 0.0f;
    float cvr = 0.0f;
    float review = 0.0f;
    float item_age = 0.0f;
    bool promoted = false;
  };

  struct UserInfo {
    int style = 0;          // Latent interaction style, 0..3.
    int age_segment = 0;    // 0 young, 1 mid, 2 elderly.
    std::vector<int64_t> pref_cats;
    std::vector<double> pref_cat_weights;
    std::vector<int64_t> pref_brands;
    float price_sensitivity = 0.7f;
    float price_pref = 0.0f;  // Preferred (standardised) price level.
    float brand_loyalty = 0.5f;
    std::vector<int64_t> history;  // Item ids, most recent first.
  };

  /// Observable user-item cross statistics shared by the feature encoder
  /// and the label model.
  struct CrossStats {
    float item_cnt_n = 0.0f;
    float shop_cnt_n = 0.0f;
    float brand_cnt_n = 0.0f;
    float brand_time_diff = 1.0f;  // 1 = never interacted / long ago.
    float cat_cnt_n = 0.0f;
    float cat_time_diff = 1.0f;
    float price_affinity = 0.0f;
    float price_match = 0.0f;  // 0 best, more negative = worse.
    float brand_loyalty_obs = 0.0f;
    float cat_diversity = 0.0f;
    bool cat_new = true;
  };

  CrossStats ComputeCross(const UserInfo& user, int64_t item) const;

  void BuildCatalog();
  void BuildUsers();
  void BuildUserHistory(UserInfo* user, int64_t target_len);

  /// Samples one item from `cat`, weighted by popularity^0.6, optionally
  /// biased towards the user's preferred brands / price range.
  int64_t SampleItemFromCategory(int64_t cat, const UserInfo* user);

  /// Ground-truth (noiseless) utility of showing `item` to `user` under
  /// query category `query_cat`. Label sampling adds Gaussian noise on
  /// top; the noiseless value is stored as Example::oracle_utility.
  double Utility(const UserInfo& user, int64_t item, int64_t query_cat) const;

  /// Fills Example::numeric and id fields for one impression.
  Example MakeExample(int64_t user_id, const UserInfo& user, int64_t item,
                      int64_t query_id, int64_t query_cat, float hour,
                      int64_t session_id) const;

  /// Generates one search session for `user_id`; appends labelled
  /// impressions to `out` (all impressions when `keep_all_impressions`,
  /// else positives + an equal number of sampled negatives).
  void GenerateSession(int64_t user_id, int64_t session_id,
                       bool keep_all_impressions, std::vector<Example>* out);

  // History-derived statistics for feature computation.
  int CountInHistory(const UserInfo& user, int64_t item) const;
  int CountCatInHistory(const UserInfo& user, int64_t cat) const;
  int CountBrandInHistory(const UserInfo& user, int64_t brand) const;
  int CountShopInHistory(const UserInfo& user, int64_t shop) const;
  /// Most recent position (0 = newest) of a brand/cat in history, or -1.
  int LastBrandPosition(const UserInfo& user, int64_t brand) const;
  int LastCatPosition(const UserInfo& user, int64_t cat) const;
  float UserPriceAffinity(const UserInfo& user) const;

  JdConfig config_;
  Rng rng_;
  std::vector<ItemInfo> items_;            // 1-based; [0] unused.
  std::vector<UserInfo> users_;            // 1-based; [0] unused.
  std::vector<std::vector<int64_t>> items_by_cat_;  // cat -> item ids.
  std::vector<std::vector<double>> item_weights_by_cat_;
};

}  // namespace awmoe

#endif  // AWMOE_DATA_JD_SYNTHETIC_H_
