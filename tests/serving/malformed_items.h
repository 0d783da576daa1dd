#ifndef AWMOE_TESTS_SERVING_MALFORMED_ITEMS_H_
#define AWMOE_TESTS_SERVING_MALFORMED_ITEMS_H_

// The malformed-candidate table shared by the sync (serving_test), async
// (async_serving_test) and fleet (shard_test) admission suites: each
// case turns a valid candidate into one ValidateRequest must reject
// with kInvalidArgument instead of letting it reach a CHECK or an
// out-of-bounds read.

#include <functional>
#include <limits>
#include <vector>

#include "data/example.h"

namespace awmoe {

struct MalformedItemCase {
  const char* name;
  std::function<void(const DatasetMeta&, Example*)> corrupt;
};

/// Appends one valid behaviour (ids 1, zero attributes), so behaviour
/// cases have a position to corrupt even for a history-less user.
inline void AppendBehavior(Example* ex) {
  ex->behavior_items.push_back(1);
  ex->behavior_cats.push_back(1);
  ex->behavior_brands.push_back(1);
  ex->behavior_attrs.resize(ex->behavior_items.size() * Example::kItemAttrs,
                            0.0f);
}

inline std::vector<MalformedItemCase> MalformedItemCases() {
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  constexpr float kInf = std::numeric_limits<float>::infinity();
  using Meta = const DatasetMeta&;
  return {
      {"target item past vocab",
       [](Meta m, Example* ex) { ex->target_item = m.num_items; }},
      {"negative target item",
       [](Meta, Example* ex) { ex->target_item = -1; }},
      {"target cat past vocab",
       [](Meta m, Example* ex) { ex->target_cat = m.num_cats; }},
      {"target brand past vocab",
       [](Meta m, Example* ex) { ex->target_brand = m.num_brands; }},
      {"shop past vocab",
       [](Meta m, Example* ex) { ex->target_shop = m.num_shops; }},
      {"query past vocab",
       [](Meta m, Example* ex) { ex->query_id = m.num_queries; }},
      {"negative query cat", [](Meta, Example* ex) { ex->query_cat = -3; }},
      {"age segment past vocab",
       [](Meta m, Example* ex) { ex->age_segment = m.num_age_segments + 1; }},
      {"negative behaviour item",
       [](Meta, Example* ex) {
         AppendBehavior(ex);
         ex->behavior_items.back() = -1;
       }},
      {"behaviour cat past vocab",
       [](Meta m, Example* ex) {
         AppendBehavior(ex);
         ex->behavior_cats.back() = m.num_cats;
       }},
      {"behaviour brand past vocab",
       [](Meta m, Example* ex) {
         AppendBehavior(ex);
         ex->behavior_brands.back() = m.num_brands + 5;
       }},
      {"behavior_cats shorter than items",
       [](Meta, Example* ex) {
         AppendBehavior(ex);
         ex->behavior_cats.pop_back();
       }},
      {"behavior_brands shorter than items",
       [](Meta, Example* ex) {
         AppendBehavior(ex);
         ex->behavior_brands.pop_back();
       }},
      {"mis-sized behavior_attrs",
       [](Meta, Example* ex) {
         AppendBehavior(ex);
         ex->behavior_attrs.push_back(0.0f);
       }},
      {"NaN behaviour attribute",
       [](Meta, Example* ex) {
         AppendBehavior(ex);
         ex->behavior_attrs.back() = kNaN;
       }},
      {"infinite target attribute",
       [](Meta, Example* ex) { ex->target_attrs[1] = -kInf; }},
      {"short numeric", [](Meta, Example* ex) { ex->numeric.pop_back(); }},
      {"long numeric",
       [](Meta, Example* ex) { ex->numeric.push_back(0.0f); }},
      {"NaN numeric", [](Meta, Example* ex) { ex->numeric[0] = kNaN; }},
      {"infinite numeric",
       [](Meta, Example* ex) { ex->numeric.back() = kInf; }},
  };
}

/// Copies `session`, corrupting its last candidate with `c`.
inline std::vector<Example> CorruptedSession(
    const std::vector<const Example*>& session, const MalformedItemCase& c,
    const DatasetMeta& meta) {
  std::vector<Example> copy;
  for (const Example* ex : session) copy.push_back(*ex);
  c.corrupt(meta, &copy.back());
  return copy;
}

/// Item pointers into `examples`, for RankRequest::items.
inline std::vector<const Example*> ItemPointers(
    const std::vector<Example>& examples) {
  std::vector<const Example*> items;
  for (const Example& ex : examples) items.push_back(&ex);
  return items;
}

}  // namespace awmoe

#endif  // AWMOE_TESTS_SERVING_MALFORMED_ITEMS_H_
