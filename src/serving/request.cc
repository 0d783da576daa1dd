#include "serving/request.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace awmoe {

namespace {

/// No early exit, so the loop vectorises: admission runs on every
/// candidate of every request.
bool AllFinite(const float* values, size_t n) {
  bool finite = true;
  for (size_t i = 0; i < n; ++i) finite &= std::isfinite(values[i]);
  return finite;
}

/// The first defect of one candidate, or "" when it is well-formed.
std::string ItemDefect(const Example& ex, const DatasetMeta& meta) {
  const size_t len = ex.behavior_items.size();
  if (ex.behavior_cats.size() != len || ex.behavior_brands.size() != len) {
    return "behavior_cats/behavior_brands not as long as behavior_items";
  }
  if (!ex.behavior_attrs.empty() &&
      ex.behavior_attrs.size() != len * Example::kItemAttrs) {
    return "behavior_attrs size " + std::to_string(ex.behavior_attrs.size()) +
           " for " + std::to_string(len) + " behaviour items";
  }
  if (static_cast<int64_t>(ex.numeric.size()) != meta.numeric_dim) {
    return "numeric width " + std::to_string(ex.numeric.size()) + " vs " +
           std::to_string(meta.numeric_dim);
  }
  // The first out-of-range id; the message is built only on failure.
  const char* bad_field = nullptr;
  int64_t bad_id = 0;
  int64_t bad_vocab = 0;
  auto check_id = [&](const char* field, int64_t id, int64_t vocab) {
    if ((id < 0 || id >= vocab) && bad_field == nullptr) {
      bad_field = field;
      bad_id = id;
      bad_vocab = vocab;
    }
  };
  check_id("target_item", ex.target_item, meta.num_items);
  check_id("target_cat", ex.target_cat, meta.num_cats);
  check_id("target_brand", ex.target_brand, meta.num_brands);
  check_id("target_shop", ex.target_shop, meta.num_shops);
  check_id("query_id", ex.query_id, std::max<int64_t>(meta.num_queries, 1));
  check_id("query_cat", ex.query_cat, meta.num_cats);
  check_id("age_segment", ex.age_segment, meta.num_age_segments + 1);
  for (size_t j = 0; j < len; ++j) {
    check_id("behavior_items", ex.behavior_items[j], meta.num_items);
    check_id("behavior_cats", ex.behavior_cats[j], meta.num_cats);
    check_id("behavior_brands", ex.behavior_brands[j], meta.num_brands);
  }
  if (bad_field != nullptr) {
    return std::string(bad_field) + " id " + std::to_string(bad_id) +
           " outside [0, " + std::to_string(bad_vocab) + ")";
  }
  if (!AllFinite(ex.numeric.data(), ex.numeric.size()) ||
      !AllFinite(ex.behavior_attrs.data(), ex.behavior_attrs.size()) ||
      !AllFinite(ex.target_attrs, Example::kItemAttrs)) {
    return "non-finite numeric or attribute value";
  }
  return "";
}

}  // namespace

Status ValidateRequest(const RankRequest& request, const DatasetMeta& meta) {
  for (size_t i = 0; i < request.items.size(); ++i) {
    const std::string defect = request.items[i] == nullptr
                                   ? "null item"
                                   : ItemDefect(*request.items[i], meta);
    if (!defect.empty()) {
      return Status::InvalidArgument(
          "Rank: candidate " + std::to_string(i) + " of session " +
          std::to_string(request.session_id) + ": " + defect);
    }
  }
  return Status::OK();
}

std::vector<std::vector<const Example*>> GroupBySession(
    const std::vector<Example>& examples) {
  std::map<int64_t, std::vector<const Example*>> by_id;
  for (const Example& ex : examples) {
    by_id[ex.session_id].push_back(&ex);
  }
  std::vector<std::vector<const Example*>> sessions;
  sessions.reserve(by_id.size());
  for (auto& [id, items] : by_id) sessions.push_back(std::move(items));
  return sessions;
}

std::vector<RankRequest> MakeSessionRequests(
    const std::vector<std::vector<const Example*>>& sessions,
    const std::string& model) {
  std::vector<RankRequest> requests;
  requests.reserve(sessions.size());
  for (const auto& session : sessions) {
    RankRequest request;
    request.session_id = session.empty() ? 0 : session[0]->session_id;
    request.model = model;
    request.items = session;
    requests.push_back(std::move(request));
  }
  return requests;
}

}  // namespace awmoe
