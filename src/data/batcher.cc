#include "data/batcher.h"

#include <cmath>

#include "util/check.h"

namespace awmoe {

void Standardizer::Fit(const std::vector<Example>& examples) {
  AWMOE_CHECK(!examples.empty()) << "Standardizer::Fit on empty dataset";
  const size_t dim = examples[0].numeric.size();
  std::vector<double> sum(dim, 0.0), sum_sq(dim, 0.0);
  for (const Example& ex : examples) {
    AWMOE_CHECK(ex.numeric.size() == dim) << "inconsistent numeric width";
    for (size_t j = 0; j < dim; ++j) {
      sum[j] += ex.numeric[j];
      sum_sq[j] += static_cast<double>(ex.numeric[j]) * ex.numeric[j];
    }
  }
  const double n = static_cast<double>(examples.size());
  mean_.resize(dim);
  inv_std_.resize(dim);
  for (size_t j = 0; j < dim; ++j) {
    double mean = sum[j] / n;
    double var = std::max(0.0, sum_sq[j] / n - mean * mean);
    double stddev = std::sqrt(var);
    mean_[j] = static_cast<float>(mean);
    inv_std_[j] = stddev > 1e-6 ? static_cast<float>(1.0 / stddev) : 1.0f;
  }
}

std::vector<float> Standardizer::Transform(
    const std::vector<float>& numeric) const {
  AWMOE_CHECK(fitted()) << "Standardizer used before Fit";
  AWMOE_CHECK(numeric.size() == mean_.size())
      << "numeric width " << numeric.size() << " vs " << mean_.size();
  std::vector<float> out(numeric.size());
  for (size_t j = 0; j < numeric.size(); ++j) {
    out[j] = (numeric[j] - mean_[j]) * inv_std_[j];
  }
  return out;
}

Batch CollateBatch(const std::vector<const Example*>& examples,
                   const DatasetMeta& meta,
                   const Standardizer* standardizer) {
  AWMOE_CHECK(!examples.empty()) << "CollateBatch on empty slice";
  const int64_t b = static_cast<int64_t>(examples.size());
  const int64_t m = meta.max_seq_len;

  Batch batch;
  batch.size = b;
  batch.seq_len = m;
  batch.behavior_items.assign(static_cast<size_t>(b * m), 0);
  batch.behavior_cats.assign(static_cast<size_t>(b * m), 0);
  batch.behavior_brands.assign(static_cast<size_t>(b * m), 0);
  batch.behavior_attrs = Matrix(b, m * Example::kItemAttrs);
  batch.target_attrs = Matrix(b, Example::kItemAttrs);
  batch.behavior_mask = Matrix(b, m);
  batch.numeric = Matrix(b, meta.numeric_dim);
  batch.labels = Matrix(b, 1);

  batch.target_items.reserve(b);
  batch.target_cats.reserve(b);
  batch.target_brands.reserve(b);
  batch.target_shops.reserve(b);
  batch.query_ids.reserve(b);
  batch.query_cats.reserve(b);
  batch.age_segments.reserve(b);
  batch.session_ids.reserve(b);
  batch.user_ids.reserve(b);
  batch.user_groups.reserve(b);

  for (int64_t i = 0; i < b; ++i) {
    const Example& ex = *examples[static_cast<size_t>(i)];
    const int64_t len =
        std::min<int64_t>(static_cast<int64_t>(ex.behavior_items.size()), m);
    const bool has_attrs = !ex.behavior_attrs.empty();
    if (has_attrs) {
      AWMOE_CHECK(ex.behavior_attrs.size() ==
                  ex.behavior_items.size() * Example::kItemAttrs)
          << "behavior_attrs size " << ex.behavior_attrs.size() << " for "
          << ex.behavior_items.size() << " behaviours";
    }
    for (int64_t j = 0; j < len; ++j) {
      batch.behavior_items[static_cast<size_t>(i * m + j)] =
          ex.behavior_items[static_cast<size_t>(j)];
      batch.behavior_cats[static_cast<size_t>(i * m + j)] =
          ex.behavior_cats[static_cast<size_t>(j)];
      batch.behavior_brands[static_cast<size_t>(i * m + j)] =
          ex.behavior_brands[static_cast<size_t>(j)];
      batch.behavior_mask(i, j) = 1.0f;
      if (has_attrs) {
        for (int64_t c = 0; c < Example::kItemAttrs; ++c) {
          batch.behavior_attrs(i, j * Example::kItemAttrs + c) =
              ex.behavior_attrs[static_cast<size_t>(j * Example::kItemAttrs +
                                                    c)];
        }
      }
    }
    for (int64_t c = 0; c < Example::kItemAttrs; ++c) {
      batch.target_attrs(i, c) = ex.target_attrs[c];
    }
    batch.target_items.push_back(ex.target_item);
    batch.target_cats.push_back(ex.target_cat);
    batch.target_brands.push_back(ex.target_brand);
    batch.target_shops.push_back(ex.target_shop);
    batch.query_ids.push_back(ex.query_id);
    batch.query_cats.push_back(ex.query_cat);
    batch.age_segments.push_back(ex.age_segment);
    batch.session_ids.push_back(ex.session_id);
    batch.user_ids.push_back(ex.user_id);
    batch.user_groups.push_back(ex.user_group);
    batch.labels(i, 0) = ex.label;

    std::vector<float> numeric = standardizer != nullptr
                                     ? standardizer->Transform(ex.numeric)
                                     : ex.numeric;
    AWMOE_CHECK(static_cast<int64_t>(numeric.size()) == meta.numeric_dim)
        << "numeric width " << numeric.size() << " vs " << meta.numeric_dim;
    for (int64_t j = 0; j < meta.numeric_dim; ++j) {
      batch.numeric(i, j) = numeric[static_cast<size_t>(j)];
    }
  }
  return batch;
}

BatchIterator::BatchIterator(const std::vector<Example>* data,
                             const DatasetMeta& meta, int64_t batch_size,
                             const Standardizer* standardizer, Rng* rng,
                             bool group_by_session, int64_t max_group_rows)
    : data_(data),
      meta_(meta),
      batch_size_(batch_size),
      standardizer_(standardizer),
      rng_(rng),
      group_by_session_(group_by_session) {
  AWMOE_CHECK(batch_size_ > 0) << "batch_size=" << batch_size_;
  AWMOE_CHECK(max_group_rows >= 0) << "max_group_rows=" << max_group_rows;
  AWMOE_CHECK(data_ != nullptr);
  if (group_by_session_) {
    const int64_t n = static_cast<int64_t>(data_->size());
    int64_t begin = 0;
    for (int64_t i = 1; i <= n; ++i) {
      if (i == n ||
          (*data_)[static_cast<size_t>(i)].session_id !=
              (*data_)[static_cast<size_t>(i - 1)].session_id) {
        // A run longer than max_group_rows becomes consecutive chunk
        // groups of at most that many rows: each chunk is its own slate
        // (Next emits group boundaries as Batch::slate_starts), so a
        // long session trains as sub-slates instead of aborting on the
        // model's slate-length cap.
        while (max_group_rows > 0 && i - begin > max_group_rows) {
          groups_.emplace_back(begin, begin + max_group_rows);
          begin += max_group_rows;
        }
        groups_.emplace_back(begin, i);
        begin = i;
      }
    }
    order_.resize(groups_.size());
  } else {
    order_.resize(data_->size());
  }
  for (size_t i = 0; i < order_.size(); ++i) {
    order_[i] = static_cast<int64_t>(i);
  }
  Reset();
}

void BatchIterator::Reset() {
  cursor_ = 0;
  if (rng_ != nullptr) rng_->Shuffle(&order_);
}

bool BatchIterator::Next(Batch* out) {
  const int64_t total =
      group_by_session_ ? static_cast<int64_t>(order_.size())
                        : static_cast<int64_t>(data_->size());
  if (cursor_ >= total) return false;
  std::vector<const Example*> slice;
  std::vector<int64_t> slate_starts;
  if (group_by_session_) {
    // Pack whole groups until the next one would overflow batch_size
    // (the first group of a batch always fits by fiat, so a group
    // larger than batch_size still gets served — as its own batch).
    // Group boundaries are recorded as the batch's slate starts: slate
    // identity comes from the GROUPING, not from comparing adjacent
    // session ids, so two chunks of one split oversized session — or
    // two non-contiguous runs of a duplicated session id — stay
    // distinct slates even when the shuffle lands them adjacent.
    int64_t i = cursor_;
    int64_t rows = 0;
    while (i < total) {
      const auto& group = groups_[static_cast<size_t>(order_[i])];
      const int64_t len = group.second - group.first;
      if (rows > 0 && rows + len > batch_size_) break;
      slate_starts.push_back(rows);
      for (int64_t r = group.first; r < group.second; ++r) {
        slice.push_back(&(*data_)[static_cast<size_t>(r)]);
      }
      rows += len;
      ++i;
    }
    cursor_ = i;
  } else {
    const int64_t end = std::min(cursor_ + batch_size_, total);
    slice.reserve(static_cast<size_t>(end - cursor_));
    for (int64_t i = cursor_; i < end; ++i) {
      slice.push_back(&(*data_)[static_cast<size_t>(order_[i])]);
    }
    cursor_ = end;
  }
  *out = CollateBatch(slice, meta_, standardizer_);
  out->slate_starts = std::move(slate_starts);
  return true;
}

}  // namespace awmoe
