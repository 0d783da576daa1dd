#ifndef AWMOE_DATA_BATCHER_H_
#define AWMOE_DATA_BATCHER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "data/example.h"
#include "util/rng.h"

namespace awmoe {

/// Per-feature z-score normalisation fitted on the training split and
/// applied everywhere (constant features keep inv_std = 1 so they pass
/// through centred).
class Standardizer {
 public:
  Standardizer() = default;

  /// Estimates mean/std over `examples` (must be non-empty).
  void Fit(const std::vector<Example>& examples);

  /// True once Fit has been called.
  bool fitted() const { return !mean_.empty(); }

  /// z-scores one numeric vector.
  std::vector<float> Transform(const std::vector<float>& numeric) const;

  const std::vector<float>& mean() const { return mean_; }
  const std::vector<float>& inv_std() const { return inv_std_; }

 private:
  std::vector<float> mean_;
  std::vector<float> inv_std_;
};

/// Collates examples into a padded Batch. `standardizer` may be null (raw
/// features).
Batch CollateBatch(const std::vector<const Example*>& examples,
                   const DatasetMeta& meta,
                   const Standardizer* standardizer);

/// Minibatch iterator over a dataset. With an Rng it reshuffles every
/// epoch; without, it iterates in order (evaluation).
class BatchIterator {
 public:
  /// `data` must outlive the iterator. `rng` null = sequential order.
  /// With `group_by_session` set, rows sharing a session_id (contiguous
  /// runs in `data`, which the generators emit) always travel together:
  /// each batch packs WHOLE sessions up to `batch_size` rows (a session
  /// larger than batch_size forms its own batch), and shuffling permutes
  /// sessions, not rows. Slate-scoring models (listwise rerankers) and
  /// the listwise loss require this — a slate split across batches would
  /// attend over a truncated candidate set. In grouping mode each
  /// emitted batch carries its group boundaries in `Batch::slate_starts`
  /// (the authoritative slate identity — see the field's comment).
  ///
  /// `max_group_rows` (grouping mode only; 0 = unlimited) caps one
  /// group's rows: a session run longer than the cap is SPLIT into
  /// consecutive sub-slates of at most `max_group_rows` rows instead of
  /// crashing the epoch. Listwise training passes the model's
  /// Traits().max_slate_items so no slate ever exceeds the position table; the
  /// split costs only cross-sub-slate attention, never training rows.
  BatchIterator(const std::vector<Example>* data, const DatasetMeta& meta,
                int64_t batch_size, const Standardizer* standardizer,
                Rng* rng, bool group_by_session = false,
                int64_t max_group_rows = 0);

  /// Fills `out` with the next batch; returns false at epoch end (call
  /// Reset to start the next epoch).
  bool Next(Batch* out);

  /// Restarts the epoch (reshuffles when an Rng was supplied).
  void Reset();

  /// Batches the current epoch order yields (session packing depends on
  /// the shuffle, so with grouping this is per-epoch, not a constant).
  int64_t num_batches() const;

 private:
  const std::vector<Example>* data_;
  DatasetMeta meta_;
  int64_t batch_size_;
  const Standardizer* standardizer_;
  Rng* rng_;
  bool group_by_session_;
  /// [begin, end) row ranges of each session run (grouping mode only).
  std::vector<std::pair<int64_t, int64_t>> groups_;
  /// Indexes groups_ in grouping mode, rows otherwise.
  std::vector<int64_t> order_;
  int64_t cursor_ = 0;
};

}  // namespace awmoe

#endif  // AWMOE_DATA_BATCHER_H_
