#ifndef AWMOE_MODELS_EMBEDDING_SET_H_
#define AWMOE_MODELS_EMBEDDING_SET_H_

#include <cstdint>
#include <vector>

#include "data/example.h"
#include "nn/embedding.h"
#include "nn/exec.h"
#include "nn/module.h"
#include "util/rng.h"

namespace awmoe {

/// The shared embedding layer of Fig. 3: item/category/brand/shop/query/age
/// tables. Per the paper the gate network reuses the *same* embeddings as
/// the input network (§III-C2), so a single EmbeddingSet instance is shared
/// by both (the tower MLPs on top are separate).
class EmbeddingSet : public Module {
 public:
  EmbeddingSet(const DatasetMeta& meta, int64_t emb_dim, Rng* rng);

  // --- Tower inputs, on either executor (nn/exec.h). Each allocates
  // its [rows, width] result. ---

  /// Category embedding alone (Category-MoE gate input): [n, emb_dim].
  template <class X>
  MatOf<X> CategoryInput(const X& x,
                         const std::vector<int64_t>& cat_ids) const;

  /// [item | cat | brand | attrs] of the target items (item_dim() +
  /// kItemAttrs wide).
  template <class X>
  MatOf<X> TargetInput(const X& x, const Batch& batch) const;

  /// The same layout for the listed behaviour positions, as the
  /// behaviour stack [rows.size(), width] (nn/exec.h), read straight
  /// out of the Batch's row-major [size * seq_len] id layout.
  template <class X>
  MatOf<X> BehaviorInput(const X& x, const Batch& batch,
                         const StackRows& rows) const;

  /// Query embedding: [B, emb_dim].
  template <class X>
  MatOf<X> QueryInput(const X& x, const Batch& batch) const;

  /// [age | shop | numeric]: the profile/cross-feature tower input.
  template <class X>
  MatOf<X> ProfileInput(const X& x, const Batch& batch) const;

  void CollectParameters(std::vector<Var>* params) const override;

  int64_t emb_dim() const { return emb_dim_; }
  /// Width of the [item | cat | brand] block of an item input.
  int64_t item_dim() const { return 3 * emb_dim_; }

 private:
  /// [item | cat | brand | attrs] of `count` target items (rows null)
  /// or of a behaviour stack's listed rows (attrs holds one column
  /// block per position).
  template <class X>
  MatOf<X> ItemInput(const X& x, const int64_t* items, const int64_t* cats,
                     const int64_t* brands, const ConstMatView& attrs,
                     int64_t count, const StackRows* rows) const;

  int64_t emb_dim_;
  EmbeddingTable item_;
  EmbeddingTable cat_;
  EmbeddingTable brand_;
  EmbeddingTable shop_;
  EmbeddingTable query_;
  EmbeddingTable age_;
};

}  // namespace awmoe

#endif  // AWMOE_MODELS_EMBEDDING_SET_H_
