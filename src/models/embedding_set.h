#ifndef AWMOE_MODELS_EMBEDDING_SET_H_
#define AWMOE_MODELS_EMBEDDING_SET_H_

#include <cstdint>
#include <vector>

#include "data/example.h"
#include "nn/embedding.h"
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

  /// concat(item, cat, brand) embeddings: [n, 3*emb_dim]. Used for both
  /// behaviour-sequence items and the target item.
  Var ItemTriple(const std::vector<int64_t>& items,
                 const std::vector<int64_t>& cats,
                 const std::vector<int64_t>& brands) const;

  /// Query embedding: [n, emb_dim].
  Var Query(const std::vector<int64_t>& query_ids) const;

  /// Shop embedding: [n, emb_dim].
  Var Shop(const std::vector<int64_t>& shop_ids) const;

  /// Age-segment embedding: [n, emb_dim].
  Var Age(const std::vector<int64_t>& age_segments) const;

  /// Category embedding alone (Category-MoE gate input): [n, emb_dim].
  Var Category(const std::vector<int64_t>& cat_ids) const;

  // --- Graph-free lookups into caller buffers (Score path). The
  // id stride addresses one sequence position of a Batch's row-major
  // [size * seq_len] layout directly (stride 1 for per-row id lists).

  /// concat(item, cat, brand) rows into `out` [count, item_dim()].
  void ItemTripleInto(const int64_t* items, const int64_t* cats,
                      const int64_t* brands, int64_t count,
                      int64_t id_stride, MatView out) const;

  /// Item-tower input layout: [ItemTriple | attrs] into `out`
  /// [count, item_dim() + attrs.cols]. One definition of the packing
  /// shared by every tower that consumes items with side-info (target
  /// and behaviour positions of the input and gate networks).
  void ItemWithAttrsInto(const int64_t* items, const int64_t* cats,
                         const int64_t* brands, int64_t count,
                         int64_t id_stride, const ConstMatView& attrs,
                         MatView out) const;

  void QueryInto(const int64_t* query_ids, int64_t count, MatView out) const;
  void ShopInto(const int64_t* shop_ids, int64_t count, MatView out) const;
  void AgeInto(const int64_t* age_segments, int64_t count, MatView out) const;
  void CategoryInto(const int64_t* cat_ids, int64_t count, MatView out) const;

  void CollectParameters(std::vector<Var>* params) const override;

  int64_t emb_dim() const { return emb_dim_; }
  /// Width of ItemTriple outputs.
  int64_t item_dim() const { return 3 * emb_dim_; }

 private:
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
