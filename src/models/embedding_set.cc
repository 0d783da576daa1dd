#include "models/embedding_set.h"

namespace awmoe {

EmbeddingSet::EmbeddingSet(const DatasetMeta& meta, int64_t emb_dim, Rng* rng)
    : emb_dim_(emb_dim),
      item_(meta.num_items, emb_dim, rng),
      cat_(meta.num_cats, emb_dim, rng),
      brand_(meta.num_brands, emb_dim, rng),
      shop_(meta.num_shops, emb_dim, rng),
      query_(std::max<int64_t>(meta.num_queries, 1), emb_dim, rng),
      age_(meta.num_age_segments + 1, emb_dim, rng) {}

template <class X>
MatOf<X> EmbeddingSet::CategoryInput(
    const X& x, const std::vector<int64_t>& cat_ids) const {
  const int64_t n = static_cast<int64_t>(cat_ids.size());
  return x.Gather(cat_, cat_ids.data(), n, x.Alloc(n, emb_dim_));
}

template <class X>
MatOf<X> EmbeddingSet::ItemInput(const X& x, const int64_t* items,
                                 const int64_t* cats, const int64_t* brands,
                                 const ConstMatView& attrs, int64_t count,
                                 const StackRows* rows) const {
  const int64_t e = emb_dim_;
  const int64_t n = rows != nullptr ? rows->size() : count;
  const int64_t attr_width =
      rows != nullptr ? attrs.cols / rows->seq_len : attrs.cols;
  const DstOf<X> out = x.Alloc(n, item_dim() + attr_width);
  const DstOf<X> triple = x.ColBlock(out, 0, item_dim());
  const auto gather = [&](const EmbeddingTable& table, const int64_t* ids,
                          DstOf<X> dst) {
    return rows != nullptr ? x.Gather(table, ids, *rows, dst)
                           : x.Gather(table, ids, count, dst);
  };
  const DstOf<X> attr_out = x.ColBlock(out, item_dim(), attr_width);
  const MatOf<X> embedded =
      x.Concat({gather(item_, items, x.ColBlock(triple, 0, e)),
                gather(cat_, cats, x.ColBlock(triple, e, e)),
                gather(brand_, brands, x.ColBlock(triple, 2 * e, e))},
               triple);
  return x.Concat({embedded, rows != nullptr
                                 ? x.Constant(attrs, *rows, attr_out)
                                 : x.Constant(attrs, attr_out)},
                  out);
}

template <class X>
MatOf<X> EmbeddingSet::TargetInput(const X& x, const Batch& batch) const {
  return ItemInput(x, batch.target_items.data(), batch.target_cats.data(),
                   batch.target_brands.data(), MatrixView(batch.target_attrs),
                   batch.size, /*rows=*/nullptr);
}

template <class X>
MatOf<X> EmbeddingSet::BehaviorInput(const X& x, const Batch& batch,
                                     const StackRows& rows) const {
  AWMOE_CHECK(rows.batch == batch.size && rows.seq_len == batch.seq_len)
      << "BehaviorInput: " << rows.batch << "x" << rows.seq_len
      << " row list for a " << batch.size << "x" << batch.seq_len
      << " batch";
  return ItemInput(x, batch.behavior_items.data(), batch.behavior_cats.data(),
                   batch.behavior_brands.data(),
                   MatrixView(batch.behavior_attrs), batch.size, &rows);
}

template <class X>
MatOf<X> EmbeddingSet::QueryInput(const X& x, const Batch& batch) const {
  return x.Gather(query_, batch.query_ids.data(), batch.size,
                  x.Alloc(batch.size, emb_dim_));
}

template <class X>
MatOf<X> EmbeddingSet::ProfileInput(const X& x, const Batch& batch) const {
  const int64_t e = emb_dim_;
  const int64_t b = batch.size;
  const DstOf<X> out = x.Alloc(b, 2 * e + batch.numeric.cols());
  return x.Concat(
      {x.Gather(age_, batch.age_segments.data(), b, x.ColBlock(out, 0, e)),
       x.Gather(shop_, batch.target_shops.data(), b, x.ColBlock(out, e, e)),
       x.Constant(MatrixView(batch.numeric),
                  x.ColBlock(out, 2 * e, batch.numeric.cols()))},
      out);
}

#define AWMOE_EMBEDDING_SET_INPUTS(X)                                       \
  template MatOf<X> EmbeddingSet::CategoryInput(                            \
      const X&, const std::vector<int64_t>&) const;                         \
  template MatOf<X> EmbeddingSet::TargetInput(const X&, const Batch&) const; \
  template MatOf<X> EmbeddingSet::BehaviorInput(const X&, const Batch&,    \
                                                const StackRows&) const;    \
  template MatOf<X> EmbeddingSet::QueryInput(const X&, const Batch&) const; \
  template MatOf<X> EmbeddingSet::ProfileInput(const X&, const Batch&) const;
AWMOE_EMBEDDING_SET_INPUTS(GraphExec)
AWMOE_EMBEDDING_SET_INPUTS(ArenaExec)
#undef AWMOE_EMBEDDING_SET_INPUTS

void EmbeddingSet::CollectParameters(std::vector<Var>* params) const {
  item_.CollectParameters(params);
  cat_.CollectParameters(params);
  brand_.CollectParameters(params);
  shop_.CollectParameters(params);
  query_.CollectParameters(params);
  age_.CollectParameters(params);
}

}  // namespace awmoe
