#include "models/input_network.h"

#include <algorithm>

namespace awmoe {

InputNetwork::InputNetwork(const DatasetMeta& meta, const ModelDims& dims,
                           const EmbeddingSet* embeddings,
                           UserPooling pooling, Rng* rng)
    : meta_(meta),
      dims_(dims),
      embeddings_(embeddings),
      pooling_(pooling),
      item_tower_(embeddings->item_dim() + Example::kItemAttrs,
                  dims.tower_mlp, rng),
      query_tower_(embeddings->emb_dim(), dims.tower_mlp, rng),
      other_tower_(2 * embeddings->emb_dim() + meta.numeric_dim,
                   dims.tower_mlp, rng),
      activation_unit_(dims.hidden_dim(), dims.activation_unit, 1, rng) {}

int64_t InputNetwork::output_dim() const {
  int64_t parts = meta_.recommendation_mode ? 3 : 4;
  return parts * dims_.hidden_dim();
}

int64_t InputNetwork::query_offset() const {
  const int64_t h = dims_.hidden_dim();
  return pooling_ == UserPooling::kAttention ? meta_.max_seq_len * h : h;
}

int64_t InputNetwork::session_encoding_dim() const {
  return query_offset() +
         (meta_.recommendation_mode ? 0 : dims_.hidden_dim());
}

template <class X>
MatOf<X> InputNetwork::Run(const X& x, const Batch& batch,
                           const SessionEncoding* encoding,
                           DstOf<X> out) const {
  const int64_t b = batch.size;
  const int64_t h = dims_.hidden_dim();
  ConstMatView blob;
  if (encoding != nullptr) {
    blob = ResolveSessionEncoding(*encoding, b, session_encoding_dim());
    // The blob layout is indexed by padded position, so the pad width
    // must be the snapshot-constant one the width was derived from.
    AWMOE_CHECK(batch.seq_len == meta_.max_seq_len)
        << "InputNetwork: seq_len " << batch.seq_len << " vs meta "
        << meta_.max_seq_len;
  }
  // h_t: target-item tower (Eq. 2). Item representations combine the id
  // embeddings with the item's dense side-info attributes.
  MatOf<X> h_target;
  {
    const typename X::Scope scope(x);
    h_target = item_tower_.Run(x, embeddings_->TargetInput(x, batch),
                               x.ColBlock(out, h, h));
  }

  // v_u: behaviour pooling (Eq. 3) over the real positions only.
  MatOf<X> v_user;
  if (encoding != nullptr && pooling_ == UserPooling::kSumPool) {
    // The blob carries the pooled vector itself; nothing to weigh.
    v_user = x.Constant(blob.ColBlock(0, h), x.ColBlock(out, 0, h));
  } else {
    const typename X::Scope scope(x);
    const typename X::RowList list =
        x.BehaviorRows(MatrixView(batch.behavior_mask));
    const StackRows rows = list;
    // Every real position's h_bj at once, replayed from the blob's
    // column blocks when one is given (a broadcast one-row blob keeps
    // stride 0).
    const DstOf<X> h_b_out = x.Alloc(rows.size(), h);
    const MatOf<X> h_b =
        encoding != nullptr
            ? x.Constant(blob.ColBlock(0, batch.seq_len * h), rows,
                         h_b_out)
            : BehaviorHidden(x, *embeddings_, item_tower_, batch, rows,
                             h_b_out);
    const bool attention = pooling_ == UserPooling::kAttention;
    MatOf<X> w;
    if (attention) {
      w = activation_unit_.Run(x, h_b, h_target, &rows,
                               x.Alloc(rows.size(), 1));
    }
    v_user = x.Pool(h_b, attention ? &w : nullptr, rows,
                    x.ColBlock(out, 0, h));
  }

  // h_o: profile + cross/numeric features.
  MatOf<X> h_other;
  {
    const typename X::Scope scope(x);
    h_other = other_tower_.Run(
        x, embeddings_->ProfileInput(x, batch),
        x.ColBlock(out, meta_.recommendation_mode ? 2 * h : 3 * h, h));
  }

  if (meta_.recommendation_mode) {
    return x.Concat({v_user, h_target, h_other}, out);
  }
  MatOf<X> h_query;
  if (encoding != nullptr) {
    h_query = x.Constant(blob.ColBlock(query_offset(), h),
                         x.ColBlock(out, 2 * h, h));
  } else {
    const typename X::Scope scope(x);
    h_query = query_tower_.Run(x, embeddings_->QueryInput(x, batch),
                               x.ColBlock(out, 2 * h, h));
  }
  return x.Concat({v_user, h_target, h_query, h_other}, out);
}

template Var InputNetwork::Run(const GraphExec&, const Batch&,
                               const SessionEncoding*, GraphExec::Dst) const;
template MatView InputNetwork::Run(const ArenaExec&, const Batch&,
                                   const SessionEncoding*, MatView) const;

void InputNetwork::EncodeSessionInto(const Batch& batch,
                                     InferenceWorkspace* workspace,
                                     std::span<float> out_span) const {
  const MatView out =
      SessionRowsOut(batch, workspace, out_span, session_encoding_dim());
  const ArenaExec x(workspace->arena());
  const int64_t b = batch.size;
  const int64_t h = dims_.hidden_dim();
  AWMOE_CHECK(batch.seq_len == meta_.max_seq_len)
      << "InputNetwork::EncodeSessionInto: seq_len " << batch.seq_len
      << " vs meta " << meta_.max_seq_len;

  // Every block is computed into arena storage by the same helpers as
  // Run, and only then copied into the blob: compute-then-copy keeps
  // the arithmetic (and its memory alignment) identical to the fused
  // forward, which is what makes the replay bitwise-exact.
  {
    const ArenaExec::Scope scope(x);
    // The attention blob keeps one column block per position, so its
    // layout does not depend on the mask; sum pooling weighs the real
    // positions equally, so the pooled v_user itself is
    // candidate-independent: cache it pooled.
    const bool attention = pooling_ == UserPooling::kAttention;
    const StackRows rows = x.BehaviorRows(MatrixView(batch.behavior_mask));
    const MatView h_b = BehaviorHidden(x, *embeddings_, item_tower_, batch,
                                       rows, x.Alloc(rows.size(), h));
    if (attention) {
      // Real position j of example r is column block j of row r. Padded
      // blocks stay zero: Score replays only the listed rows.
      const MatView blob = out.ColBlock(0, batch.seq_len * h);
      for (int64_t r = 0; r < b; ++r) {
        std::fill_n(blob.row(r), blob.cols, 0.0f);
      }
      for (int64_t i = 0; i < rows.size(); ++i) {
        const StackRow& s = rows.rows[i];
        CopyInto(h_b.RowBlock(i, 1),
                 blob.RowBlock(s.example, 1).ColBlock(s.position * h, h));
      }
    } else {
      CopyInto(x.Pool(h_b, nullptr, rows, x.Alloc(b, h)), out.ColBlock(0, h));
    }
  }

  if (!meta_.recommendation_mode) {
    const ArenaExec::Scope scope(x);
    const MatView h_query = x.Alloc(b, h);
    query_tower_.Run(x, embeddings_->QueryInput(x, batch), h_query);
    CopyInto(h_query, out.ColBlock(query_offset(), h));
  }
}

void InputNetwork::CollectParameters(std::vector<Var>* params) const {
  item_tower_.CollectParameters(params);
  if (!meta_.recommendation_mode) query_tower_.CollectParameters(params);
  other_tower_.CollectParameters(params);
  if (pooling_ == UserPooling::kAttention) {
    activation_unit_.CollectParameters(params);
  }
}

}  // namespace awmoe
