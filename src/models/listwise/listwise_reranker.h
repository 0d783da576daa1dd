#ifndef AWMOE_MODELS_LISTWISE_LISTWISE_RERANKER_H_
#define AWMOE_MODELS_LISTWISE_LISTWISE_RERANKER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "models/embedding_set.h"
#include "models/input_network.h"
#include "models/model_dims.h"
#include "models/ranker.h"
#include "nn/linear.h"
#include "nn/mlp.h"
#include "util/rng.h"

namespace awmoe {

/// Shape of the listwise self-attention encoder (Pobrotyn et al.,
/// "Context-Aware Learning to Rank with Self-Attention"; see
/// docs/reranking.md). Deliberately small: the reranker runs over top-K
/// slates, not the full retrieval set.
struct ListwiseDims {
  /// Width of the per-candidate slate token (the projected input-network
  /// output). Must be divisible by num_heads.
  int64_t d_model = 16;
  int64_t num_heads = 2;
  /// Encoder blocks (attention + position-wise FFN, both residual).
  int64_t num_layers = 1;
  /// Hidden dims of each block's position-wise FFN (output is d_model).
  std::vector<int64_t> ffn_hidden = {32};
  /// Hidden dims of the scoring head (output is the scalar logit).
  std::vector<int64_t> head_hidden = {16};
  /// Hard cap on one slate's length (position-embedding table size).
  int64_t max_slate_len = 64;
};

/// Derives slate boundaries from a batch's per-row session ids: one
/// slate per contiguous run of equal session_id, in batch order.
/// Appends each run's first row index to `starts` (cleared first;
/// capacity is reused, so a warmed vector allocates nothing). An empty
/// batch yields an empty vector. FALLBACK ONLY: when the batch carries
/// explicit `Batch::slate_starts` (the grouping BatchIterator always
/// sets them), those are authoritative — run derivation cannot tell
/// apart two adjacent slates that happen to share a session id (a
/// split oversized session, or non-contiguous duplicate ids the
/// shuffle made adjacent) and would silently merge them.
void SlateStartsFromBatch(const Batch& batch, std::vector<int64_t>* starts);

/// The listwise context-aware reranker (ROADMAP item 4): scores every
/// candidate of a slate JOINTLY through multi-head self-attention over
/// the slate, so a candidate's logit depends on what it competes with
/// and where. Architecture:
///
///   input network (shared AW-MoE pieces, sum pooling) -> proj to
///   d_model -> + learned position embedding (slate rank) ->
///   num_layers x [multi-head self-attention (slate-masked) + residual;
///   position-wise FFN + residual] -> scoring head -> logit.
///
/// No LayerNorm (a documented deviation from Pobrotyn et al.: the repo's
/// kernel set is layer-norm-free and the small d_model trains fine
/// without it). Attention is strictly slate-local: the graph path masks
/// a block-diagonal [B,B] score matrix (exact zeros off-block), the
/// workspace path runs each slate's [len,len] core independently —
/// bitwise-equal at the reference kernel tier, and a slate's scores are
/// independent of micro-batch composition at every tier (the attention
/// core is always the scalar slate-local kernels; the row-wise linear
/// layers are batch-composition-independent in both tiers by the PR 7
/// contract).
class ListwiseReranker : public Ranker {
 public:
  ListwiseReranker(const DatasetMeta& meta, const ModelDims& dims,
                   const ListwiseDims& ldims, Rng* rng);

  Var ForwardLogits(const Batch& batch) override;
  std::vector<Var> Parameters() const override;
  std::string name() const override { return "Listwise-Attn"; }
  std::unique_ptr<Ranker> Clone() const override;

  /// Scores whole slates jointly: `call.slate_starts`, else the batch's
  /// explicit slate_starts, else its session-id runs. Takes neither a
  /// gate nor an encoding. Callers that control slate composition (the
  /// serving engine, the two-stage pipeline) pass explicit starts.
  void Score(const ScoreCall& call) override;

  /// No gate, no encoding; max_slate_items is the position table size.
  ServingTraits Traits(const DatasetMeta& meta) const override;

  const ListwiseDims& listwise_dims() const { return ldims_; }

 private:
  int64_t head_dim() const { return ldims_.d_model / ldims_.num_heads; }

  /// One encoder block's parameters.
  struct EncoderLayer {
    Linear wq;
    Linear wk;
    Linear wv;
    Linear wo;
    Mlp ffn;
  };

  DatasetMeta meta_;
  ModelDims dims_;
  ListwiseDims ldims_;
  EmbeddingSet embeddings_;
  InputNetwork input_network_;
  Linear proj_;
  Var pos_table_;  // [max_slate_len, d_model] learned position rows.
  std::vector<EncoderLayer> layers_;
  Mlp head_;
};

}  // namespace awmoe

#endif  // AWMOE_MODELS_LISTWISE_LISTWISE_RERANKER_H_
