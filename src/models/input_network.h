#ifndef AWMOE_MODELS_INPUT_NETWORK_H_
#define AWMOE_MODELS_INPUT_NETWORK_H_

#include <cstdint>
#include <vector>

#include "data/example.h"
#include "models/attention_unit.h"
#include "models/embedding_set.h"
#include "models/model_dims.h"
#include "models/ranker.h"
#include "nn/exec.h"
#include "nn/mlp.h"
#include "nn/module.h"
#include "util/rng.h"

namespace awmoe {

/// How the user representation v^I_u is pooled from the behaviour sequence.
enum class UserPooling {
  kSumPool,    // YouTube-DNN style (baseline "DNN", [1]).
  kAttention,  // DIN-style activation-unit weighting (Eq. 3, [2]).
};

/// h_b: `tower` over the listed behaviour positions at once (Eq. 2,
/// Eq. 6), into `out` [rows.size(), hidden], the behaviour stack of
/// nn/exec.h. The one behaviour-tower body of the input and gate
/// networks.
template <class X>
MatOf<X> BehaviorHidden(const X& x, const EmbeddingSet& embeddings,
                        const Mlp& tower, const Batch& batch,
                        const StackRows& rows, DstOf<X> out) {
  const typename X::Scope scope(x);
  return tower.Run(x, embeddings.BehaviorInput(x, batch, rows), out);
}

/// The input network of Fig. 3b: embeds every feature type, runs the
/// per-type tower MLPs (Eq. 2), pools the behaviour sequence into the user
/// vector (Eq. 3), and concatenates the impression representation (Eq. 4):
///   v_imp = v_u || h_t || h_q || h_o
/// In recommendation mode the query tower is dropped (no query exists).
class InputNetwork : public Module {
 public:
  /// `embeddings` is shared with the gate network and not owned.
  InputNetwork(const DatasetMeta& meta, const ModelDims& dims,
               const EmbeddingSet* embeddings, UserPooling pooling,
               Rng* rng);

  /// Impression representation [B, output_dim()], on either executor.
  /// On the arena each tower writes its slice of `out` directly.
  ///
  /// `encoding`, when not null, is what EncodeSessionInto wrote, one
  /// row per batch row or one row broadcast to all (ResolveSessionEncoding
  /// checks it): the candidate-independent blocks are replayed from
  /// it instead of recomputed, and only the candidate-dependent tail
  /// (target tower, attention weighting + pooling, profile tower) runs.
  /// Replayed rows are first copied into the executor's own storage
  /// (arena views, or graph constants), so every kernel still reads
  /// aligned rows; the result is bitwise-identical to the fused
  /// forward.
  template <class X>
  MatOf<X> Run(const X& x, const Batch& batch,
               const SessionEncoding* encoding, DstOf<X> out) const;

  Var Forward(const Batch& batch) const {
    return Run(GraphExec(), batch, nullptr, {});
  }

  /// Materialises the candidate-INDEPENDENT half of the forward pass
  /// into a cacheable blob `out` [B, session_encoding_dim()] (the
  /// session feature store payload):
  ///   kAttention:  h_b(0) | ... | h_b(max_seq_len-1) [| h_query]
  ///   kSumPool:    v_user [| h_query]
  /// With attention pooling the per-position behaviour-tower outputs
  /// h_bj (§III-C attention inputs) are cacheable but the pooled v_user
  /// is NOT — the activation unit reads the candidate's h_target — so
  /// the blob carries the positions; with sum pooling v_user itself is
  /// candidate-independent. The attention blob is computed over every
  /// position (padded ones included) by the same helpers as Run, into
  /// arena storage, and the stack's row blocks are copied into the
  /// blob's column blocks; Run replays only its batch's real rows out
  /// of it, so the replay reproduces the fused forward bit for bit.
  /// Implements Ranker::EncodeSessionInto for the rankers built on it.
  void EncodeSessionInto(const Batch& batch, InferenceWorkspace* workspace,
                         std::span<float> out) const;

  /// Width of the impression vector v_imp.
  int64_t output_dim() const;

  /// Width of one EncodeSessionInto row. The padded sequence length is
  /// snapshot-constant (CollateBatch always pads to meta.max_seq_len),
  /// so this is too.
  int64_t session_encoding_dim() const;

  void CollectParameters(std::vector<Var>* params) const override;

 private:
  /// Offset of h_query in an EncodeSessionInto row.
  int64_t query_offset() const;

  DatasetMeta meta_;
  ModelDims dims_;
  const EmbeddingSet* embeddings_;
  UserPooling pooling_;
  Mlp item_tower_;   // MLP^I for behaviour items and the target item.
  Mlp query_tower_;  // MLP^I for the query (unused in recommendation mode).
  Mlp other_tower_;  // MLP^I for profile + numeric features.
  AttentionUnit activation_unit_;  // Phi^I (only used with kAttention).
};

}  // namespace awmoe

#endif  // AWMOE_MODELS_INPUT_NETWORK_H_
