#ifndef AWMOE_CORE_GATE_NETWORK_H_
#define AWMOE_CORE_GATE_NETWORK_H_

#include <cstdint>
#include <vector>

#include "data/example.h"
#include "models/attention_unit.h"
#include "models/embedding_set.h"
#include "models/model_dims.h"
#include "nn/mlp.h"
#include "nn/module.h"
#include "util/rng.h"

namespace awmoe {

/// The gate unit Theta of Fig. 4c: like the activation unit but with a
/// K-wide output — for one behaviour item it scores the activation of
/// every expert (Eq. 7).
class GateUnit : public Module {
 public:
  GateUnit(int64_t hidden_dim, std::vector<int64_t> mlp_dims,
           int64_t num_experts, Rng* rng);

  /// h_b, h_ref: [B, hidden_dim] -> activation vectors a_j [B, K].
  Var Forward(const Var& h_b, const Var& h_ref) const;

  /// Graph-free Forward into a caller [B, K] view.
  void InferInto(const ConstMatView& h_b, const ConstMatView& h_ref,
                 InferenceArena* arena, MatView out) const;

  void CollectParameters(std::vector<Var>* params) const override;

 private:
  int64_t hidden_dim_;
  Mlp mlp_;
};

/// Which gate-network modules are active — the ablation axis of Table VI.
enum class GateMode {
  kBaseSumPool,         // "Base": sum-pool behaviours, one gate unit on top.
  kBaseGateUnit,        // "Base+GU": per-item gate units, uniform weights.
  kBaseActivationUnit,  // "Base+AU": attention pooling, one gate unit.
  kFull,                // "Base+GU+AU": the AW-MoE gate (Eq. 8).
};

/// Gate network configuration (ablations + the §V future-work extensions).
struct GateConfig {
  GateMode mode = GateMode::kFull;
  /// Softmax-normalise the activation vector over experts. The paper's
  /// Eq. 8-9 uses raw weighted sums (default false).
  bool softmax = false;
  /// Sparsely-gated MoE (§V future work): keep only the top-k activations
  /// per example. 0 disables sparsification.
  int64_t top_k = 0;
};

/// The gate network of Fig. 3c. Shares the embedding layer with the input
/// network but owns its tower MLPs (MLP^G, Eq. 6). For each behaviour item
/// a gate unit learns per-expert activations and an activation unit learns
/// the item's attention weight; the outputs combine per Eq. 8:
///   g_k = sum_j Phi^G(h^G_bj, h^G_q) * Theta(h^G_bj, h^G_q)_k  (+ bias)
/// A learned bias row makes the gate well-defined for users with empty
/// behaviour sequences (all positions masked). In recommendation mode the
/// reference input is the target item instead of the query (§III-F / IV-A2).
class GateNetwork : public Module {
 public:
  GateNetwork(const DatasetMeta& meta, const ModelDims& dims,
              const EmbeddingSet* embeddings, const GateConfig& config,
              Rng* rng);

  /// Activation vector g [B, K] (Eq. 8), also the gate's user
  /// representation used by the contrastive loss and Fig. 7.
  Var Forward(const Batch& batch) const;

  /// Graph-free Forward into a caller [B, K] view (bitwise-identical
  /// to Forward, zero allocation once the arena is warm) — the gate
  /// half of the Score serving path, also used alone by GateInto
  /// when the engine probes per-session gate rows.
  void InferInto(const Batch& batch, InferenceArena* arena,
                 MatView out) const;

  void CollectParameters(std::vector<Var>* params) const override;

  const GateConfig& config() const { return config_; }

 private:
  /// h^G of the reference (query, or target item in recommendation mode).
  Var Reference(const Batch& batch) const;

  /// Graph-free Reference into `out` [B, hidden_dim].
  void ReferenceInto(const Batch& batch, InferenceArena* arena,
                     MatView out) const;

  /// Graph-free item tower over sequence position j: `out` [B, hidden].
  void BehaviorHiddenInto(const Batch& batch, int64_t j,
                          InferenceArena* arena, MatView out) const;

  DatasetMeta meta_;
  ModelDims dims_;
  GateConfig config_;
  const EmbeddingSet* embeddings_;
  Mlp item_tower_;  // MLP^G over behaviour items.
  Mlp ref_tower_;   // MLP^G over the query / target item.
  GateUnit gate_unit_;
  AttentionUnit activation_unit_;
  Var gate_bias_;  // [1, K].
};

}  // namespace awmoe

#endif  // AWMOE_CORE_GATE_NETWORK_H_
