#ifndef AWMOE_CORE_AW_MOE_H_
#define AWMOE_CORE_AW_MOE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/gate_network.h"
#include "data/example.h"
#include "models/embedding_set.h"
#include "models/expert.h"
#include "models/input_network.h"
#include "models/model_dims.h"
#include "models/ranker.h"
#include "util/rng.h"

namespace awmoe {

/// Full AW-MoE configuration.
struct AwMoeConfig {
  ModelDims dims;
  GateConfig gate;
  /// Expert-disagreement regulariser weight (§V future work, after [34]):
  /// adds -w * Var_k(s_k) to the loss, pushing experts apart. 0 disables.
  double diversity_weight = 0.0;
  /// Display-name override (ablation benches label their variants).
  std::string name = "AW-MoE";
};

/// Attention Weighted Mixture of Experts (Fig. 3, Algorithm 1): the user
/// behaviour sequence is fed simultaneously into the expert networks (via
/// the input network, Eq. 2-4) and into the gate network (Eq. 6-8); the
/// ranking score is the gate-weighted sum of expert scores (Eq. 9).
class AwMoeRanker : public Ranker {
 public:
  AwMoeRanker(const DatasetMeta& meta, const AwMoeConfig& config, Rng* rng);

  /// What the forward body yields on executor X.
  template <class X>
  struct Pass {
    MatOf<X> logits;         // [B, 1] (Eq. 9, pre-sigmoid).
    InOf<X> gate;            // [B, K] gate activations g.
    MatOf<X> expert_scores;  // [B, K] expert scores S.
  };

  /// The graph pass plus the expert-disagreement penalty, which the
  /// trainer adds to the loss (undefined when diversity_weight == 0).
  struct ForwardResult : Pass<GraphExec> {
    Var aux_loss;
  };

  /// One full forward pass (Algorithm 1 steps 1-4) on the graph, plus
  /// the disagreement penalty. `gate`, when given, replaces the gate
  /// network (§III-F: one gate evaluation serves every target item of a
  /// session): [B, K], or [1, K] broadcast to every row. It enters the
  /// graph as a constant, so no gradient flows into it.
  ForwardResult Forward(const Batch& batch, const Matrix* gate = nullptr);

  Var ForwardLogits(const Batch& batch) override;

  /// Gate-only forward (Algorithm 1 step 3): the user representation the
  /// contrastive loss (Eq. 10) and the Fig. 7 visualisation operate on.
  /// Cheaper than Forward because experts are skipped.
  Var GateRepresentation(const Batch& batch) override;

  // --- Workspace-based hot path (see models/ranker.h). ---

  /// The forward body on the arena: expert path + gate network, or
  /// expert path under a precomputed SessionGate (§III-F), with the
  /// candidate-independent blocks replayed from a SessionEncoding when
  /// one is given. Bitwise-identical to ForwardLogits / Forward(batch,
  /// &gate) at the reference tier.
  void Score(const ScoreCall& call) override;

  /// The §III-F precondition: in search mode the gate reads only the
  /// behaviour sequence and query, both constant within a session, so
  /// share_gate holds; in recommendation mode the gate reads the target
  /// item, so it does not. The candidate-independent half of the input
  /// network (behaviour-tower outputs + query embedding) never reads the
  /// target item, so share_encoding holds in both modes.
  ServingTraits Traits(const DatasetMeta& meta) const override;

  /// Graph- and allocation-free gate rows [B, K]; bitwise-identical to
  /// GateRepresentation.
  void GateInto(const Batch& batch, InferenceWorkspace* workspace,
                std::span<float> out) override;

  /// Behaviour-tower rows + query embedding [B, encoding_width];
  /// identical rows within a session. Bitwise: replaying the result via
  /// Score reproduces the fused Score exactly.
  void EncodeSessionInto(const Batch& batch, InferenceWorkspace* workspace,
                         std::span<float> out) override;

  std::vector<Var> Parameters() const override;
  std::string name() const override { return config_.name; }

  /// Deep copy (weights into disjoint storage); the serving ModelPool
  /// uses this to materialise replica lanes from one loaded model.
  std::unique_ptr<Ranker> Clone() const override;

  const AwMoeConfig& config() const { return config_; }

 private:
  /// The forward body, on either executor: input network (replaying
  /// `encoding` when given), expert scores, the gate network or the
  /// supplied `gate`, then their row-wise dot into `out`.
  template <class X>
  Pass<X> Run(const X& x, const Batch& batch, const SessionGate* gate,
              const SessionEncoding* encoding, DstOf<X> out) const;

  DatasetMeta meta_;
  AwMoeConfig config_;
  EmbeddingSet embeddings_;
  InputNetwork input_network_;
  ExpertBank experts_;
  GateNetwork gate_network_;
};

}  // namespace awmoe

#endif  // AWMOE_CORE_AW_MOE_H_
