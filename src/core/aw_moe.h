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

  struct ForwardResult {
    Var logits;         // [B, 1] (Eq. 9, pre-sigmoid).
    Var gate;           // [B, K] gate activations g.
    Var expert_scores;  // [B, K] expert scores S.
  };

  /// One full forward pass (Algorithm 1 steps 1-4).
  ForwardResult Forward(const Batch& batch);

  Var ForwardLogits(const Batch& batch) override;

  /// Gate-only forward (Algorithm 1 step 3): the user representation the
  /// contrastive loss (Eq. 10) and the Fig. 7 visualisation operate on.
  /// Cheaper than Forward because experts are skipped.
  Var GateRepresentation(const Batch& batch) override;

  /// Serving-path forward with a precomputed gate (§III-F): when the gate
  /// reads only user and query features, one gate evaluation serves every
  /// target item in the session. `gate` is [1, K] (or [B, K]); row 0 is
  /// broadcast when a single row is given.
  Var ForwardLogitsWithGate(const Batch& batch, const Var& gate);

  /// Inference-only forward: logits without building a graph or touching
  /// the pending auxiliary loss, so concurrent serving threads observe no
  /// state mutation on the expert/gate path.
  Matrix InferenceLogits(const Batch& batch) override;

  /// Gate activations [B, K] for serving, graph-free. One row per batch
  /// row; in search mode every row of a session is identical, which is
  /// what the serving engine's per-session gate cache exploits.
  Matrix InferenceGate(const Batch& batch);

  /// Expert path with an externally supplied [B, K] gate matrix (rows
  /// typically replicated from cached per-session gates), graph-free.
  Matrix InferenceLogitsWithGate(const Batch& batch, const Matrix& gate);

  // --- Workspace-based hot path (see models/ranker.h). ---

  /// Allocation-free inference: expert path + gate network, or expert
  /// path under a precomputed SessionGate (§III-F), with the
  /// candidate-independent blocks replayed from a SessionEncoding when
  /// one is given. Bitwise-identical to InferenceLogits /
  /// InferenceLogitsWithGate respectively.
  void Score(const ScoreCall& call) override;

  /// The §III-F precondition: in search mode the gate reads only the
  /// behaviour sequence and query, both constant within a session, so
  /// share_gate holds; in recommendation mode the gate reads the target
  /// item, so it does not. The candidate-independent half of the input
  /// network (behaviour-tower outputs + query embedding) never reads the
  /// target item, so share_encoding holds in both modes.
  ServingTraits Traits(const DatasetMeta& meta) const override;

  /// Graph- and allocation-free gate rows [B, K]; bitwise-identical to
  /// InferenceGate.
  void GateInto(const Batch& batch, InferenceWorkspace* workspace,
                std::span<float> out) override;

  /// Behaviour-tower rows + query embedding [B, encoding_width];
  /// identical rows within a session. Bitwise: replaying the result via
  /// Score reproduces the fused Score exactly.
  void EncodeSessionInto(const Batch& batch, InferenceWorkspace* workspace,
                         std::span<float> out) override;

  /// Expert-disagreement penalty for the most recent Forward /
  /// ForwardLogits call (undefined Var when diversity_weight == 0).
  Var PendingAuxiliaryLoss() const { return pending_aux_loss_; }

  std::vector<Var> Parameters() const override;
  std::string name() const override { return config_.name; }

  /// Deep copy (weights into disjoint storage); the serving ModelPool
  /// uses this to materialise replica lanes from one loaded model.
  std::unique_ptr<Ranker> Clone() const override;

  const AwMoeConfig& config() const { return config_; }

 private:
  DatasetMeta meta_;
  AwMoeConfig config_;
  EmbeddingSet embeddings_;
  InputNetwork input_network_;
  ExpertBank experts_;
  GateNetwork gate_network_;
  Var pending_aux_loss_;
};

}  // namespace awmoe

#endif  // AWMOE_CORE_AW_MOE_H_
