#include "core/aw_moe.h"

#include <utility>

#include "autograd/ops.h"

namespace awmoe {

AwMoeRanker::AwMoeRanker(const DatasetMeta& meta, const AwMoeConfig& config,
                         Rng* rng)
    : meta_(meta),
      config_(config),
      embeddings_(meta, config.dims.emb_dim, rng),
      input_network_(meta, config.dims, &embeddings_,
                     UserPooling::kAttention, rng),
      experts_(input_network_.output_dim(), config.dims, rng),
      gate_network_(meta, config.dims, &embeddings_, config.gate, rng) {}

template <class X>
AwMoeRanker::Pass<X> AwMoeRanker::Run(const X& x, const Batch& batch,
                                      const SessionGate* gate,
                                      const SessionEncoding* encoding,
                                      DstOf<X> out) const {
  const int64_t b = batch.size;
  const int64_t k = config_.dims.num_experts;
  Pass<X> pass;
  // Step 1: input network -> impression vector (Eq. 2-4).
  const MatOf<X> v_imp = input_network_.Run(
      x, batch, encoding, x.Alloc(b, input_network_.output_dim()));
  // Step 2: expert scores s_k (Eq. 5).
  pass.expert_scores = experts_.Run(x, v_imp, x.Alloc(b, k));
  // Step 3: gate activations g (Eq. 6-8), or the supplied ones.
  if (gate != nullptr) {
    pass.gate = x.Input(ResolveSessionGate(*gate, b, k));
  } else {
    pass.gate = gate_network_.Run(x, batch, x.Alloc(b, k));
  }
  // Step 4: weighted sum (Eq. 9).
  pass.logits = x.DotRows(pass.expert_scores, pass.gate, out);
  return pass;
}

template AwMoeRanker::Pass<GraphExec> AwMoeRanker::Run(
    const GraphExec&, const Batch&, const SessionGate*,
    const SessionEncoding*, GraphExec::Dst) const;
template AwMoeRanker::Pass<ArenaExec> AwMoeRanker::Run(
    const ArenaExec&, const Batch&, const SessionGate*,
    const SessionEncoding*, MatView) const;

AwMoeRanker::ForwardResult AwMoeRanker::Forward(const Batch& batch,
                                                const Matrix* gate) {
  SessionGate supplied;
  if (gate != nullptr) supplied = {gate->data(), gate->rows(), gate->cols()};
  Pass<GraphExec> pass =
      Run(GraphExec(), batch, gate != nullptr ? &supplied : nullptr,
          /*encoding=*/nullptr, {});
  Var aux_loss;
  if (config_.diversity_weight > 0.0) {
    // Disagreement regulariser: reward per-example variance across expert
    // scores, -w * tanh(mean_i Var_k(s_ik)). The tanh bounds the reward so
    // maximising disagreement cannot blow the expert scores up — raw
    // variance maximisation is unbounded and destabilises training.
    const int64_t k = experts_.num_experts();
    Var ones_over_k(
        Matrix::Full(k, 1, 1.0f / static_cast<float>(k)));
    Var mean_k = ag::MatMul(pass.expert_scores, ones_over_k);  // [B,1].
    Var spread = ag::MatMul(mean_k, Var(Matrix::Full(1, k, 1.0f)));
    Var dev = ag::Sub(pass.expert_scores, spread);
    Var variance = ag::MeanAll(ag::Mul(dev, dev));
    aux_loss = ag::Scale(
        ag::Tanh(variance), -static_cast<float>(config_.diversity_weight));
  }
  return {std::move(pass), std::move(aux_loss)};
}

Var AwMoeRanker::ForwardLogits(const Batch& batch) {
  return Run(GraphExec(), batch, /*gate=*/nullptr, /*encoding=*/nullptr, {})
      .logits;
}

Var AwMoeRanker::GateRepresentation(const Batch& batch) {
  // The body's step 3 alone; GateInto runs it on the arena.
  return gate_network_.Forward(batch);
}

void AwMoeRanker::Score(const ScoreCall& call) {
  CheckScoreCall(*this, call);
  InferenceArena* arena = call.workspace->arena();
  arena->Reset();
  Run(ArenaExec(arena), call.batch, call.gate, call.encoding,
      MatView{call.out.data(), call.batch.size, 1, 1});
}

ServingTraits AwMoeRanker::Traits(const DatasetMeta& meta) const {
  return {.gate_width = config_.dims.num_experts,
          .share_gate = !meta.recommendation_mode,
          .encoding_width = input_network_.session_encoding_dim(),
          .share_encoding = true};
}

void AwMoeRanker::EncodeSessionInto(const Batch& batch,
                                    InferenceWorkspace* workspace,
                                    std::span<float> out) {
  input_network_.EncodeSessionInto(batch, workspace, out);
}

void AwMoeRanker::GateInto(const Batch& batch, InferenceWorkspace* workspace,
                           std::span<float> out) {
  const MatView rows =
      SessionRowsOut(batch, workspace, out, config_.dims.num_experts);
  gate_network_.Run(ArenaExec(workspace->arena()), batch, rows);
}

std::vector<Var> AwMoeRanker::Parameters() const {
  std::vector<Var> params;
  embeddings_.CollectParameters(&params);
  input_network_.CollectParameters(&params);
  experts_.CollectParameters(&params);
  gate_network_.CollectParameters(&params);
  return params;
}

std::unique_ptr<Ranker> AwMoeRanker::Clone() const {
  // The fresh init is overwritten by CopyParametersInto, so the Rng
  // seed only has to exist, not match the original's.
  Rng rng(1);
  auto clone = std::make_unique<AwMoeRanker>(meta_, config_, &rng);
  CopyParametersInto(*this, clone.get());
  return clone;
}

}  // namespace awmoe
