#include "core/aw_moe.h"

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

AwMoeRanker::ForwardResult AwMoeRanker::Forward(const Batch& batch) {
  ForwardResult result;
  // Step 1: input network -> impression vector (Eq. 2-4).
  Var v_imp = input_network_.Forward(batch);
  // Step 2: expert scores s_k (Eq. 5).
  result.expert_scores = experts_.ForwardAll(v_imp);
  // Step 3: gate activations g (Eq. 6-8).
  result.gate = gate_network_.Forward(batch);
  // Step 4: weighted sum (Eq. 9).
  result.logits = ag::DotRows(result.expert_scores, result.gate);

  if (config_.diversity_weight > 0.0) {
    // Disagreement regulariser: reward per-example variance across expert
    // scores, -w * tanh(mean_i Var_k(s_ik)). The tanh bounds the reward so
    // maximising disagreement cannot blow the expert scores up — raw
    // variance maximisation is unbounded and destabilises training.
    const int64_t k = experts_.num_experts();
    Var ones_over_k(
        Matrix::Full(k, 1, 1.0f / static_cast<float>(k)));
    Var mean_k = ag::MatMul(result.expert_scores, ones_over_k);  // [B,1].
    Var spread = ag::MatMul(mean_k, Var(Matrix::Full(1, k, 1.0f)));
    Var dev = ag::Sub(result.expert_scores, spread);
    Var variance = ag::MeanAll(ag::Mul(dev, dev));
    pending_aux_loss_ = ag::Scale(
        ag::Tanh(variance), -static_cast<float>(config_.diversity_weight));
  } else {
    pending_aux_loss_ = Var();
  }
  return result;
}

Var AwMoeRanker::ForwardLogits(const Batch& batch) {
  return Forward(batch).logits;
}

Var AwMoeRanker::GateRepresentation(const Batch& batch) {
  return gate_network_.Forward(batch);
}

Var AwMoeRanker::ForwardLogitsWithGate(const Batch& batch, const Var& gate) {
  AWMOE_CHECK(gate.defined()) << "ForwardLogitsWithGate: undefined gate";
  Var scores = experts_.ForwardAll(input_network_.Forward(batch));
  Var effective_gate = gate;
  if (gate.rows() == 1 && batch.size > 1) {
    std::vector<int64_t> zeros(static_cast<size_t>(batch.size), 0);
    effective_gate = ag::GatherRows(gate, zeros);
  }
  AWMOE_CHECK(effective_gate.rows() == batch.size)
      << "gate rows " << effective_gate.rows() << " vs batch " << batch.size;
  return ag::DotRows(scores, effective_gate);
}

Matrix AwMoeRanker::InferenceLogits(const Batch& batch) {
  NoGradGuard guard;
  Var v_imp = input_network_.Forward(batch);
  Var scores = experts_.ForwardAll(v_imp);
  Var gate = gate_network_.Forward(batch);
  return ag::DotRows(scores, gate).value();
}

Matrix AwMoeRanker::InferenceGate(const Batch& batch) {
  NoGradGuard guard;
  return gate_network_.Forward(batch).value();
}

Matrix AwMoeRanker::InferenceLogitsWithGate(const Batch& batch,
                                            const Matrix& gate) {
  NoGradGuard guard;
  return ForwardLogitsWithGate(batch, Var(gate)).value();
}

void AwMoeRanker::Score(const ScoreCall& call) {
  CheckScoreCall(*this, call);
  const Batch& batch = call.batch;
  InferenceArena* arena = call.workspace->arena();
  arena->Reset();
  const int64_t k = config_.dims.num_experts;
  // Algorithm 1 in kernel form, same op order as InferenceLogits:
  // input network -> expert scores -> gate -> row-wise weighted sum.
  MatView v_imp = arena->Alloc(batch.size, input_network_.output_dim());
  if (call.encoding != nullptr) {
    const ConstMatView enc_view = ResolveSessionEncoding(
        *call.encoding, batch.size, input_network_.session_encoding_dim());
    input_network_.InferWithSessionInto(batch, enc_view, arena, v_imp);
  } else {
    input_network_.InferInto(batch, arena, v_imp);
  }
  MatView scores = arena->Alloc(batch.size, k);
  experts_.InferAllInto(v_imp, arena, scores);
  ConstMatView gate_view;
  if (call.gate != nullptr) {
    gate_view = ResolveSessionGate(*call.gate, batch.size, k);
  } else {
    MatView g = arena->Alloc(batch.size, k);
    gate_network_.InferInto(batch, arena, g);
    gate_view = g;
  }
  DotRowsInto(scores, gate_view, MatView{call.out.data(), batch.size, 1, 1});
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
  CheckScoreIntoArgs(batch, workspace, out.size());
  const int64_t w = input_network_.session_encoding_dim();
  AWMOE_CHECK(static_cast<int64_t>(out.size()) >= batch.size * w)
      << "EncodeSessionInto: out span " << out.size() << " for "
      << batch.size << "x" << w;
  InferenceArena* arena = workspace->arena();
  arena->Reset();
  input_network_.EncodeSessionInto(batch, arena,
                                   MatView{out.data(), batch.size, w, w});
}

void AwMoeRanker::GateInto(const Batch& batch, InferenceWorkspace* workspace,
                           std::span<float> out) {
  CheckScoreIntoArgs(batch, workspace, out.size());
  const int64_t k = config_.dims.num_experts;
  AWMOE_CHECK(static_cast<int64_t>(out.size()) >= batch.size * k)
      << "GateInto: out span " << out.size() << " for " << batch.size
      << "x" << k;
  InferenceArena* arena = workspace->arena();
  arena->Reset();
  gate_network_.InferInto(batch, arena,
                          MatView{out.data(), batch.size, k, k});
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
