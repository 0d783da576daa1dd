#include "models/category_moe.h"

#include "autograd/ops.h"

namespace awmoe {

CategoryMoeRanker::CategoryMoeRanker(const DatasetMeta& meta,
                                     const ModelDims& dims, Rng* rng)
    : meta_(meta),
      dims_(dims),
      embeddings_(meta, dims.emb_dim, rng),
      input_network_(meta, dims, &embeddings_, UserPooling::kAttention, rng),
      experts_(input_network_.output_dim(), dims, rng),
      gate_mlp_(dims.emb_dim,
                WithOutput(dims.gate_unit, dims.num_experts), rng) {}

template <class X>
MatOf<X> CategoryMoeRanker::GateRows(const X& x, const Batch& batch,
                                     DstOf<X> out) const {
  const typename X::Scope scope(x);
  // Query category in search mode; target category when there is no query.
  const std::vector<int64_t>& cats =
      meta_.recommendation_mode ? batch.target_cats : batch.query_cats;
  return x.SoftmaxRows(
      gate_mlp_.Run(x, embeddings_.CategoryInput(x, cats), out));
}

Var CategoryMoeRanker::GateRepresentation(const Batch& batch) {
  return GateRows(GraphExec(), batch, {});
}

Var CategoryMoeRanker::ForwardLogits(const Batch& batch) {
  Var scores = experts_.ForwardAll(input_network_.Forward(batch));
  Var gate = GateRepresentation(batch);
  return ag::DotRows(scores, gate);
}

std::vector<Var> CategoryMoeRanker::Parameters() const {
  std::vector<Var> params;
  embeddings_.CollectParameters(&params);
  input_network_.CollectParameters(&params);
  experts_.CollectParameters(&params);
  gate_mlp_.CollectParameters(&params);
  return params;
}

void CategoryMoeRanker::Score(const ScoreCall& call) {
  CheckScoreCall(*this, call);
  const Batch& batch = call.batch;
  InferenceArena* arena = call.workspace->arena();
  arena->Reset();
  const int64_t k = dims_.num_experts;
  // Same op order as ForwardLogits: experts on the impression vector,
  // then the gate, then the row-wise weighted sum.
  const ArenaExec x(arena);
  MatView v_imp = arena->Alloc(batch.size, input_network_.output_dim());
  input_network_.Run(x, batch, /*encoding=*/nullptr, v_imp);
  MatView scores = arena->Alloc(batch.size, k);
  experts_.Run(x, v_imp, scores);
  ConstMatView gate_view;
  if (call.gate != nullptr) {
    gate_view = ResolveSessionGate(*call.gate, batch.size, k);
  } else {
    gate_view = GateRows(x, batch, arena->Alloc(batch.size, k));
  }
  DotRowsInto(scores, gate_view, MatView{call.out.data(), batch.size, 1, 1});
}

ServingTraits CategoryMoeRanker::Traits(const DatasetMeta& meta) const {
  return {.gate_width = dims_.num_experts,
          .share_gate = !meta.recommendation_mode};
}

void CategoryMoeRanker::GateInto(const Batch& batch,
                                 InferenceWorkspace* workspace,
                                 std::span<float> out) {
  CheckScoreIntoArgs(batch, workspace, out.size());
  AWMOE_CHECK(static_cast<int64_t>(out.size()) >=
              batch.size * dims_.num_experts)
      << "GateInto: out span " << out.size() << " for " << batch.size
      << "x" << dims_.num_experts;
  InferenceArena* arena = workspace->arena();
  arena->Reset();
  GateRows(ArenaExec(arena), batch,
           MatView{out.data(), batch.size, dims_.num_experts,
                   dims_.num_experts});
}

std::unique_ptr<Ranker> CategoryMoeRanker::Clone() const {
  Rng rng(1);
  auto clone = std::make_unique<CategoryMoeRanker>(meta_, dims_, &rng);
  CopyParametersInto(*this, clone.get());
  return clone;
}

}  // namespace awmoe
