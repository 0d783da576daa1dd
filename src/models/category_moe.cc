#include "models/category_moe.h"

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

template <class X>
MatOf<X> CategoryMoeRanker::Run(const X& x, const Batch& batch,
                                const SessionGate* gate,
                                DstOf<X> out) const {
  const int64_t b = batch.size;
  const int64_t k = dims_.num_experts;
  const MatOf<X> v_imp = input_network_.Run(
      x, batch, /*encoding=*/nullptr, x.Alloc(b, input_network_.output_dim()));
  const MatOf<X> scores = experts_.Run(x, v_imp, x.Alloc(b, k));
  InOf<X> g;
  if (gate != nullptr) {
    g = x.Input(ResolveSessionGate(*gate, b, k));
  } else {
    g = GateRows(x, batch, x.Alloc(b, k));
  }
  return x.DotRows(scores, g, out);
}

template Var CategoryMoeRanker::Run(const GraphExec&, const Batch&,
                                    const SessionGate*, GraphExec::Dst) const;
template MatView CategoryMoeRanker::Run(const ArenaExec&, const Batch&,
                                        const SessionGate*, MatView) const;

Var CategoryMoeRanker::ForwardLogits(const Batch& batch) {
  return Run(GraphExec(), batch, /*gate=*/nullptr, {});
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
  InferenceArena* arena = call.workspace->arena();
  arena->Reset();
  Run(ArenaExec(arena), call.batch, call.gate,
      MatView{call.out.data(), call.batch.size, 1, 1});
}

ServingTraits CategoryMoeRanker::Traits(const DatasetMeta& meta) const {
  return {.gate_width = dims_.num_experts,
          .share_gate = !meta.recommendation_mode};
}

void CategoryMoeRanker::GateInto(const Batch& batch,
                                 InferenceWorkspace* workspace,
                                 std::span<float> out) {
  const MatView rows =
      SessionRowsOut(batch, workspace, out, dims_.num_experts);
  GateRows(ArenaExec(workspace->arena()), batch, rows);
}

std::unique_ptr<Ranker> CategoryMoeRanker::Clone() const {
  Rng rng(1);
  auto clone = std::make_unique<CategoryMoeRanker>(meta_, dims_, &rng);
  CopyParametersInto(*this, clone.get());
  return clone;
}

}  // namespace awmoe
