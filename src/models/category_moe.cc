#include "models/category_moe.h"

#include "autograd/ops.h"

namespace awmoe {

namespace {
std::vector<int64_t> WithOutput(std::vector<int64_t> dims, int64_t out) {
  dims.push_back(out);
  return dims;
}
}  // namespace

CategoryMoeRanker::CategoryMoeRanker(const DatasetMeta& meta,
                                     const ModelDims& dims, Rng* rng)
    : meta_(meta),
      dims_(dims),
      embeddings_(meta, dims.emb_dim, rng),
      input_network_(meta, dims, &embeddings_, UserPooling::kAttention, rng),
      experts_(input_network_.output_dim(), dims, rng),
      gate_mlp_(dims.emb_dim,
                WithOutput(dims.gate_unit, dims.num_experts), rng) {}

Var CategoryMoeRanker::GateRepresentation(const Batch& batch) {
  // Query category in search mode; target category when there is no query.
  const std::vector<int64_t>& cats =
      meta_.recommendation_mode ? batch.target_cats : batch.query_cats;
  return ag::SoftmaxRows(gate_mlp_.Forward(embeddings_.Category(cats)));
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

void CategoryMoeRanker::GateRowsInto(const Batch& batch,
                                     InferenceArena* arena, MatView g) const {
  const size_t mark = arena->Mark();
  // Query category in search mode; target category when there is no query.
  const std::vector<int64_t>& cats =
      meta_.recommendation_mode ? batch.target_cats : batch.query_cats;
  MatView cat_emb = arena->Alloc(batch.size, dims_.emb_dim);
  embeddings_.CategoryInto(cats.data(), batch.size, cat_emb);
  gate_mlp_.InferInto(cat_emb, arena, g);
  SoftmaxRowsInPlace(g);
  arena->Rewind(mark);
}

void CategoryMoeRanker::Score(const ScoreCall& call) {
  CheckScoreCall(*this, call);
  const Batch& batch = call.batch;
  InferenceArena* arena = call.workspace->arena();
  arena->Reset();
  const int64_t k = dims_.num_experts;
  // Same op order as ForwardLogits: experts on the impression vector,
  // then the gate, then the row-wise weighted sum.
  MatView v_imp = arena->Alloc(batch.size, input_network_.output_dim());
  input_network_.InferInto(batch, arena, v_imp);
  MatView scores = arena->Alloc(batch.size, k);
  experts_.InferAllInto(v_imp, arena, scores);
  ConstMatView gate_view;
  if (call.gate != nullptr) {
    gate_view = ResolveSessionGate(*call.gate, batch.size, k);
  } else {
    MatView g = arena->Alloc(batch.size, k);
    GateRowsInto(batch, arena, g);
    gate_view = g;
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
  GateRowsInto(batch, arena,
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
