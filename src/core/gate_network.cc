#include "core/gate_network.h"

namespace awmoe {

GateNetwork::GateNetwork(const DatasetMeta& meta, const ModelDims& dims,
                         const EmbeddingSet* embeddings,
                         const GateConfig& config, Rng* rng)
    : meta_(meta),
      dims_(dims),
      config_(config),
      embeddings_(embeddings),
      item_tower_(embeddings->item_dim() + Example::kItemAttrs,
                  dims.tower_mlp, rng),
      ref_tower_(meta.recommendation_mode
                     ? embeddings->item_dim() + Example::kItemAttrs
                     : embeddings->emb_dim(),
                 dims.tower_mlp, rng),
      gate_unit_(dims.hidden_dim(), dims.gate_unit, dims.num_experts, rng),
      activation_unit_(dims.hidden_dim(), dims.activation_unit, 1, rng),
      gate_bias_(Matrix(1, dims.num_experts), /*requires_grad=*/true) {
  AWMOE_CHECK(config.top_k >= 0 && config.top_k <= dims.num_experts)
      << "top_k=" << config.top_k << " with K=" << dims.num_experts;
}

template <class X>
MatOf<X> GateNetwork::Run(const X& x, const Batch& batch,
                          DstOf<X> out) const {
  const int64_t b = batch.size;
  const int64_t k = dims_.num_experts;
  const int64_t h = dims_.hidden_dim();
  const typename X::Scope scope(x);

  // h^G of the reference: the query, or the target item in
  // recommendation mode, where no query exists (§IV-A2).
  MatOf<X> h_ref;
  const DstOf<X> ref_out = x.Alloc(b, h);
  {
    const typename X::Scope ref_scope(x);
    h_ref = ref_tower_.Run(x,
                           meta_.recommendation_mode
                               ? embeddings_->TargetInput(x, batch)
                               : embeddings_->QueryInput(x, batch),
                           ref_out);
  }

  // Per-item modes run a gate unit per behaviour item (Eq. 7) and pool
  // its activations; pooled modes pool the behaviour hiddens and run one
  // gate unit on top. Attention modes weigh each position by the
  // activation unit (Eq. 8), the others equally. Every unit runs once,
  // over the stack of the real positions (nn/exec.h).
  const bool per_item = config_.mode == GateMode::kFull ||
                        config_.mode == GateMode::kBaseGateUnit;
  const bool weighted = config_.mode == GateMode::kFull ||
                        config_.mode == GateMode::kBaseActivationUnit;
  const typename X::RowList list =
      x.BehaviorRows(MatrixView(batch.behavior_mask));
  const StackRows rows = list;
  const int64_t n = rows.size();
  const MatOf<X> h_b = BehaviorHidden(x, *embeddings_, item_tower_, batch,
                                      rows, x.Alloc(n, h));
  MatOf<X> w;
  if (weighted) {
    w = activation_unit_.Run(x, h_b, h_ref, &rows, x.Alloc(n, 1));
  }
  MatOf<X> g;
  if (per_item) {
    const MatOf<X> units =
        gate_unit_.Run(x, h_b, h_ref, &rows, x.Alloc(n, k));
    g = x.Pool(units, weighted ? &w : nullptr, rows, out);
  } else {
    const MatOf<X> pooled =
        x.Pool(h_b, weighted ? &w : nullptr, rows, x.Alloc(b, h));
    g = gate_unit_.Run(x, pooled, h_ref, nullptr, out);
  }

  g = x.AddBias(g, gate_bias_);
  if (config_.softmax) g = x.SoftmaxRows(g);
  // Sparsely-gated MoE (§V): hard top-k selection, ties to the lower
  // expert index.
  if (config_.top_k > 0 && config_.top_k < k) g = x.TopK(g, config_.top_k);
  return g;
}

template Var GateNetwork::Run(const GraphExec&, const Batch&,
                              GraphExec::Dst) const;
template MatView GateNetwork::Run(const ArenaExec&, const Batch&,
                                  MatView) const;

void GateNetwork::CollectParameters(std::vector<Var>* params) const {
  item_tower_.CollectParameters(params);
  ref_tower_.CollectParameters(params);
  gate_unit_.CollectParameters(params);
  if (config_.mode == GateMode::kFull ||
      config_.mode == GateMode::kBaseActivationUnit) {
    activation_unit_.CollectParameters(params);
  }
  params->push_back(gate_bias_);
}

}  // namespace awmoe
