#include "nn/mlp.h"

namespace awmoe {

std::vector<int64_t> WithOutput(std::vector<int64_t> hidden, int64_t out) {
  hidden.push_back(out);
  return hidden;
}

Mlp::Mlp(int64_t input_dim, std::vector<int64_t> layer_dims, Rng* rng,
         bool relu_output)
    : input_dim_(input_dim), relu_output_(relu_output) {
  AWMOE_CHECK(!layer_dims.empty()) << "Mlp needs at least one layer";
  int64_t in = input_dim;
  layers_.reserve(layer_dims.size());
  for (int64_t out : layer_dims) {
    AWMOE_CHECK(out > 0) << "Mlp layer dim must be positive, got " << out;
    layers_.emplace_back(in, out, rng);
    in = out;
  }
}

template <class X>
MatOf<X> Mlp::Run(const X& x, const MatOf<X>& in, DstOf<X> out) const {
  const typename X::Scope scope(x);
  MatOf<X> h = in;
  for (size_t i = 0; i < layers_.size(); ++i) {
    const bool is_last = i + 1 == layers_.size();
    h = layers_[i].Run(
        x, h, is_last ? out : x.Alloc(x.Rows(in), layers_[i].out_dim()));
    if (!is_last || relu_output_) h = x.Relu(h);
  }
  return h;
}

template Var Mlp::Run(const GraphExec&, const Var&, GraphExec::Dst) const;
template MatView Mlp::Run(const ArenaExec&, const MatView&, MatView) const;

void Mlp::CollectParameters(std::vector<Var>* params) const {
  for (const Linear& layer : layers_) layer.CollectParameters(params);
}

}  // namespace awmoe
