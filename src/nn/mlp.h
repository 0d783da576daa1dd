#ifndef AWMOE_NN_MLP_H_
#define AWMOE_NN_MLP_H_

#include <cstdint>
#include <vector>

#include "nn/linear.h"
#include "nn/module.h"

namespace awmoe {

/// `hidden` layer dims followed by an output layer of width `out`.
std::vector<int64_t> WithOutput(std::vector<int64_t> hidden, int64_t out);

/// Multi-layer perceptron: Linear -> ReLU -> ... -> Linear, with an
/// optional ReLU on the output layer. This is the FFN used for every
/// unit in the paper (Fig. 4): hidden layers use ReLU, the output is
/// linear unless `relu_output` is set. The expert networks Psi_k
/// (Fig. 4b, Eq. 5) are plain Mlps with a scalar output.
class Mlp : public Module {
 public:
  /// `layer_dims` lists the output dim of every layer; the input dim is
  /// `input_dim`. E.g. Mlp(24, {64, 32}, rng) is the paper's 64x32 MLP.
  Mlp(int64_t input_dim, std::vector<int64_t> layer_dims, Rng* rng,
      bool relu_output = false);

  /// x: [batch, input_dim] -> [batch, layer_dims.back()], on either
  /// executor; hidden activations are scoped to the call.
  template <class X>
  MatOf<X> Run(const X& x, const MatOf<X>& in, DstOf<X> out) const;

  Var Forward(const Var& in) const { return Run(GraphExec(), in, {}); }

  void CollectParameters(std::vector<Var>* params) const override;

  int64_t input_dim() const { return input_dim_; }
  int64_t output_dim() const { return layers_.back().out_dim(); }
  size_t num_layers() const { return layers_.size(); }

 private:
  int64_t input_dim_;
  std::vector<Linear> layers_;
  bool relu_output_;
};

}  // namespace awmoe

#endif  // AWMOE_NN_MLP_H_
