#include "nn/linear.h"

#include "nn/init.h"

namespace awmoe {

Linear::Linear(int64_t in_dim, int64_t out_dim, Rng* rng)
    : weight_(HeNormal(in_dim, out_dim, rng), /*requires_grad=*/true),
      bias_(Matrix(1, out_dim), /*requires_grad=*/true) {}

template <class X>
MatOf<X> Linear::Run(const X& x, const MatOf<X>& in, DstOf<X> out) const {
  AWMOE_CHECK(x.Cols(in) == weight_.rows())
      << "Linear: input dim " << x.Cols(in) << " != " << weight_.rows();
  return x.AddBias(x.MatMul(in, weight_, out), bias_);
}

template Var Linear::Run(const GraphExec&, const Var&, GraphExec::Dst) const;
template MatView Linear::Run(const ArenaExec&, const MatView&, MatView) const;

void Linear::CollectParameters(std::vector<Var>* params) const {
  params->push_back(weight_);
  params->push_back(bias_);
}

}  // namespace awmoe
