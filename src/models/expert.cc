#include "models/expert.h"

namespace awmoe {

ExpertBank::ExpertBank(int64_t input_dim, const ModelDims& dims, Rng* rng) {
  AWMOE_CHECK(dims.num_experts >= 1) << "num_experts=" << dims.num_experts;
  experts_.reserve(static_cast<size_t>(dims.num_experts));
  for (int64_t k = 0; k < dims.num_experts; ++k) {
    experts_.emplace_back(input_dim, WithOutput(dims.expert, 1), rng);
  }
}

template <class X>
MatOf<X> ExpertBank::Run(const X& x, const MatOf<X>& v_imp,
                         DstOf<X> out) const {
  typename X::Parts scores;
  for (size_t k = 0; k < experts_.size(); ++k) {
    scores.push_back(experts_[k].Run(
        x, v_imp, x.ColBlock(out, static_cast<int64_t>(k), 1)));
  }
  return x.Concat(scores, out);
}

template Var ExpertBank::Run(const GraphExec&, const Var&,
                             GraphExec::Dst) const;
template MatView ExpertBank::Run(const ArenaExec&, const MatView&,
                                 MatView) const;

void ExpertBank::CollectParameters(std::vector<Var>* params) const {
  for (const Mlp& expert : experts_) expert.CollectParameters(params);
}

}  // namespace awmoe
