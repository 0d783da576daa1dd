#include "models/attention_unit.h"

namespace awmoe {

AttentionUnit::AttentionUnit(int64_t hidden_dim,
                             std::vector<int64_t> mlp_dims, int64_t out_dim,
                             Rng* rng)
    : hidden_dim_(hidden_dim),
      mlp_(3 * hidden_dim, WithOutput(std::move(mlp_dims), out_dim), rng) {}

template <class X>
MatOf<X> AttentionUnit::Run(const X& x, const MatOf<X>& h_user,
                            const MatOf<X>& h_ref, const StackRows* rows,
                            DstOf<X> out) const {
  AWMOE_CHECK(x.Cols(h_user) == hidden_dim_ && x.Cols(h_ref) == hidden_dim_)
      << "AttentionUnit: dims " << x.Cols(h_user) << "/" << x.Cols(h_ref)
      << " vs " << hidden_dim_;
  const typename X::Scope scope(x);
  const DstOf<X> dst = x.Alloc(x.Rows(h_user), 3 * hidden_dim_);
  const MatOf<X> joined = rows != nullptr
                              ? x.ProductPath(h_user, h_ref, *rows, dst)
                              : x.ProductPath(h_user, h_ref, dst);
  return mlp_.Run(x, joined, out);
}

template Var AttentionUnit::Run(const GraphExec&, const Var&, const Var&,
                                const StackRows*, GraphExec::Dst) const;
template MatView AttentionUnit::Run(const ArenaExec&, const MatView&,
                                    const MatView&, const StackRows*,
                                    MatView) const;

void AttentionUnit::CollectParameters(std::vector<Var>* params) const {
  mlp_.CollectParameters(params);
}

}  // namespace awmoe
