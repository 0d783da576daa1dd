#ifndef AWMOE_MODELS_ATTENTION_UNIT_H_
#define AWMOE_MODELS_ATTENTION_UNIT_H_

#include <cstdint>
#include <vector>

#include "nn/mlp.h"
#include "nn/module.h"
#include "util/rng.h"

namespace awmoe {

/// The product-path unit of Fig. 4: its input is concat(h_user, h_ref,
/// h_user * h_ref) through an MLP. With a scalar output it is the
/// activation unit of Fig. 4a, scoring how much one behaviour item
/// matters given a reference (target item in the input network, query
/// in the gate network); scores are unnormalised (DIN-style), so
/// callers mask padded positions instead of softmaxing. With a K-wide
/// output it is the gate unit Theta of Fig. 4c, scoring the activation
/// of every expert for one behaviour item (Eq. 7).
class AttentionUnit : public Module {
 public:
  /// `hidden_dim` is the width of both inputs; `mlp_dims` are the hidden
  /// layers (the paper uses 32x16), followed by an `out_dim`-wide output.
  AttentionUnit(int64_t hidden_dim, std::vector<int64_t> mlp_dims,
                int64_t out_dim, Rng* rng);

  /// h_user, h_ref: [B, hidden_dim] -> [B, out_dim], on either
  /// executor. With a row list, h_user is a behaviour stack
  /// [rows->size(), hidden_dim] and each of its rows meets its own
  /// example's h_ref row (nn/exec.h).
  template <class X>
  MatOf<X> Run(const X& x, const MatOf<X>& h_user, const MatOf<X>& h_ref,
               const StackRows* rows, DstOf<X> out) const;

  Var Forward(const Var& h_user, const Var& h_ref) const {
    return Run(GraphExec(), h_user, h_ref, nullptr, {});
  }

  void CollectParameters(std::vector<Var>* params) const override;

 private:
  int64_t hidden_dim_;
  Mlp mlp_;
};

}  // namespace awmoe

#endif  // AWMOE_MODELS_ATTENTION_UNIT_H_
