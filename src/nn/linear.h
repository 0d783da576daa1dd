#ifndef AWMOE_NN_LINEAR_H_
#define AWMOE_NN_LINEAR_H_

#include <cstdint>

#include "nn/exec.h"
#include "nn/module.h"
#include "util/rng.h"

namespace awmoe {

/// Affine layer y = x W + b with W [in, out] (He-normal) and b [1, out]
/// (zeros).
class Linear : public Module {
 public:
  Linear(int64_t in_dim, int64_t out_dim, Rng* rng);

  /// x: [batch, in] -> [batch, out], on either executor (nn/exec.h).
  template <class X>
  MatOf<X> Run(const X& x, const MatOf<X>& in, DstOf<X> out) const;

  Var Forward(const Var& in) const { return Run(GraphExec(), in, {}); }

  void CollectParameters(std::vector<Var>* params) const override;

  int64_t in_dim() const { return weight_.rows(); }
  int64_t out_dim() const { return weight_.cols(); }

  const Var& weight() const { return weight_; }
  const Var& bias() const { return bias_; }

 private:
  Var weight_;
  Var bias_;
};

}  // namespace awmoe

#endif  // AWMOE_NN_LINEAR_H_
