#ifndef AWMOE_NN_OPTIMIZER_H_
#define AWMOE_NN_OPTIMIZER_H_

#include <cstdint>
#include <vector>

#include "autograd/variable.h"

namespace awmoe {

/// Base class for first-order optimizers over a fixed parameter list.
/// Parameters without an accumulated gradient are skipped by Step().
class Optimizer {
 public:
  explicit Optimizer(std::vector<Var> params) : params_(std::move(params)) {}
  virtual ~Optimizer() = default;

  Optimizer(const Optimizer&) = delete;
  Optimizer& operator=(const Optimizer&) = delete;

  /// Applies one update using the current gradients.
  virtual void Step() = 0;

  /// Clears all parameter gradients.
  void ZeroGrad() {
    for (Var& p : params_) p.ZeroGrad();
  }

  const std::vector<Var>& params() const { return params_; }

 protected:
  std::vector<Var> params_;
};

/// Adam (Kingma & Ba) with bias correction. weight_decay here is the L2
/// (coupled) form; for the decoupled form used by the paper see AdamW.
class Adam : public Optimizer {
 public:
  Adam(std::vector<Var> params, float lr, float beta1 = 0.9f,
       float beta2 = 0.999f, float epsilon = 1e-8f);
  void Step() override;

  float lr() const { return lr_; }
  void set_lr(float lr) { lr_ = lr; }
  int64_t step_count() const { return step_; }

 protected:
  float lr_;
  float beta1_;
  float beta2_;
  float epsilon_;
  int64_t step_ = 0;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
};

/// AdamW (Loshchilov & Hutter): Adam with decoupled weight decay, the
/// optimizer the paper trains with (§IV-D).
///
/// Step() is AdvanceStep() followed by UpdateParameter() for every
/// parameter that holds a gradient. A caller that owns the gradients
/// itself (ParallelTrainer) runs the same two calls, spreading one
/// step's UpdateParameter calls over threads.
class AdamW : public Adam {
 public:
  AdamW(std::vector<Var> params, float lr, float weight_decay = 1e-4f,
        float beta1 = 0.9f, float beta2 = 0.999f, float epsilon = 1e-8f);
  void Step() override;

  /// Starts a step: advances the step count and its bias corrections.
  void AdvanceStep();

  /// Applies the current step's update to parameter `param`, reading
  /// its gradient from `grad` (value-sized). Calls for different
  /// parameters may run concurrently.
  void UpdateParameter(size_t param, const float* grad);

  float weight_decay() const { return weight_decay_; }

 private:
  float weight_decay_;
  float bias_correction1_ = 1.0f;
  float bias_correction2_ = 1.0f;
};

/// The factor ClipGradNorm scales every gradient by when the global
/// norm `total_norm` exceeds `max_norm`.
float GradClipScale(double total_norm, double max_norm);

/// Rescales all gradients so their global L2 norm is at most `max_norm`.
/// Returns the pre-clip norm.
double ClipGradNorm(std::vector<Var>* params, double max_norm);

}  // namespace awmoe

#endif  // AWMOE_NN_OPTIMIZER_H_
