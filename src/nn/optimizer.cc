#include "nn/optimizer.h"

#include <cmath>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "mat/kernels.h"
#include "util/check.h"

namespace awmoe {

Adam::Adam(std::vector<Var> params, float lr, float beta1, float beta2,
           float epsilon)
    : Optimizer(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      epsilon_(epsilon) {
  AWMOE_CHECK(lr > 0.0f) << "Adam lr=" << lr;
  AWMOE_CHECK(beta1 >= 0.0f && beta1 < 1.0f) << "beta1=" << beta1;
  AWMOE_CHECK(beta2 >= 0.0f && beta2 < 1.0f) << "beta2=" << beta2;
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const Var& p : params_) {
    m_.emplace_back(p.value().rows(), p.value().cols());
    v_.emplace_back(p.value().rows(), p.value().cols());
  }
}

void Adam::Step() {
  ++step_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(step_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(step_));
  for (size_t i = 0; i < params_.size(); ++i) {
    Var& p = params_[i];
    if (!p.has_grad()) continue;
    float* value = p.mutable_value().data();
    const float* g = p.grad().data();
    float* m = m_[i].data();
    float* v = v_[i].data();
    const int64_t n = p.value().size();
    for (int64_t j = 0; j < n; ++j) {
      m[j] = beta1_ * m[j] + (1.0f - beta1_) * g[j];
      v[j] = beta2_ * v[j] + (1.0f - beta2_) * g[j] * g[j];
      float m_hat = m[j] / bc1;
      float v_hat = v[j] / bc2;
      value[j] -= lr_ * m_hat / (std::sqrt(v_hat) + epsilon_);
    }
  }
}

AdamW::AdamW(std::vector<Var> params, float lr, float weight_decay,
             float beta1, float beta2, float epsilon)
    : Adam(std::move(params), lr, beta1, beta2, epsilon),
      weight_decay_(weight_decay) {
  AWMOE_CHECK(weight_decay >= 0.0f) << "weight_decay=" << weight_decay;
}

void AdamW::Step() {
  AdvanceStep();
  for (size_t i = 0; i < params_.size(); ++i) {
    const Var& p = params_[i];
    if (!p.has_grad()) continue;
    UpdateParameter(i, p.grad().data());
  }
}

void AdamW::AdvanceStep() {
  ++step_;
  bias_correction1_ = 1.0f - std::pow(beta1_, static_cast<float>(step_));
  bias_correction2_ = 1.0f - std::pow(beta2_, static_cast<float>(step_));
}

void AdamW::UpdateParameter(size_t param, const float* grad) {
  const float lr = lr_, b1 = beta1_, b2 = beta2_, eps = epsilon_;
  const float wd = weight_decay_;
  const float bc1 = bias_correction1_, bc2 = bias_correction2_;
  const float c1 = 1.0f - b1, c2 = 1.0f - b2;
  Matrix& value = params_[param].mutable_value();
  float* x = value.data();
  float* m = m_[param].data();
  float* v = v_[param].data();
  const int64_t n = value.size();
  int64_t j = 0;
#if defined(__SSE2__)
  // Four lanes of exactly the scalar loop's operations in its order.
  // The scalar loop does not vectorise by itself: std::sqrt may set
  // errno, so the compiler keeps a call per element. _mm_sqrt_ps is the
  // same correctly rounded square root, and this file is built without
  // FMA, so no multiply-add is contracted: the lanes match the scalar
  // loop bit for bit.
  const __m128 vb1 = _mm_set1_ps(b1), vc1 = _mm_set1_ps(c1);
  const __m128 vb2 = _mm_set1_ps(b2), vc2 = _mm_set1_ps(c2);
  const __m128 vbc1 = _mm_set1_ps(bc1), vbc2 = _mm_set1_ps(bc2);
  const __m128 vlr = _mm_set1_ps(lr), veps = _mm_set1_ps(eps);
  const __m128 vwd = _mm_set1_ps(wd);
  for (; j + 4 <= n; j += 4) {
    const __m128 g = _mm_loadu_ps(grad + j);
    const __m128 mj = _mm_add_ps(_mm_mul_ps(vb1, _mm_loadu_ps(m + j)),
                                 _mm_mul_ps(vc1, g));
    const __m128 vj = _mm_add_ps(_mm_mul_ps(vb2, _mm_loadu_ps(v + j)),
                                 _mm_mul_ps(_mm_mul_ps(vc2, g), g));
    _mm_storeu_ps(m + j, mj);
    _mm_storeu_ps(v + j, vj);
    const __m128 m_hat = _mm_div_ps(mj, vbc1);
    const __m128 v_hat = _mm_div_ps(vj, vbc2);
    const __m128 xj = _mm_loadu_ps(x + j);
    const __m128 update =
        _mm_add_ps(_mm_div_ps(m_hat, _mm_add_ps(_mm_sqrt_ps(v_hat), veps)),
                   _mm_mul_ps(vwd, xj));
    _mm_storeu_ps(x + j, _mm_sub_ps(xj, _mm_mul_ps(vlr, update)));
  }
#endif
  for (; j < n; ++j) {
    m[j] = b1 * m[j] + c1 * grad[j];
    v[j] = b2 * v[j] + c2 * grad[j] * grad[j];
    const float m_hat = m[j] / bc1;
    const float v_hat = v[j] / bc2;
    // Decoupled decay: shrink the weight directly, outside the moment
    // machinery (Loshchilov & Hutter eq. 12).
    x[j] -= lr * (m_hat / (std::sqrt(v_hat) + eps) + wd * x[j]);
  }
}

float GradClipScale(double total_norm, double max_norm) {
  return static_cast<float>(max_norm / (total_norm + 1e-12));
}

double ClipGradNorm(std::vector<Var>* params, double max_norm) {
  AWMOE_CHECK(max_norm > 0.0) << "max_norm=" << max_norm;
  double total_sq = 0.0;
  for (const Var& p : *params) {
    if (!p.has_grad()) continue;
    double n = Norm(p.grad());
    total_sq += n * n;
  }
  double total = std::sqrt(total_sq);
  if (total > max_norm) {
    const float scale = GradClipScale(total, max_norm);
    for (Var& p : *params) {
      if (p.has_grad()) ScaleInPlace(&p.impl()->grad, scale);
    }
  }
  return total;
}

}  // namespace awmoe
