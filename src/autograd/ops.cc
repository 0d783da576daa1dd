#include "autograd/ops.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "mat/kernels.h"
#include "util/check.h"

namespace awmoe {
namespace ag {

using internal_ag::AccumulateGrad;
using internal_ag::EnsureGrad;
using internal_ag::VarImpl;
using Impl = std::shared_ptr<VarImpl>;

namespace {

/// The backward of an elementwise unary op: rewrites the gradient the
/// node owns, g[i] = fn(g[i], i), and hands that buffer on to the
/// parent, so the closure allocates nothing.
template <class Fn>
void TransformGradInto(VarImpl& self, VarImpl* parent, Fn fn) {
  if (!parent->requires_grad) return;
  float* g = self.grad.data();
  const int64_t n = self.grad.size();
  for (int64_t i = 0; i < n; ++i) g[i] = fn(g[i], i);
  AccumulateGrad(parent, std::move(self.grad));
}

/// The row-softmax Jacobian in place, dx = y * (g - rowsum(g * y)): the
/// ops of Mul, RowSum, BroadcastCol, Sub and Mul, in their order, into
/// g's own buffer.
void SoftmaxBackwardInPlace(Matrix* grad, const Matrix& y) {
  for (int64_t r = 0; r < grad->rows(); ++r) {
    float* g = grad->row(r);
    const float* yr = y.row(r);
    float s = 0.0f;
    for (int64_t c = 0; c < grad->cols(); ++c) {
      const float gy = g[c] * yr[c];
      s += gy;
    }
    for (int64_t c = 0; c < grad->cols(); ++c) {
      const float centered = g[c] - s;
      g[c] = yr[c] * centered;
    }
  }
}

}  // namespace

Var MatMul(const Var& a, const Var& b) {
  Matrix value = ::awmoe::MatMul(a.value(), b.value());
  Impl ai = a.impl(), bi = b.impl();
  return MakeOpResult(
      std::move(value), "matmul", {a, b}, [ai, bi](const VarImpl& self) {
        if (ai->requires_grad) {
          AccumulateGrad(ai.get(), MatMulTransB(self.grad, bi->value));
        }
        if (bi->requires_grad) {
          AccumulateGrad(bi.get(), MatMulTransA(ai->value, self.grad));
        }
      });
}

Var MatMulNT(const Var& a, const Var& b) {
  Matrix value = ::awmoe::MatMulTransB(a.value(), b.value());
  Impl ai = a.impl(), bi = b.impl();
  return MakeOpResult(
      std::move(value), "matmul_nt", {a, b}, [ai, bi](const VarImpl& self) {
        // C[i,j] = sum_p A[i,p] B[j,p]  =>  dA = G B, dB = G^T A.
        if (ai->requires_grad) {
          AccumulateGrad(ai.get(), ::awmoe::MatMul(self.grad, bi->value));
        }
        if (bi->requires_grad) {
          AccumulateGrad(bi.get(), MatMulTransA(self.grad, ai->value));
        }
      });
}

Var Add(const Var& a, const Var& b) {
  Matrix value = ::awmoe::Add(a.value(), b.value());
  Impl ai = a.impl(), bi = b.impl();
  return MakeOpResult(std::move(value), "add", {a, b},
                      [ai, bi](VarImpl& self) {
                        // The last consumer takes the buffer itself.
                        if (bi->requires_grad) {
                          AccumulateGrad(ai.get(), self.grad);
                          AccumulateGrad(bi.get(), std::move(self.grad));
                        } else {
                          AccumulateGrad(ai.get(), std::move(self.grad));
                        }
                      });
}

Var Sub(const Var& a, const Var& b) {
  Matrix value = ::awmoe::Sub(a.value(), b.value());
  Impl ai = a.impl(), bi = b.impl();
  return MakeOpResult(std::move(value), "sub", {a, b},
                      [ai, bi](VarImpl& self) {
                        Matrix neg;
                        if (bi->requires_grad) neg = ::awmoe::Neg(self.grad);
                        AccumulateGrad(ai.get(), std::move(self.grad));
                        if (bi->requires_grad) {
                          AccumulateGrad(bi.get(), std::move(neg));
                        }
                      });
}

Var Mul(const Var& a, const Var& b) {
  Matrix value = ::awmoe::Mul(a.value(), b.value());
  Impl ai = a.impl(), bi = b.impl();
  return MakeOpResult(
      std::move(value), "mul", {a, b}, [ai, bi](const VarImpl& self) {
        if (ai->requires_grad) {
          AccumulateGrad(ai.get(), ::awmoe::Mul(self.grad, bi->value));
        }
        if (bi->requires_grad) {
          AccumulateGrad(bi.get(), ::awmoe::Mul(self.grad, ai->value));
        }
      });
}

Var AddBias(const Var& a, const Var& bias) {
  Matrix value = AddRowBroadcast(a.value(), bias.value());
  Impl ai = a.impl(), bi = bias.impl();
  return MakeOpResult(std::move(value), "add_bias", {a, bias},
                      [ai, bi](VarImpl& self) {
                        Matrix bias_grad;
                        if (bi->requires_grad) bias_grad = ColSum(self.grad);
                        AccumulateGrad(ai.get(), std::move(self.grad));
                        if (bi->requires_grad) {
                          AccumulateGrad(bi.get(), std::move(bias_grad));
                        }
                      });
}

Var Scale(const Var& a, float s) {
  Matrix value = MulScalar(a.value(), s);
  Impl ai = a.impl();
  return MakeOpResult(std::move(value), "scale", {a},
                      [ai, s](VarImpl& self) {
                        if (!ai->requires_grad) return;
                        ScaleInPlace(&self.grad, s);
                        AccumulateGrad(ai.get(), std::move(self.grad));
                      });
}

Var AddScalar(const Var& a, float s) {
  Matrix value = ::awmoe::AddScalar(a.value(), s);
  Impl ai = a.impl();
  return MakeOpResult(std::move(value), "add_scalar", {a},
                      [ai](VarImpl& self) {
                        AccumulateGrad(ai.get(), std::move(self.grad));
                      });
}

Var Relu(const Var& a) {
  Matrix value = ::awmoe::Relu(a.value());
  Impl ai = a.impl();
  return MakeOpResult(
      std::move(value), "relu", {a}, [ai](VarImpl& self) {
        if (!ai->requires_grad) return;
        ReluBackwardInPlace(&self.grad, ai->value);
        AccumulateGrad(ai.get(), std::move(self.grad));
      });
}

Var Sigmoid(const Var& a) {
  Matrix value = ::awmoe::Sigmoid(a.value());
  Impl ai = a.impl();
  return MakeOpResult(
      std::move(value), "sigmoid", {a}, [ai](VarImpl& self) {
        // dy/dx = y (1 - y), reading y back from self.value, as
        // (-y) + 1, then y * that, then g * that.
        const float* y = self.value.data();
        TransformGradInto(self, ai.get(), [y](float g, int64_t i) {
          const float one_minus = -y[i] + 1.0f;
          const float dydx = y[i] * one_minus;
          return g * dydx;
        });
      });
}

Var Tanh(const Var& a) {
  Matrix value = ::awmoe::Tanh(a.value());
  Impl ai = a.impl();
  return MakeOpResult(
      std::move(value), "tanh", {a}, [ai](VarImpl& self) {
        // dy/dx = -(y * y) + 1.
        const float* y = self.value.data();
        TransformGradInto(self, ai.get(), [y](float g, int64_t i) {
          const float square = y[i] * y[i];
          const float dydx = -square + 1.0f;
          return g * dydx;
        });
      });
}

Var ConcatCols(const std::vector<Var>& parts) {
  AWMOE_CHECK(!parts.empty()) << "ConcatCols: no parts";
  std::vector<const Matrix*> values;
  values.reserve(parts.size());
  for (const Var& p : parts) values.push_back(&p.value());
  Matrix value = ::awmoe::ConcatCols(values);

  std::vector<Impl> impls;
  impls.reserve(parts.size());
  for (const Var& p : parts) impls.push_back(p.impl());
  return MakeOpResult(std::move(value), "concat_cols", parts,
                      [impls](const VarImpl& self) {
                        int64_t offset = 0;
                        for (const Impl& impl : impls) {
                          int64_t width = impl->value.cols();
                          if (impl->requires_grad) {
                            AccumulateGrad(
                                impl.get(),
                                ::awmoe::SliceCols(self.grad, offset,
                                                   offset + width));
                          }
                          offset += width;
                        }
                      });
}

Var SliceCols(const Var& a, int64_t begin, int64_t end) {
  Matrix value = ::awmoe::SliceCols(a.value(), begin, end);
  Impl ai = a.impl();
  return MakeOpResult(
      std::move(value), "slice_cols", {a},
      [ai, begin, end](const VarImpl& self) {
        if (!ai->requires_grad) return;
        Matrix padded(ai->value.rows(), ai->value.cols());
        CopyInto(MatrixView(self.grad),
                 MutableMatrixView(padded).ColBlock(begin, end - begin));
        AccumulateGrad(ai.get(), std::move(padded));
      });
}

Var GatherRows(const Var& table, const std::vector<int64_t>& indices) {
  Matrix value = ::awmoe::GatherRows(table.value(), indices);
  Impl ti = table.impl();
  return MakeOpResult(std::move(value), "gather_rows", {table},
                      [ti, indices](const VarImpl& self) {
                        if (!ti->requires_grad) return;
                        EnsureGrad(ti.get());
                        ScatterAddRows(&ti->grad, indices, self.grad);
                      });
}

Var MulColBroadcast(const Var& a, const Var& w) {
  Matrix value = ::awmoe::MulColBroadcast(a.value(), w.value());
  Impl ai = a.impl(), wi = w.impl();
  return MakeOpResult(
      std::move(value), "mul_col_broadcast", {a, w},
      [ai, wi](const VarImpl& self) {
        if (ai->requires_grad) {
          AccumulateGrad(ai.get(),
                         ::awmoe::MulColBroadcast(self.grad, wi->value));
        }
        if (wi->requires_grad) {
          AccumulateGrad(wi.get(), ::awmoe::DotRows(self.grad, ai->value));
        }
      });
}

Var ScatterSumRows(const Var& a, const std::vector<int64_t>& index,
                   int64_t n) {
  const Matrix& x = a.value();
  AWMOE_CHECK(static_cast<int64_t>(index.size()) == x.rows() && n >= 0)
      << "ScatterSumRows: " << index.size() << " indices for "
      << x.ShapeString() << " into " << n << " rows";
  Matrix value(n, x.cols());
  const MatView out = MutableMatrixView(value);
  std::vector<bool> seen(static_cast<size_t>(n), false);
  for (size_t i = 0; i < index.size(); ++i) {
    const int64_t r = index[i];
    AWMOE_CHECK(r >= 0 && r < n)
        << "ScatterSumRows: index " << r << " out of " << n;
    const ConstMatView row =
        MatrixView(x).RowBlock(static_cast<int64_t>(i), 1);
    if (seen[static_cast<size_t>(r)]) {
      AddInPlace(out.RowBlock(r, 1), row);
    } else {
      CopyInto(row, out.RowBlock(r, 1));
      seen[static_cast<size_t>(r)] = true;
    }
  }
  Impl ai = a.impl();
  return MakeOpResult(std::move(value), "scatter_sum_rows", {a},
                      [ai, index](const VarImpl& self) {
                        if (!ai->requires_grad) return;
                        AccumulateGrad(ai.get(),
                                       ::awmoe::GatherRows(self.grad, index));
                      });
}

Var DotRows(const Var& a, const Var& b) {
  Matrix value = ::awmoe::DotRows(a.value(), b.value());
  Impl ai = a.impl(), bi = b.impl();
  return MakeOpResult(
      std::move(value), "dot_rows", {a, b}, [ai, bi](const VarImpl& self) {
        if (ai->requires_grad) {
          AccumulateGrad(ai.get(),
                         ::awmoe::MulColBroadcast(bi->value, self.grad));
        }
        if (bi->requires_grad) {
          AccumulateGrad(bi.get(),
                         ::awmoe::MulColBroadcast(ai->value, self.grad));
        }
      });
}

Var SumAll(const Var& a) {
  Matrix value = Matrix::Full(1, 1, static_cast<float>(::awmoe::SumAll(a.value())));
  Impl ai = a.impl();
  return MakeOpResult(
      std::move(value), "sum_all", {a}, [ai](const VarImpl& self) {
        AccumulateGrad(ai.get(),
                       Matrix::Full(ai->value.rows(), ai->value.cols(),
                                    self.grad(0, 0)));
      });
}

Var MeanAll(const Var& a) {
  AWMOE_CHECK(a.value().size() > 0) << "MeanAll on empty matrix";
  float inv = 1.0f / static_cast<float>(a.value().size());
  Matrix value =
      Matrix::Full(1, 1, static_cast<float>(::awmoe::MeanAll(a.value())));
  Impl ai = a.impl();
  return MakeOpResult(
      std::move(value), "mean_all", {a}, [ai, inv](const VarImpl& self) {
        AccumulateGrad(ai.get(),
                       Matrix::Full(ai->value.rows(), ai->value.cols(),
                                    self.grad(0, 0) * inv));
      });
}

Var SoftmaxRows(const Var& a) {
  Matrix value = ::awmoe::SoftmaxRows(a.value());
  Impl ai = a.impl();
  return MakeOpResult(
      std::move(value), "softmax_rows", {a}, [ai](VarImpl& self) {
        if (!ai->requires_grad) return;
        SoftmaxBackwardInPlace(&self.grad, self.value);
        AccumulateGrad(ai.get(), std::move(self.grad));
      });
}

Var MaskedSoftmaxRows(const Var& a, const Matrix& mask) {
  Matrix value = ::awmoe::MaskedSoftmaxRows(a.value(), mask);
  Impl ai = a.impl();
  return MakeOpResult(
      std::move(value), "masked_softmax_rows", {a},
      [ai](VarImpl& self) {
        // Same Jacobian as SoftmaxRows: masked columns carry y == 0, so
        // they contribute nothing to the row sum and receive dx == 0.
        if (!ai->requires_grad) return;
        SoftmaxBackwardInPlace(&self.grad, self.value);
        AccumulateGrad(ai.get(), std::move(self.grad));
      });
}

Var LogSumExpRows(const Var& a) {
  Matrix value = ::awmoe::LogSumExpRows(a.value());
  Impl ai = a.impl();
  return MakeOpResult(
      std::move(value), "log_sum_exp_rows", {a}, [ai](const VarImpl& self) {
        Matrix soft = ::awmoe::SoftmaxRows(ai->value);
        Matrix spread = ::awmoe::BroadcastCol(self.grad, ai->value.cols());
        AccumulateGrad(ai.get(), ::awmoe::Mul(soft, spread));
      });
}

Var MulMask(const Var& a, const Matrix& mask) {
  Matrix value = ::awmoe::Mul(a.value(), mask);
  Impl ai = a.impl();
  return MakeOpResult(std::move(value), "mul_mask", {a},
                      [ai, mask](VarImpl& self) {
                        const float* m = mask.data();
                        TransformGradInto(self, ai.get(),
                                          [m](float g, int64_t i) {
                                            return g * m[i];
                                          });
                      });
}

Var BceWithLogitsLoss(const Var& logits, const Matrix& targets) {
  const Matrix& x = logits.value();
  AWMOE_CHECK(x.cols() == 1) << "BceWithLogitsLoss expects [m,1] logits, got "
                             << x.ShapeString();
  AWMOE_CHECK(x.SameShape(targets))
      << "BceWithLogitsLoss: logits " << x.ShapeString() << " vs targets "
      << targets.ShapeString();
  const int64_t m = x.rows();
  AWMOE_CHECK(m > 0) << "BceWithLogitsLoss on empty batch";

  // Stable form: max(x,0) - x*t + log(1 + exp(-|x|)).
  double total = 0.0;
  for (int64_t r = 0; r < m; ++r) {
    float xv = x(r, 0);
    float t = targets(r, 0);
    total += std::max(xv, 0.0f) - xv * t + std::log1p(std::exp(-std::abs(xv)));
  }
  Matrix value = Matrix::Full(1, 1, static_cast<float>(total / m));

  Impl li = logits.impl();
  return MakeOpResult(
      std::move(value), "bce_with_logits", {logits},
      [li, targets, m](const VarImpl& self) {
        // d/dx = (sigmoid(x) - t) / m.
        Matrix g = ::awmoe::Sigmoid(li->value);
        float scale = self.grad(0, 0) / static_cast<float>(m);
        float* pg = g.data();
        const float* pt = targets.data();
        for (int64_t i = 0; i < g.size(); ++i) {
          pg[i] = (pg[i] - pt[i]) * scale;
        }
        AccumulateGrad(li.get(), g);
      });
}

Var ListwiseSoftmaxCrossEntropy(const Var& logits, const Matrix& targets,
                                const std::vector<int64_t>& slate_starts) {
  const Matrix& x = logits.value();
  AWMOE_CHECK(x.cols() == 1)
      << "ListwiseSoftmaxCrossEntropy expects [m,1] logits, got "
      << x.ShapeString();
  AWMOE_CHECK(x.SameShape(targets))
      << "ListwiseSoftmaxCrossEntropy: logits " << x.ShapeString()
      << " vs targets " << targets.ShapeString();
  const int64_t m = x.rows();
  AWMOE_CHECK(m > 0) << "ListwiseSoftmaxCrossEntropy on empty batch";
  AWMOE_CHECK(!slate_starts.empty() && slate_starts[0] == 0)
      << "ListwiseSoftmaxCrossEntropy: slate_starts must begin at 0";
  for (size_t i = 1; i < slate_starts.size(); ++i) {
    AWMOE_CHECK(slate_starts[i] > slate_starts[i - 1] && slate_starts[i] < m)
        << "ListwiseSoftmaxCrossEntropy: bad slate start "
        << slate_starts[i];
  }

  const size_t num_slates = slate_starts.size();
  double total = 0.0;
  int64_t counted = 0;
  for (size_t s = 0; s < num_slates; ++s) {
    const int64_t begin = slate_starts[s];
    const int64_t end = s + 1 < num_slates ? slate_starts[s + 1] : m;
    float target_sum = 0.0f;
    for (int64_t r = begin; r < end; ++r) target_sum += targets(r, 0);
    if (target_sum <= 0.0f) continue;  // No positive: undefined, skip.
    float max_val = x(begin, 0);
    for (int64_t r = begin + 1; r < end; ++r) {
      max_val = std::max(max_val, x(r, 0));
    }
    double denom = 0.0;
    for (int64_t r = begin; r < end; ++r) {
      denom += std::exp(static_cast<double>(x(r, 0) - max_val));
    }
    const double log_denom = std::log(denom);
    for (int64_t r = begin; r < end; ++r) {
      const double y = targets(r, 0) / target_sum;
      if (y == 0.0) continue;
      total -= y * (static_cast<double>(x(r, 0) - max_val) - log_denom);
    }
    ++counted;
  }
  Matrix value = Matrix::Full(
      1, 1,
      counted > 0 ? static_cast<float>(total / counted) : 0.0f);

  Impl li = logits.impl();
  return MakeOpResult(
      std::move(value), "listwise_softmax_xent", {logits},
      [li, targets, slate_starts, m, counted](const VarImpl& self) {
        if (!li->requires_grad || counted == 0) return;
        // d/dx_j = (p_j - y_j) / counted per counted slate.
        const float scale = self.grad(0, 0) / static_cast<float>(counted);
        Matrix g(m, 1);
        const Matrix& x = li->value;
        const size_t num_slates = slate_starts.size();
        for (size_t s = 0; s < num_slates; ++s) {
          const int64_t begin = slate_starts[s];
          const int64_t end = s + 1 < num_slates ? slate_starts[s + 1] : m;
          float target_sum = 0.0f;
          for (int64_t r = begin; r < end; ++r) target_sum += targets(r, 0);
          if (target_sum <= 0.0f) continue;
          float max_val = x(begin, 0);
          for (int64_t r = begin + 1; r < end; ++r) {
            max_val = std::max(max_val, x(r, 0));
          }
          double denom = 0.0;
          for (int64_t r = begin; r < end; ++r) {
            denom += std::exp(static_cast<double>(x(r, 0) - max_val));
          }
          for (int64_t r = begin; r < end; ++r) {
            const double p =
                std::exp(static_cast<double>(x(r, 0) - max_val)) / denom;
            const double y = targets(r, 0) / target_sum;
            g(r, 0) = static_cast<float>(p - y) * scale;
          }
        }
        AccumulateGrad(li.get(), g);
      });
}

Var InfoNceLoss(const Var& anchor, const Var& positive,
                const std::vector<Var>& negatives) {
  AWMOE_CHECK(anchor.value().SameShape(positive.value()))
      << "InfoNceLoss: anchor " << anchor.value().ShapeString()
      << " vs positive " << positive.value().ShapeString();
  std::vector<Var> sims;
  sims.reserve(negatives.size() + 1);
  sims.push_back(DotRows(anchor, positive));
  for (const Var& neg : negatives) {
    AWMOE_CHECK(neg.value().SameShape(anchor.value()))
        << "InfoNceLoss: negative shape " << neg.value().ShapeString();
    sims.push_back(DotRows(anchor, neg));
  }
  // -log(exp(pos) / sum(exp(all))) = logsumexp(all) - pos, averaged.
  Var all = ConcatCols(sims);
  Var lse = LogSumExpRows(all);
  return MeanAll(Sub(lse, sims[0]));
}

}  // namespace ag
}  // namespace awmoe
