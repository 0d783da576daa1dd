#ifndef AWMOE_MAT_KERNEL_TIER_H_
#define AWMOE_MAT_KERNEL_TIER_H_

#include <cmath>
#include <cstdint>

#include "mat/matrix.h"

namespace awmoe {

// Kernel tiers: the GEMMs and the hot elementwise kernels dispatch
// through a process-global KernelDispatchTable with two tiers. The
// mat GEMMs (MatMul, MatMulTransA, MatMulTransB — the forward and
// backward products of every autograd op) and the inference kernels
// (nn/inference.h) both go through it, so training and serving run on
// the same tier.
//
//  - kReference — BITWISE CONTRACT: the scalar loops, one per GEMM
//    form, in a fixed accumulation order. Pinning it reproduces the
//    scalar training and scoring results bit for bit.
//  - kFast — EPSILON CONTRACT: AVX2/FMA register-blocked kernels
//    (src/nn/kernels_fast.cc). FMA contraction and blocked
//    accumulation reassociate the float sums, so results agree with
//    the reference tier only to an epsilon/ULP bound
//    (tests/models/kernel_tier_test.cc). Per-element arithmetic still
//    depends only on the reduction length k — never on the row count,
//    the row's position or its neighbours — so a row scores
//    bitwise-identically however the serving engine fuses sessions,
//    and data-parallel training stays bitwise worker-count independent.
//
// The tier is resolved once per process: AWMOE_FORCE_SCALAR (any value
// but "" or "0") pins the reference tier; otherwise the fast tier is
// used when the binary carries it and CPUID reports AVX2+FMA. Tests
// pin tiers explicitly with ScopedKernelTier.

/// Non-owning, mutable view of a row-major [rows, cols] block whose rows
/// are `stride` floats apart (stride >= cols; a column block of a wider
/// buffer keeps the parent's stride).
struct MatView {
  float* data = nullptr;
  int64_t rows = 0;
  int64_t cols = 0;
  int64_t stride = 0;

  float* row(int64_t r) const { return data + r * stride; }

  /// Columns [begin, begin + width) as a sub-view (same rows).
  MatView ColBlock(int64_t begin, int64_t width) const {
    AWMOE_DCHECK(begin >= 0 && width >= 0 && begin + width <= cols)
        << "ColBlock [" << begin << "," << begin + width << ") of " << cols;
    return MatView{data + begin, rows, width, stride};
  }

  /// Rows [begin, begin + count) as a sub-view (same columns).
  MatView RowBlock(int64_t begin, int64_t count) const {
    AWMOE_DCHECK(begin >= 0 && count >= 0 && begin + count <= rows)
        << "RowBlock [" << begin << "," << begin + count << ") of " << rows;
    return MatView{data + begin * stride, count, cols, stride};
  }
};

/// Read-only view; converts implicitly from MatView and wraps const
/// Matrix storage (batch features, cached gate rows) without copying.
/// A broadcast row is expressed as stride == 0.
struct ConstMatView {
  const float* data = nullptr;
  int64_t rows = 0;
  int64_t cols = 0;
  int64_t stride = 0;

  ConstMatView() = default;
  ConstMatView(const float* data, int64_t rows, int64_t cols, int64_t stride)
      : data(data), rows(rows), cols(cols), stride(stride) {}
  ConstMatView(const MatView& v)  // NOLINT(google-explicit-constructor)
      : data(v.data), rows(v.rows), cols(v.cols), stride(v.stride) {}

  const float* row(int64_t r) const { return data + r * stride; }

  /// Columns [begin, begin + width) as a sub-view (same rows, same
  /// stride, so a stride-0 broadcast stays one).
  ConstMatView ColBlock(int64_t begin, int64_t width) const {
    AWMOE_DCHECK(begin >= 0 && width >= 0 && begin + width <= cols)
        << "ColBlock [" << begin << "," << begin + width << ") of " << cols;
    return ConstMatView(data + begin, rows, width, stride);
  }

  /// Rows [begin, begin + count) as a sub-view (same columns).
  ConstMatView RowBlock(int64_t begin, int64_t count) const {
    AWMOE_DCHECK(begin >= 0 && count >= 0 && begin + count <= rows)
        << "RowBlock [" << begin << "," << begin + count << ") of " << rows;
    return ConstMatView(data + begin * stride, count, cols, stride);
  }
};

/// Whole-matrix read view.
inline ConstMatView MatrixView(const Matrix& m) {
  return ConstMatView(m.data(), m.rows(), m.cols(), m.cols());
}

/// Whole-matrix write view.
inline MatView MutableMatrixView(Matrix& m) {
  return MatView{m.data(), m.rows(), m.cols(), m.cols()};
}

/// Columns [begin, begin + width) of a matrix as a read view.
inline ConstMatView MatrixColsView(const Matrix& m, int64_t begin,
                                   int64_t width) {
  AWMOE_DCHECK(begin >= 0 && width >= 0 && begin + width <= m.cols())
      << "MatrixColsView [" << begin << "," << begin + width << ") of "
      << m.cols();
  return ConstMatView(m.data() + begin, m.rows(), width, m.cols());
}

enum class KernelTier {
  kReference = 0,  // Scalar, bitwise reference.
  kFast = 1,       // AVX2/FMA register-blocked; epsilon-bounded.
};

/// Function-pointer table of one tier's kernels: one row per (op,
/// tier), callers dispatch through ActiveKernels(). Shape checks stay
/// in the public wrappers, so rows assume validated views, and no row
/// allocates. The GEMM rows fully overwrite `out` and reduce over p in
/// ascending order for every output element.
struct KernelDispatchTable {
  const char* name = "";     // "reference-scalar" / "avx2-fma".
  bool bitwise_reference = false;

  /// NN: out[m,n] = a[m,k] * b[k,n].
  void (*matmul_nn)(const ConstMatView& a, const ConstMatView& b,
                    MatView out) = nullptr;
  /// TN: out[m,n] = a[k,m]^T * b[k,n] (weight gradients dW = X^T dY).
  void (*matmul_tn)(const ConstMatView& a, const ConstMatView& b,
                    MatView out) = nullptr;
  /// NT: out[m,n] = a[m,k] * b[n,k]^T (input gradients dX = dY W^T).
  void (*matmul_nt)(const ConstMatView& a, const ConstMatView& b,
                    MatView out) = nullptr;
  /// a[m,n] += bias[1,n] broadcast over rows.
  void (*add_bias)(MatView a, const Matrix& bias) = nullptr;
  /// a = max(a, 0) elementwise.
  void (*relu)(MatView a) = nullptr;
  /// out[i] = sigmoid(x[i]) over a contiguous span (x and out may
  /// alias exactly).
  void (*sigmoid_span)(const float* x, float* out, int64_t n) = nullptr;
};

/// True when the fast tier is both compiled in (kernels_fast.cc built
/// with AVX2/FMA) and runnable on this CPU (CPUID reports avx2+fma).
bool FastKernelTierAvailable();

/// The active tier. Resolved once on first kernel use:
/// AWMOE_FORCE_SCALAR in the environment pins kReference, otherwise
/// kFast when available.
KernelTier ActiveKernelTier();

/// Overrides the active tier process-wide. CHECK-fails when asked for
/// kFast on a machine/build without it. Intended for tests and
/// benches; not synchronised against in-flight kernels, so call it
/// only while no other thread is scoring or training.
void SetKernelTier(KernelTier tier);

const char* KernelTierName(KernelTier tier);

/// The dispatch table of `tier` (CHECK-fails for an unavailable tier)
/// / of the active tier.
const KernelDispatchTable& GetKernelTable(KernelTier tier);
const KernelDispatchTable& ActiveKernels();

/// Pure tier-resolution rule, exposed for unit tests: `force_scalar`
/// is the raw AWMOE_FORCE_SCALAR value (nullptr = unset; "" and "0"
/// mean unset).
KernelTier ResolveKernelTier(const char* force_scalar, bool fast_available);

/// RAII tier pin for tests/benches: sets `tier` for its scope and
/// restores the previous one.
class ScopedKernelTier {
 public:
  explicit ScopedKernelTier(KernelTier tier) : previous_(ActiveKernelTier()) {
    SetKernelTier(tier);
  }
  ~ScopedKernelTier() { SetKernelTier(previous_); }
  ScopedKernelTier(const ScopedKernelTier&) = delete;
  ScopedKernelTier& operator=(const ScopedKernelTier&) = delete;

 private:
  KernelTier previous_;
};

/// FLOP count of one MatMul (for GFLOPS reporting in benches).
constexpr double MatMulFlops(int64_t m, int64_t k, int64_t n) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(k) *
         static_cast<double>(n);
}

/// The reference sigmoid per element (sign-split for stability): the
/// arithmetic of Sigmoid(Matrix) and of the reference sigmoid_span row,
/// exposed so the serving engine converts logits to probabilities
/// identically.
inline float StableSigmoid(float x) {
  if (x >= 0.0f) {
    float z = std::exp(-x);
    return 1.0f / (1.0f + z);
  }
  float z = std::exp(x);
  return z / (1.0f + z);
}

/// Internal bridge to the AVX2/FMA translation unit (kernels_fast.cc,
/// the only file built with -mavx2 -mfma): the fast tier's table, or
/// nullptr when that file was compiled without AVX2/FMA support.
/// Constant-initialised — taking the pointer runs no AVX2 code; tier
/// resolution checks CPUID before anything jumps through the table.
const KernelDispatchTable* FastKernelTableOrNull();

}  // namespace awmoe

#endif  // AWMOE_MAT_KERNEL_TIER_H_
