// The fast kernel tier: AVX2/FMA register-blocked implementations of
// the GEMM rows (NN, TN, NT — the products of every autograd forward
// and backward op, and of the inference path) and the hot elementwise
// kernels. This is the ONLY translation unit compiled with -mavx2
// -mfma (CMake scopes the flags to this path, which is the only reason
// the file lives in nn/ while the tier table it fills lives in
// mat/kernel_tier.h); tier resolution checks CPUID before ever jumping
// through the table below, so the binary stays runnable on plain
// x86-64.
//
// Numerics: FMA contraction and register-blocked accumulation
// reassociate float sums, so this tier matches the reference tier only
// to the epsilon/ULP bound pinned by tests/models/kernel_tier_test.cc.
// What IS preserved exactly is composition independence: an output
// element's arithmetic depends only on the reduction length k, never
// on the row count, the row's position or the other rows and columns —
//   - every GEMM form runs one micro-kernel whose 4-row and 1-row
//     variants issue the SAME per-row FMA sequence (p ascending from a
//     zero accumulator), so a row computes identically whether it lands
//     in a quad or the row tail;
//   - column tails run the same vector arithmetic through lane masks;
//   - the sigmoid span tail runs the same vector polynomial through a
//     padded staging vector.
// This keeps serving scores bitwise-stable under micro-batch fusion
// (shard/rollout storm tests compare scores across differently
// composed batches) and data-parallel training bitwise independent of
// the worker count, even on the epsilon tier.

#include "mat/kernel_tier.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cstring>

namespace awmoe {
namespace {

/// Lane mask with the first `lanes` (0..8) of 8 lanes active.
inline __m256i TailMask(int64_t lanes) {
  alignas(32) static constexpr int32_t kMask[16] = {-1, -1, -1, -1, -1, -1,
                                                    -1, -1, 0,  0,  0,  0,
                                                    0,  0,  0,  0};
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kMask + (8 - lanes)));
}

// ---------------------------------------------------------------------
// GEMM: out = A * B for the three operand layouts.
//
// One micro-kernel serves every form. Row r of a register block reads
// A(i + r, p) at a + (i + r) * a_row + p * a_step (a_step = 1 for a
// row-major A; a_row = 1, a_step = lda for the transposed A of TN) and
// B(p, j..j+15) at b + p * ldb. Cache tiling: the outer loop walks
// 16-column panels of B; one panel (k x 16 floats, <= 32 KiB even at
// the paper-scale k = 512) stays in L1 while EVERY row of A streams
// against it. Register blocking: four rows x 16 columns of out live in
// 8 ymm accumulators across the whole k loop, so out is touched once
// per panel, and each loaded B vector feeds four rows' FMAs.
// ---------------------------------------------------------------------

/// One row x one 16-column panel; identical FMA sequence to Rows4's
/// per-row arithmetic. kFull avoids the mask loads on interior panels;
/// kAccumulate continues the FMA chain from the partial sums already in
/// `o0` instead of from zero.
template <bool kFull, bool kAccumulate>
inline void MatMulRows1(const float* a0, int64_t a_step, const float* b,
                        int64_t ldb, int64_t k, __m256i mask0,
                        __m256i mask1, float* o0) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  if (kAccumulate) {
    acc0 = kFull ? _mm256_loadu_ps(o0) : _mm256_maskload_ps(o0, mask0);
    acc1 = kFull ? _mm256_loadu_ps(o0 + 8)
                 : _mm256_maskload_ps(o0 + 8, mask1);
  }
  for (int64_t p = 0; p < k; ++p) {
    const float* brow = b + p * ldb;
    const __m256 b0 =
        kFull ? _mm256_loadu_ps(brow) : _mm256_maskload_ps(brow, mask0);
    const __m256 b1 = kFull ? _mm256_loadu_ps(brow + 8)
                            : _mm256_maskload_ps(brow + 8, mask1);
    const __m256 av = _mm256_broadcast_ss(a0 + p * a_step);
    acc0 = _mm256_fmadd_ps(av, b0, acc0);
    acc1 = _mm256_fmadd_ps(av, b1, acc1);
  }
  if (kFull) {
    _mm256_storeu_ps(o0, acc0);
    _mm256_storeu_ps(o0 + 8, acc1);
  } else {
    _mm256_maskstore_ps(o0, mask0, acc0);
    _mm256_maskstore_ps(o0 + 8, mask1, acc1);
  }
}

/// Four rows x one 16-column panel (rows a_row apart in A, o_stride
/// apart in out).
template <bool kFull, bool kAccumulate>
inline void MatMulRows4(const float* a0, int64_t a_row, int64_t a_step,
                        const float* b, int64_t ldb, int64_t k,
                        __m256i mask0, __m256i mask1, float* o0,
                        int64_t o_stride) {
  const float* a1 = a0 + a_row;
  const float* a2 = a1 + a_row;
  const float* a3 = a2 + a_row;
  float* o1 = o0 + o_stride;
  float* o2 = o1 + o_stride;
  float* o3 = o2 + o_stride;
  __m256 acc00 = _mm256_setzero_ps(), acc01 = _mm256_setzero_ps();
  __m256 acc10 = _mm256_setzero_ps(), acc11 = _mm256_setzero_ps();
  __m256 acc20 = _mm256_setzero_ps(), acc21 = _mm256_setzero_ps();
  __m256 acc30 = _mm256_setzero_ps(), acc31 = _mm256_setzero_ps();
  if (kAccumulate) {
    if (kFull) {
      acc00 = _mm256_loadu_ps(o0), acc01 = _mm256_loadu_ps(o0 + 8);
      acc10 = _mm256_loadu_ps(o1), acc11 = _mm256_loadu_ps(o1 + 8);
      acc20 = _mm256_loadu_ps(o2), acc21 = _mm256_loadu_ps(o2 + 8);
      acc30 = _mm256_loadu_ps(o3), acc31 = _mm256_loadu_ps(o3 + 8);
    } else {
      acc00 = _mm256_maskload_ps(o0, mask0);
      acc01 = _mm256_maskload_ps(o0 + 8, mask1);
      acc10 = _mm256_maskload_ps(o1, mask0);
      acc11 = _mm256_maskload_ps(o1 + 8, mask1);
      acc20 = _mm256_maskload_ps(o2, mask0);
      acc21 = _mm256_maskload_ps(o2 + 8, mask1);
      acc30 = _mm256_maskload_ps(o3, mask0);
      acc31 = _mm256_maskload_ps(o3 + 8, mask1);
    }
  }
  for (int64_t p = 0; p < k; ++p) {
    const float* brow = b + p * ldb;
    const __m256 b0 =
        kFull ? _mm256_loadu_ps(brow) : _mm256_maskload_ps(brow, mask0);
    const __m256 b1 = kFull ? _mm256_loadu_ps(brow + 8)
                            : _mm256_maskload_ps(brow + 8, mask1);
    const int64_t ap = p * a_step;
    __m256 av = _mm256_broadcast_ss(a0 + ap);
    acc00 = _mm256_fmadd_ps(av, b0, acc00);
    acc01 = _mm256_fmadd_ps(av, b1, acc01);
    av = _mm256_broadcast_ss(a1 + ap);
    acc10 = _mm256_fmadd_ps(av, b0, acc10);
    acc11 = _mm256_fmadd_ps(av, b1, acc11);
    av = _mm256_broadcast_ss(a2 + ap);
    acc20 = _mm256_fmadd_ps(av, b0, acc20);
    acc21 = _mm256_fmadd_ps(av, b1, acc21);
    av = _mm256_broadcast_ss(a3 + ap);
    acc30 = _mm256_fmadd_ps(av, b0, acc30);
    acc31 = _mm256_fmadd_ps(av, b1, acc31);
  }
  if (kFull) {
    _mm256_storeu_ps(o0, acc00);
    _mm256_storeu_ps(o0 + 8, acc01);
    _mm256_storeu_ps(o1, acc10);
    _mm256_storeu_ps(o1 + 8, acc11);
    _mm256_storeu_ps(o2, acc20);
    _mm256_storeu_ps(o2 + 8, acc21);
    _mm256_storeu_ps(o3, acc30);
    _mm256_storeu_ps(o3 + 8, acc31);
  } else {
    _mm256_maskstore_ps(o0, mask0, acc00);
    _mm256_maskstore_ps(o0 + 8, mask1, acc01);
    _mm256_maskstore_ps(o1, mask0, acc10);
    _mm256_maskstore_ps(o1 + 8, mask1, acc11);
    _mm256_maskstore_ps(o2, mask0, acc20);
    _mm256_maskstore_ps(o2 + 8, mask1, acc21);
    _mm256_maskstore_ps(o3, mask0, acc30);
    _mm256_maskstore_ps(o3 + 8, mask1, acc31);
  }
}

template <bool kFull, bool kAccumulate>
void PanelRows(const float* a, int64_t a_row, int64_t a_step, int64_t m,
               const float* b, int64_t ldb, int64_t k, __m256i mask0,
               __m256i mask1, float* out, int64_t out_stride) {
  int64_t i = 0;
  for (; i + 4 <= m; i += 4) {
    MatMulRows4<kFull, kAccumulate>(a + i * a_row, a_row, a_step, b, ldb, k,
                                    mask0, mask1, out + i * out_stride,
                                    out_stride);
  }
  for (; i < m; ++i) {
    MatMulRows1<kFull, kAccumulate>(a + i * a_row, a_step, b, ldb, k, mask0,
                                    mask1, out + i * out_stride);
  }
}

/// out[0..m, 0..lanes) (+)= A * B over one panel of at most 16 columns;
/// `b` and `out` point at the panel's first column.
template <bool kAccumulate>
void MatMulPanel(const float* a, int64_t a_row, int64_t a_step, int64_t m,
                 const float* b, int64_t ldb, int64_t k, int64_t lanes,
                 float* out, int64_t out_stride) {
  const int64_t lanes0 = std::min<int64_t>(8, lanes);
  const int64_t lanes1 = std::max<int64_t>(0, lanes - 8);
  // Masked lanes of a vmaskmovps neither fault nor touch memory, so
  // the tail panel may run the full two-vector arithmetic with the
  // second vector entirely masked off.
  const __m256i mask0 = TailMask(lanes0);
  const __m256i mask1 = TailMask(lanes1);
  if (lanes == 16) {
    PanelRows<true, kAccumulate>(a, a_row, a_step, m, b, ldb, k, mask0,
                                 mask1, out, out_stride);
  } else {
    PanelRows<false, kAccumulate>(a, a_row, a_step, m, b, ldb, k, mask0,
                                  mask1, out, out_stride);
  }
}

/// NN: out[m,n] = a[m,k] * b[k,n].
void MatMulNNFast(const ConstMatView& a, const ConstMatView& b,
                  MatView out) {
  const int64_t n = b.cols;
  for (int64_t j = 0; j < n; j += 16) {
    MatMulPanel<false>(a.data, a.stride, 1, a.rows, b.data + j, b.stride,
                       a.cols, std::min<int64_t>(16, n - j), out.data + j,
                       out.stride);
  }
}

/// TN: out[m,n] = a[k,m]^T * b[k,n] — the NN micro-kernel reading
/// A(i,p) = a[p * lda + i].
void MatMulTNFast(const ConstMatView& a, const ConstMatView& b,
                  MatView out) {
  const int64_t n = b.cols;
  for (int64_t j = 0; j < n; j += 16) {
    MatMulPanel<false>(a.data, 1, a.stride, a.cols, b.data + j, b.stride,
                       a.rows, std::min<int64_t>(16, n - j), out.data + j,
                       out.stride);
  }
}

/// p-chunk of the NT panel transpose: 256 x 16 floats = 16 KiB of
/// stack, L1-resident.
constexpr int64_t kNtChunk = 256;

/// NT: out[m,n] = a[m,k] * b[n,k]^T. Each 16-row block of b is
/// transposed, kNtChunk p-steps at a time, into a stack panel laid out
/// like an NN panel, and the NN micro-kernel runs against it; later
/// chunks continue each element's FMA chain from the partial sums in
/// out. The chunking depends only on k, so every element still sums p
/// in ascending order through one fixed sequence.
void MatMulNTFast(const ConstMatView& a, const ConstMatView& b,
                  MatView out) {
  const int64_t m = a.rows, k = a.cols, n = b.rows;
  alignas(32) float panel[kNtChunk * 16];
  for (int64_t j = 0; j < n; j += 16) {
    const int64_t lanes = std::min<int64_t>(16, n - j);
    int64_t p0 = 0;
    do {
      const int64_t kc = std::min<int64_t>(kNtChunk, k - p0);
      for (int64_t c = 0; c < lanes; ++c) {
        const float* brow = b.row(j + c) + p0;
        for (int64_t p = 0; p < kc; ++p) panel[p * 16 + c] = brow[p];
      }
      if (p0 == 0) {
        MatMulPanel<false>(a.data, a.stride, 1, m, panel, 16, kc, lanes,
                           out.data + j, out.stride);
      } else {
        MatMulPanel<true>(a.data + p0, a.stride, 1, m, panel, 16, kc, lanes,
                          out.data + j, out.stride);
      }
      p0 += kc;
    } while (p0 < k);
  }
}

// ---------------------------------------------------------------------
// Elementwise activations. Vector max/add are bitwise identical to
// their scalar forms, so these may mix vector bodies with scalar tails
// freely; only the sigmoid (polynomial exp) needs the padded tail.
// ---------------------------------------------------------------------

void AddBiasFast(MatView a, const Matrix& bias) {
  const float* pb = bias.data();
  const int64_t cols = a.cols;
  for (int64_t r = 0; r < a.rows; ++r) {
    float* arow = a.row(r);
    int64_t c = 0;
    for (; c + 8 <= cols; c += 8) {
      _mm256_storeu_ps(
          arow + c,
          _mm256_add_ps(_mm256_loadu_ps(arow + c), _mm256_loadu_ps(pb + c)));
    }
    for (; c < cols; ++c) arow[c] = arow[c] + pb[c];
  }
}

void ReluFast(MatView a) {
  const __m256 zero = _mm256_setzero_ps();
  const int64_t cols = a.cols;
  for (int64_t r = 0; r < a.rows; ++r) {
    float* arow = a.row(r);
    int64_t c = 0;
    for (; c + 8 <= cols; c += 8) {
      // max(x, +0) returns the second operand on ties, so -0.0 -> +0.0
      // exactly like the reference's `x > 0 ? x : 0`.
      _mm256_storeu_ps(arow + c,
                       _mm256_max_ps(_mm256_loadu_ps(arow + c), zero));
    }
    for (; c < cols; ++c) arow[c] = arow[c] > 0.0f ? arow[c] : 0.0f;
  }
}

/// Cephes-style expf polynomial (the avx_mathfun lineage): range-
/// reduce by log2(e) with a Cody-Waite split, degree-5 polynomial,
/// scale by 2^n through the exponent field. |error| is a few ULP over
/// the clamped range — inside the fast tier's epsilon contract.
inline __m256 Exp256(__m256 x) {
  const __m256 kHi = _mm256_set1_ps(88.3762626647949f);
  const __m256 kLo = _mm256_set1_ps(-88.3762626647949f);
  const __m256 kLog2e = _mm256_set1_ps(1.44269504088896341f);
  const __m256 kC1 = _mm256_set1_ps(0.693359375f);
  const __m256 kC2 = _mm256_set1_ps(-2.12194440e-4f);
  const __m256 kP0 = _mm256_set1_ps(1.9875691500e-4f);
  const __m256 kP1 = _mm256_set1_ps(1.3981999507e-3f);
  const __m256 kP2 = _mm256_set1_ps(8.3334519073e-3f);
  const __m256 kP3 = _mm256_set1_ps(4.1665795894e-2f);
  const __m256 kP4 = _mm256_set1_ps(1.6666665459e-1f);
  const __m256 kP5 = _mm256_set1_ps(5.0000001201e-1f);
  const __m256 one = _mm256_set1_ps(1.0f);

  x = _mm256_min_ps(_mm256_max_ps(x, kLo), kHi);
  // n = round(x * log2(e)) via floor(x*log2e + 0.5).
  __m256 fx = _mm256_fmadd_ps(x, kLog2e, _mm256_set1_ps(0.5f));
  fx = _mm256_floor_ps(fx);
  // x -= n * ln(2), split into two constants for precision.
  x = _mm256_fnmadd_ps(fx, kC1, x);
  x = _mm256_fnmadd_ps(fx, kC2, x);
  const __m256 x2 = _mm256_mul_ps(x, x);
  __m256 y = kP0;
  y = _mm256_fmadd_ps(y, x, kP1);
  y = _mm256_fmadd_ps(y, x, kP2);
  y = _mm256_fmadd_ps(y, x, kP3);
  y = _mm256_fmadd_ps(y, x, kP4);
  y = _mm256_fmadd_ps(y, x, kP5);
  y = _mm256_fmadd_ps(y, x2, _mm256_add_ps(x, one));
  // * 2^n.
  const __m256i n = _mm256_cvttps_epi32(fx);
  const __m256i pow2n =
      _mm256_slli_epi32(_mm256_add_epi32(n, _mm256_set1_epi32(0x7f)), 23);
  return _mm256_mul_ps(y, _mm256_castsi256_ps(pow2n));
}

/// Sign-split sigmoid mirroring StableSigmoid's structure: one exp of
/// -|x| (never overflows), then 1/(1+t) or t/(1+t) by sign. Exp256's
/// clamp (max/min return the non-NaN operand) would turn a NaN lane
/// finite, so NaN lanes of x are blended back into the result: a NaN
/// logit stays NaN, as at the reference tier.
inline __m256 Sigmoid256(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 zero = _mm256_setzero_ps();
  // min(x, -x) == -|x|.
  const __m256 t = Exp256(_mm256_min_ps(x, _mm256_sub_ps(zero, x)));
  const __m256 denom = _mm256_add_ps(one, t);
  const __m256 pos = _mm256_div_ps(one, denom);
  const __m256 neg = _mm256_div_ps(t, denom);
  const __m256 y =
      _mm256_blendv_ps(neg, pos, _mm256_cmp_ps(x, zero, _CMP_GE_OQ));
  return _mm256_blendv_ps(y, x, _mm256_cmp_ps(x, x, _CMP_UNORD_Q));
}

void SigmoidSpanFast(const float* x, float* out, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, Sigmoid256(_mm256_loadu_ps(x + i)));
  }
  if (i < n) {
    // Padded staging so tail elements run the SAME vector polynomial
    // as interior ones — a logit's probability must not depend on its
    // position in the micro-batch.
    alignas(32) float tmp[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    std::memcpy(tmp, x + i, static_cast<size_t>(n - i) * sizeof(float));
    _mm256_store_ps(tmp, Sigmoid256(_mm256_load_ps(tmp)));
    std::memcpy(out + i, tmp, static_cast<size_t>(n - i) * sizeof(float));
  }
}

constexpr KernelDispatchTable kFastTable = {
    /*name=*/"avx2-fma",
    /*bitwise_reference=*/false,
    /*matmul_nn=*/MatMulNNFast,
    /*matmul_tn=*/MatMulTNFast,
    /*matmul_nt=*/MatMulNTFast,
    /*add_bias=*/AddBiasFast,
    /*relu=*/ReluFast,
    /*sigmoid_span=*/SigmoidSpanFast,
};

}  // namespace

const KernelDispatchTable* FastKernelTableOrNull() { return &kFastTable; }

}  // namespace awmoe

#else  // !(__AVX2__ && __FMA__)

namespace awmoe {

// Built without the AVX2/FMA flags (non-x86 target or unsupported
// compiler): the fast tier simply does not exist and dispatch stays on
// the reference tier.
const KernelDispatchTable* FastKernelTableOrNull() { return nullptr; }

}  // namespace awmoe

#endif
