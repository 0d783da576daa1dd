#ifndef AWMOE_NN_INFERENCE_H_
#define AWMOE_NN_INFERENCE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "mat/kernel_tier.h"
#include "mat/matrix.h"

namespace awmoe {

// The allocation-free inference substrate behind Ranker::Score.
//
// The training path builds an autograd graph: every op heap-allocates a
// node, a value matrix and (lazily) a gradient. The serving hot path
// needs none of that — shapes are fixed per model and bounded by the
// micro-batch cap, so every intermediate can live in a reusable arena
// owned by an InferenceWorkspace, and every kernel can write into a
// caller-provided buffer.
//
// KERNEL TIERS: the hot kernels (MatMulInto, ReluInPlace,
// AddBiasInPlace, SigmoidSpanInto) dispatch through the process-global
// KernelDispatchTable of mat/kernel_tier.h. The same table carries the
// NN/TN/NT GEMM rows behind the mat MatMul family, so training (every
// autograd forward and backward product) runs on the active tier too.
//
//  - kReference — BITWISE CONTRACT: performs exactly the per-element
//    arithmetic, in exactly the accumulation order, of its
//    mat/kernels.cc counterpart at the reference tier. The
//    module-level InferInto methods materialise one buffer per op of
//    the original Var expression instead of fusing, so Score
//    reproduces the autograd forward bit for bit — regression-tested
//    in tests/models/inference_path_test.cc. AWMOE_FORCE_SCALAR pins
//    this tier, for serving and for bitwise reference training.
//  - kFast — EPSILON CONTRACT: AVX2/FMA register-blocked kernels
//    (src/nn/kernels_fast.cc), within an epsilon/ULP bound of the
//    reference tier (tests/models/kernel_tier_test.cc). Per-row /
//    per-element arithmetic is still independent of micro-batch
//    composition (the tail lanes run the SAME vector arithmetic through
//    masked lanes or a padded staging buffer), so a given row scores
//    bitwise-identically no matter how the serving engine fuses
//    sessions — the invariant the shard/rollout bitwise storm tests
//    rely on.
//
// MatView / ConstMatView, the tier table, tier resolution and
// ScopedKernelTier live in mat/kernel_tier.h (included here).

/// A 64-byte-aligned float buffer that only ever grows (no content
/// preservation across grows — it backs scratch slabs). Alignment is an
/// invariant the fast kernel tier depends on: every slab base (and,
/// with padded strides, every row) is legal for aligned AVX2/AVX-512
/// loads and stores.
class AlignedBuffer {
 public:
  static constexpr size_t kAlignment = 64;  // One cache line.
  static_assert(kAlignment % sizeof(float) == 0 &&
                    kAlignment >= alignof(float),
                "slab alignment must cover float lanes");

  AlignedBuffer() = default;
  ~AlignedBuffer() { Release(); }
  AlignedBuffer(AlignedBuffer&& other) noexcept
      : data_(other.data_), capacity_(other.capacity_) {
    other.data_ = nullptr;
    other.capacity_ = 0;
  }
  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept {
    if (this != &other) {
      Release();
      data_ = other.data_;
      capacity_ = other.capacity_;
      other.data_ = nullptr;
      other.capacity_ = 0;
    }
    return *this;
  }
  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;

  /// Grows capacity to at least `floats` (geometric, so repeated
  /// one-larger warmups do not thrash). Discards previous contents
  /// unless `preserve` is set, in which case the old floats are copied
  /// into the new buffer.
  void Reserve(size_t floats, bool preserve = false);

  float* data() const { return data_; }
  size_t capacity() const { return capacity_; }

 private:
  void Release();

  float* data_ = nullptr;
  size_t capacity_ = 0;  // In floats.
};

/// Bump allocator over persistent float slabs. Alloc() hands out the
/// next slab (grown in place when too small, so a warmed arena
/// allocates nothing); Reset() rewinds to the first slab for the next
/// forward. Mark()/Rewind() scope the per-sequence-position
/// temporaries of a behaviour loop so ten positions reuse one
/// iteration's buffers instead of ten — a mark taken before a slab
/// spill stays a plain slab index, so rewinding past later-materialised
/// slabs is safe and the slabs (and their grown capacities) are kept
/// for reuse.
///
/// ALIGNMENT INVARIANT: every slab base is 64-byte aligned and every
/// returned view's row stride is padded to a 64-byte multiple
/// (kAlignFloats), so view.row(r) is 64-byte aligned for all r. The
/// padding lanes are never read or written by kernels (all kernels
/// iterate c < cols), so the bitwise contract is unaffected.
class InferenceArena {
 public:
  static constexpr int64_t kAlignFloats =
      static_cast<int64_t>(AlignedBuffer::kAlignment / sizeof(float));

  MatView Alloc(int64_t rows, int64_t cols);
  void Reset() { next_ = 0; }
  size_t Mark() const { return next_; }
  void Rewind(size_t mark) {
    AWMOE_DCHECK(mark <= next_) << "Rewind past cursor";
    next_ = mark;
  }
  /// Slabs currently materialised (test introspection).
  size_t num_slabs() const { return slabs_.size(); }

 private:
  std::vector<AlignedBuffer> slabs_;
  size_t next_ = 0;
};

/// Preallocated per-lane state of the Score path: the activation
/// arena plus persistent staging buffers the serving engine uses for
/// gate rows (replicated per candidate) and gate-probe outputs. Created
/// by Ranker::CreateInferenceWorkspace, owned by whoever owns the lane
/// (each ModelPool replica lane holds its own, so lanes stay lock-free
/// against each other and cache-warm across micro-batches). Buffers
/// only ever grow: after one warm-up pass at a given batch size the
/// steady state performs zero heap allocations.
class InferenceWorkspace {
 public:
  /// kGateRows/kGateProbe stage shared gate rows; kSessionRows/
  /// kSessionProbe stage cached session encodings (feature store) the
  /// same way: probe outputs computed once per session, then replicated
  /// per candidate into the rows slot.
  enum StagingSlot {
    kGateRows = 0,
    kGateProbe = 1,
    kSessionRows = 2,
    kSessionProbe = 3,
    kNumSlots = 4,
  };

  explicit InferenceWorkspace(int64_t max_candidates)
      : max_candidates_(max_candidates) {
    AWMOE_CHECK(max_candidates > 0)
        << "InferenceWorkspace: max_candidates " << max_candidates;
  }

  int64_t max_candidates() const { return max_candidates_; }
  InferenceArena* arena() { return &arena_; }

  /// Persistent staging buffer for `slot`, grown to at least `n`
  /// floats. 64-byte aligned (AlignedBuffer), like the arena slabs, so
  /// staged gate rows are as legal for the fast kernel tier as any
  /// arena view. Growth preserves existing contents (matching the
  /// std::vector::resize semantics this buffer replaced).
  std::span<float> Staging(StagingSlot slot, int64_t n);

 private:
  int64_t max_candidates_;
  InferenceArena arena_;
  AlignedBuffer staging_[kNumSlots];
};

// ---------------------------------------------------------------------
// Row parallelism.
// ---------------------------------------------------------------------

/// Optional intra-batch row parallelism for MatMulInto: when `threads`
/// > 1, matmuls with enough rows split their row range over a
/// persistent worker pool. Because every row's arithmetic is
/// independent and position-invariant in BOTH tiers, the parallel
/// result is bitwise identical to the serial one at the same tier.
/// Default 0 (off); AWMOE_KERNEL_THREADS seeds it at tier resolution.
/// Like SetKernelTier, not synchronised against in-flight forwards.
void SetKernelRowParallelism(int threads);
int KernelRowParallelism();

// ---------------------------------------------------------------------
// Kernels. In the reference tier each mirrors the arithmetic of its
// mat/kernels.cc namesake; MatMulInto / AddBiasInPlace / ReluInPlace /
// SigmoidSpanInto dispatch through the active tier table.
// ---------------------------------------------------------------------

/// out = src (element copy).
void CopyInto(const ConstMatView& src, MatView out);

/// out = a[m,k] * w[k,n] through the active tier's NN row — the same
/// row kernels.cc MatMul runs, so at either tier a layer's workspace
/// output equals its autograd forward bitwise.
void MatMulInto(const ConstMatView& a, const Matrix& w, MatView out);

/// a[m,n] += bias[1,n] broadcast over rows (AddRowBroadcast, in place).
void AddBiasInPlace(MatView a, const Matrix& bias);

/// a = max(a, 0) elementwise.
void ReluInPlace(MatView a);

/// out = a * b elementwise (same shape).
void MulInto(const ConstMatView& a, const ConstMatView& b, MatView out);

/// out[B, 3d] = [a | b | a*b] — the "product path" input layout shared
/// by the activation unit (Fig. 4a) and the gate unit (Fig. 4c). One
/// definition so the layout cannot drift between the two.
void ConcatInteractionInto(const ConstMatView& a, const ConstMatView& b,
                           MatView out);

/// a += b elementwise (same shape).
void AddInPlace(MatView a, const ConstMatView& b);

/// out[r][c] = a[r][c] * w[r][0] (MulColBroadcast).
void MulColBroadcastInto(const ConstMatView& a, const ConstMatView& w,
                         MatView out);

/// out[r][0] = dot(a.row(r), b.row(r)) (DotRows).
void DotRowsInto(const ConstMatView& a, const ConstMatView& b, MatView out);

/// Row-wise softmax in place (max-subtracted, same order as
/// SoftmaxRows).
void SoftmaxRowsInPlace(MatView a);

/// out = a[m,k] * b[k,n] over views. Pinned to the reference tier's NN
/// row (NOT dispatched on the active tier) — the attention probs * V
/// product of the listwise reranker, whose slate core always runs the
/// scalar GEMMs so its serving scores do not depend on the tier.
void MatMulViewInto(const ConstMatView& a, const ConstMatView& b,
                    MatView out);

/// out = a[m,k] * b[n,k]^T over views (Q K^T). Pinned to the reference
/// tier's NT row, like MatMulViewInto.
void MatMulNTViewInto(const ConstMatView& a, const ConstMatView& b,
                      MatView out);

/// a *= s elementwise (same per-element arithmetic as MulScalar).
void ScaleInPlace(MatView a, float s);

/// Multiplies each row by its top-k mask: entries among the k largest
/// (ties broken by lower column index, matching TopKMaskRows) are
/// multiplied by 1, the rest by 0 — a multiply, not an assignment, so
/// signed zeros match MulMask(g, TopKMaskRows(g, k)) bitwise. Uses one
/// arena scratch row for the per-row decisions.
void TopKMulInPlace(MatView a, int64_t k, InferenceArena* arena);

/// out.row(i) = table.row(ids[i * id_stride]); the stride lets callers
/// gather one sequence position directly from the Batch's row-major
/// [size * seq_len] id layout without building an index vector.
void GatherRowsInto(const Matrix& table, const int64_t* ids, int64_t count,
                    int64_t id_stride, MatView out);

/// out[i] = sigmoid(x[i]) over contiguous spans (in-place allowed when
/// out.data() == x.data()). Dispatches through the active tier: the
/// reference tier applies StableSigmoid per element (bitwise equal to
/// Sigmoid(Matrix)); the fast tier runs a vectorised exp polynomial
/// whose per-element result is independent of the element's position
/// in the span.
void SigmoidSpanInto(std::span<const float> x, std::span<float> out);

}  // namespace awmoe

#endif  // AWMOE_NN_INFERENCE_H_
