#include "nn/inference.h"

#include <algorithm>
#include <cstring>
#include <new>
#include <vector>

namespace awmoe {

// ---------------------------------------------------------------------
// Aligned storage.
// ---------------------------------------------------------------------

void AlignedBuffer::Reserve(size_t floats, bool preserve) {
  if (floats <= capacity_) return;
  // Geometric growth, like std::vector, so a warmup that creeps up in
  // batch size does not reallocate per step.
  const size_t new_capacity = std::max(floats, capacity_ * 2);
  float* fresh = static_cast<float*>(::operator new(
      new_capacity * sizeof(float), std::align_val_t(kAlignment)));
  if (preserve && data_ != nullptr) {
    std::memcpy(fresh, data_, capacity_ * sizeof(float));
  }
  Release();
  data_ = fresh;
  capacity_ = new_capacity;
}

void AlignedBuffer::Release() {
  if (data_ != nullptr) {
    ::operator delete(data_, std::align_val_t(kAlignment));
  }
  data_ = nullptr;
  capacity_ = 0;
}

MatView InferenceArena::Alloc(int64_t rows, int64_t cols) {
  AWMOE_CHECK(rows >= 0 && cols >= 0)
      << "InferenceArena::Alloc " << rows << "x" << cols;
  // Row stride padded to the slab alignment so every row — not just the
  // slab base — is 64-byte aligned. Padding lanes are never touched by
  // kernels (they iterate c < cols).
  const int64_t stride = (cols + kAlignFloats - 1) / kAlignFloats *
                         kAlignFloats;
  const size_t needed = static_cast<size_t>(rows * stride);
  if (next_ == slabs_.size()) slabs_.emplace_back();
  AlignedBuffer& slab = slabs_[next_++];
  // Reserve never shrinks capacity, so a warmed slab serves any batch
  // up to the largest it has seen without touching the heap.
  if (slab.capacity() < needed) slab.Reserve(needed);
  AWMOE_DCHECK(reinterpret_cast<uintptr_t>(slab.data()) %
                   AlignedBuffer::kAlignment ==
               0)
      << "arena slab base lost its alignment";
  return MatView{slab.data(), rows, cols, stride};
}

std::span<StackRow> InferenceArena::AllocStackRows(int64_t n) {
  AWMOE_CHECK(n >= 0) << "InferenceArena::AllocStackRows " << n;
  if (next_rows_ == row_slabs_.size()) row_slabs_.emplace_back();
  std::vector<StackRow>& slab = row_slabs_[next_rows_++];
  // Only ever grows, like the float slabs.
  if (slab.size() < static_cast<size_t>(n)) {
    slab.resize(static_cast<size_t>(n));
  }
  return std::span<StackRow>(slab.data(), static_cast<size_t>(n));
}

size_t InferenceArena::capacity_bytes() const {
  size_t bytes = 0;
  for (const AlignedBuffer& slab : slabs_) {
    bytes += slab.capacity() * sizeof(float);
  }
  for (const std::vector<StackRow>& slab : row_slabs_) {
    bytes += slab.capacity() * sizeof(StackRow);
  }
  return bytes;
}

std::span<float> InferenceWorkspace::Staging(StagingSlot slot, int64_t n) {
  AWMOE_CHECK(n >= 0) << "Staging size " << n;
  AlignedBuffer& buffer = staging_[slot];
  if (buffer.capacity() < static_cast<size_t>(n)) {
    buffer.Reserve(static_cast<size_t>(n), /*preserve=*/true);
  }
  return std::span<float>(buffer.data(), static_cast<size_t>(n));
}

// ---------------------------------------------------------------------
// Public kernels. Shapes are validated here, then the GEMMs and the
// sigmoid jump through a tier table; the elementwise kernels they
// combine with are the mat/kernels.h view kernels.
// ---------------------------------------------------------------------

void MatMulInto(const ConstMatView& a, const Matrix& w, MatView out) {
  AWMOE_CHECK(a.cols == w.rows())
      << "MatMulInto: " << a.rows << "x" << a.cols << " * "
      << w.ShapeString();
  AWMOE_CHECK(out.rows == a.rows && out.cols == w.cols())
      << "MatMulInto: out " << out.rows << "x" << out.cols;
  ActiveKernels().matmul_nn(a, MatrixView(w), out);
}

void SigmoidSpanInto(std::span<const float> x, std::span<float> out) {
  AWMOE_CHECK(x.size() == out.size())
      << "SigmoidSpanInto: " << x.size() << " vs " << out.size();
  ActiveKernels().sigmoid_span(x.data(), out.data(),
                               static_cast<int64_t>(x.size()));
}

void MatMulViewInto(const ConstMatView& a, const ConstMatView& b,
                    MatView out) {
  AWMOE_CHECK(a.cols == b.rows)
      << "MatMulViewInto: " << a.rows << "x" << a.cols << " * " << b.rows
      << "x" << b.cols;
  AWMOE_CHECK(out.rows == a.rows && out.cols == b.cols)
      << "MatMulViewInto: out " << out.rows << "x" << out.cols;
  GetKernelTable(KernelTier::kReference).matmul_nn(a, b, out);
}

void MatMulNTViewInto(const ConstMatView& a, const ConstMatView& b,
                      MatView out) {
  AWMOE_CHECK(a.cols == b.cols)
      << "MatMulNTViewInto: " << a.rows << "x" << a.cols << " * " << b.rows
      << "x" << b.cols << "^T";
  AWMOE_CHECK(out.rows == a.rows && out.cols == b.rows)
      << "MatMulNTViewInto: out " << out.rows << "x" << out.cols;
  GetKernelTable(KernelTier::kReference).matmul_nt(a, b, out);
}

void TopKMulInPlace(MatView a, int64_t k, InferenceArena* arena) {
  const InferenceArena::Marker mark = arena->Mark();
  const MatView mask = arena->Alloc(a.rows, a.cols);
  TopKMaskRowsInto(a, k, mask);
  MulInto(a, mask, a);
  arena->Rewind(mark);
}

}  // namespace awmoe
