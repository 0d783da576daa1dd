#ifndef AWMOE_MAT_KERNELS_H_
#define AWMOE_MAT_KERNELS_H_

#include <cstdint>
#include <vector>

#include "mat/kernel_tier.h"
#include "mat/matrix.h"

namespace awmoe {

// Dense kernels over Matrix. All functions shape-check their inputs with
// AWMOE_CHECK (shape bugs are programmer errors, not recoverable states).
// Kernels return results by value; gradient-accumulation variants mutate in
// place and end in `InPlace`.
//
// The elementwise, broadcast and layout ops the AW-MoE forward is built
// from have ONE implementation: the view kernels at the end of this
// file, which Score runs over arena views (nn/inference.h, nn/exec.h).
// The Matrix forms of those ops (Add, Mul, AddInPlace, ScaleInPlace,
// AddRowBroadcast, Relu, MulColBroadcast, DotRows, SoftmaxRows,
// GatherRows, ConcatCols, SliceCols, TopKMaskRows) shape-check,
// allocate and call them, so training and serving run the same
// per-element arithmetic by construction.

// ---------------------------------------------------------------------------
// GEMM family. Each call shape-checks, allocates the result and runs
// the matching row (NN / TN / NT) of the active kernel tier
// (mat/kernel_tier.h), serially: the fast tier is epsilon-close to the
// reference tier, and ScopedKernelTier(kReference) or
// AWMOE_FORCE_SCALAR gives the bitwise scalar results.
// ---------------------------------------------------------------------------

/// C = A[m,k] * B[k,n].
Matrix MatMul(const Matrix& a, const Matrix& b);

/// C = A^T * B where A is [k,m], B is [k,n]; result [m,n]. Avoids forming
/// the transpose (used for weight gradients dW = X^T dY).
Matrix MatMulTransA(const Matrix& a, const Matrix& b);

/// C = A * B^T where A is [m,k], B is [n,k]; result [m,n]. Avoids forming
/// the transpose (used for input gradients dX = dY W^T).
Matrix MatMulTransB(const Matrix& a, const Matrix& b);

/// A^T.
Matrix Transpose(const Matrix& a);

// ---------------------------------------------------------------------------
// Elementwise.
// ---------------------------------------------------------------------------

Matrix Add(const Matrix& a, const Matrix& b);
Matrix Sub(const Matrix& a, const Matrix& b);
Matrix Mul(const Matrix& a, const Matrix& b);

/// a += b.
void AddInPlace(Matrix* a, const Matrix& b);
/// a *= s.
void ScaleInPlace(Matrix* a, float s);

Matrix AddScalar(const Matrix& a, float s);
Matrix MulScalar(const Matrix& a, float s);

Matrix Relu(const Matrix& a);
/// Gradient of ReLU, in place: grad where input > 0, else 0.
void ReluBackwardInPlace(Matrix* grad, const Matrix& input);

/// Numerically stable logistic sigmoid.
Matrix Sigmoid(const Matrix& a);
Matrix Tanh(const Matrix& a);
Matrix Neg(const Matrix& a);

// ---------------------------------------------------------------------------
// Broadcasting.
// ---------------------------------------------------------------------------

/// A[m,n] + b[1,n] broadcast over rows (bias add).
Matrix AddRowBroadcast(const Matrix& a, const Matrix& b);

/// A[m,n] * w[m,1]: scales row i of A by w(i,0).
Matrix MulColBroadcast(const Matrix& a, const Matrix& w);

/// Tiles column vector col[m,1] across `cols` columns: result [m, cols].
Matrix BroadcastCol(const Matrix& col, int64_t cols);

// ---------------------------------------------------------------------------
// Reductions.
// ---------------------------------------------------------------------------

/// Column sums: [1,n].
Matrix ColSum(const Matrix& a);
/// Row sums: [m,1].
Matrix RowSum(const Matrix& a);
double SumAll(const Matrix& a);
double MeanAll(const Matrix& a);
/// Frobenius norm.
double Norm(const Matrix& a);

/// Rowwise dot product of equally shaped A, B: [m,1].
Matrix DotRows(const Matrix& a, const Matrix& b);

/// Row-wise softmax.
Matrix SoftmaxRows(const Matrix& a);

/// Row-wise softmax restricted to the columns where mask(r,c) != 0; masked
/// columns get exact 0.0f. The arithmetic over the included columns (in
/// ascending column order) is identical to SoftmaxRows, so a row whose
/// included columns form a contiguous block is bitwise-equal to running
/// SoftmaxRows on that block alone. Every row must include >= 1 column.
Matrix MaskedSoftmaxRows(const Matrix& a, const Matrix& mask);

/// Row-wise log-sum-exp: [m,1], numerically stable.
Matrix LogSumExpRows(const Matrix& a);

// ---------------------------------------------------------------------------
// Indexing / layout.
// ---------------------------------------------------------------------------

/// Stacks rows `a.row(idx[i])` into a new [idx.size, n] matrix. Indices may
/// repeat; each must be in [0, a.rows()).
Matrix GatherRows(const Matrix& a, const std::vector<int64_t>& indices);

/// target->row(indices[i]) += rows.row(i) for all i (duplicate indices
/// accumulate). Used for embedding gradients.
void ScatterAddRows(Matrix* target, const std::vector<int64_t>& indices,
                    const Matrix& rows);

/// Horizontal concatenation; all parts must have equal row counts.
Matrix ConcatCols(const std::vector<const Matrix*>& parts);

/// Columns [begin, end) of A.
Matrix SliceCols(const Matrix& a, int64_t begin, int64_t end);

/// Per row, 1.0 at the k largest entries and 0.0 elsewhere (ties broken by
/// lower column index). k must be in [1, cols].
Matrix TopKMaskRows(const Matrix& a, int64_t k);

/// True if all elements of a and b are within `tol` of each other
/// (and shapes match).
bool AllClose(const Matrix& a, const Matrix& b, float tol);

// ---------------------------------------------------------------------------
// View kernels: write into caller-provided views (MatView / ConstMatView,
// mat/kernel_tier.h) and never allocate. AddBiasInPlace and ReluInPlace
// dispatch through the active tier's add_bias / relu rows, which are
// bitwise equal at both tiers; the rest are plain scalar loops.
// ---------------------------------------------------------------------------

/// out = src (element copy).
void CopyInto(const ConstMatView& src, MatView out);

/// a[m,n] += bias[1,n] broadcast over rows.
void AddBiasInPlace(MatView a, const Matrix& bias);

/// a = max(a, 0) elementwise (-0.0 and NaN become +0.0).
void ReluInPlace(MatView a);

/// out = a * b elementwise (same shape; out may alias a or b).
void MulInto(const ConstMatView& a, const ConstMatView& b, MatView out);

/// out[B, 3d] = [a | b | a*b] — the "product path" input layout shared
/// by the activation unit (Fig. 4a) and the gate unit (Fig. 4c). One
/// definition so the layout cannot drift between the two.
void ConcatInteractionInto(const ConstMatView& a, const ConstMatView& b,
                           MatView out);

/// a += b elementwise (same shape).
void AddInPlace(MatView a, const ConstMatView& b);

/// out[r][c] = a[r][c] * w[r][0].
void MulColBroadcastInto(const ConstMatView& a, const ConstMatView& w,
                         MatView out);

/// out[r][0] = dot(a.row(r), b.row(r)), summed in ascending column order.
void DotRowsInto(const ConstMatView& a, const ConstMatView& b, MatView out);

/// Row-wise softmax in place: max-subtracted, exp, then divided by the
/// ascending-order sum.
void SoftmaxRowsInPlace(MatView a);

/// a *= s elementwise.
void ScaleInPlace(MatView a, float s);

/// Per row, mask = 1.0 at the k largest entries of `a` and 0.0 elsewhere,
/// ties broken by lower column index: entry c is kept iff fewer than k
/// entries rank strictly ahead of it. k must be in [1, cols]; `mask` has
/// a's shape and must not alias it.
void TopKMaskRowsInto(const ConstMatView& a, int64_t k, MatView mask);

/// out.row(i) = table.row(ids[i]).
void GatherRowsInto(const Matrix& table, const int64_t* ids, int64_t count,
                    MatView out);

}  // namespace awmoe

#endif  // AWMOE_MAT_KERNELS_H_
