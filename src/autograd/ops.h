#ifndef AWMOE_AUTOGRAD_OPS_H_
#define AWMOE_AUTOGRAD_OPS_H_

#include <cstdint>
#include <vector>

#include "autograd/variable.h"
#include "mat/matrix.h"

namespace awmoe {
namespace ag {

// Differentiable operations over Var. Shapes follow the mat/kernels.h
// conventions; every op checks shapes at call time. Ops named like their
// kernel counterparts live in namespace ag to avoid ambiguity.

/// C = A[m,k] * B[k,n].
Var MatMul(const Var& a, const Var& b);

/// C = A[m,k] * B[n,k]^T: attention score matrix Q K^T without forming
/// the transpose.
Var MatMulNT(const Var& a, const Var& b);

/// Elementwise a + b (same shape).
Var Add(const Var& a, const Var& b);

/// Elementwise a - b (same shape).
Var Sub(const Var& a, const Var& b);

/// Elementwise a * b (same shape).
Var Mul(const Var& a, const Var& b);

/// A[m,n] + bias[1,n] broadcast over rows.
Var AddBias(const Var& a, const Var& bias);

/// s * a.
Var Scale(const Var& a, float s);

/// a + s.
Var AddScalar(const Var& a, float s);

Var Relu(const Var& a);
Var Sigmoid(const Var& a);
Var Tanh(const Var& a);

/// Horizontal concatenation of parts (equal row counts).
Var ConcatCols(const std::vector<Var>& parts);

/// Columns [begin, end).
Var SliceCols(const Var& a, int64_t begin, int64_t end);

/// Gathers rows of `table` (e.g. an embedding table) at `indices`;
/// gradient scatter-adds back into the table.
Var GatherRows(const Var& table, const std::vector<int64_t>& indices);

/// A[m,n] * w[m,1] broadcast: scales row i by w(i,0). This is the
/// attention-weighted-sum building block (Eq. 3 / Eq. 8 of the paper).
Var MulColBroadcast(const Var& a, const Var& w);

/// A[m, c] -> [n, c]: row i of `a` is summed into row index[i], in
/// ascending i; the first row an output row receives is copied, so
/// each output row equals a chain of Add nodes bit for bit, and rows no
/// index names are +0. The gradient of row i is the output gradient's
/// row index[i]. Pools a behaviour stack into its examples.
Var ScatterSumRows(const Var& a, const std::vector<int64_t>& index,
                   int64_t n);

/// Rowwise dot product of equally shaped a, b: [m,1]. Used as the
/// similarity f(.) in the InfoNCE loss (Eq. 10).
Var DotRows(const Var& a, const Var& b);

/// Sum of all elements: [1,1].
Var SumAll(const Var& a);

/// Mean of all elements: [1,1].
Var MeanAll(const Var& a);

/// Row-wise softmax.
Var SoftmaxRows(const Var& a);

/// Row-wise softmax over the columns where mask(r,c) != 0 (constant,
/// non-differentiated); masked columns are exact 0.0f in both the value
/// and the gradient. With a block-diagonal mask this is slate-local
/// attention: each row's included block matches a per-block SoftmaxRows
/// bitwise (see mat/kernels.h MaskedSoftmaxRows).
Var MaskedSoftmaxRows(const Var& a, const Matrix& mask);

/// Row-wise log-sum-exp: [m,1].
Var LogSumExpRows(const Var& a);

/// Elementwise multiply by a constant (non-differentiated) mask.
Var MulMask(const Var& a, const Matrix& mask);

/// Mean binary cross-entropy over logits[m,1] against targets[m,1] in
/// {0,1}; numerically stable fused form. Returns a scalar.
Var BceWithLogitsLoss(const Var& logits, const Matrix& targets);

/// ListNet-style listwise softmax cross-entropy over logits[m,1].
/// `slate_starts` partitions the rows into contiguous slates
/// (slate_starts[0] == 0, ascending; slate i spans
/// [slate_starts[i], slate_starts[i+1]) with the last ending at m).
/// Per slate with at least one positive target: y = targets / sum(targets),
/// p = softmax(slate logits), L = -sum(y * log p). Slates with no positive
/// are skipped (no gradient). Returns the mean over counted slates as a
/// scalar (0 when no slate has a positive).
Var ListwiseSoftmaxCrossEntropy(const Var& logits, const Matrix& targets,
                                const std::vector<int64_t>& slate_starts);

/// InfoNCE contrastive loss (Eq. 10): anchor/positive are [B,D] user
/// representations; negatives[r] is the r-th [B,D] matrix of in-batch
/// negative representations. Similarity is the dot product; returns the
/// batch-mean scalar loss.
Var InfoNceLoss(const Var& anchor, const Var& positive,
                const std::vector<Var>& negatives);

}  // namespace ag
}  // namespace awmoe

#endif  // AWMOE_AUTOGRAD_OPS_H_
