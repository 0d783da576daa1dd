#include "models/listwise/listwise_reranker.h"

#include <cmath>
#include <utility>

#include "autograd/ops.h"
#include "nn/init.h"
#include "util/check.h"

namespace awmoe {

namespace {

/// End of slate `s` given the starts and the batch size.
int64_t SlateEnd(std::span<const int64_t> starts, size_t s, int64_t size) {
  return s + 1 < starts.size() ? starts[s + 1] : size;
}

void CheckSlateStarts(std::span<const int64_t> starts, int64_t batch_size,
                      int64_t max_slate_len) {
  AWMOE_CHECK(!starts.empty() && starts[0] == 0)
      << "slate_starts must begin at row 0";
  for (size_t s = 0; s < starts.size(); ++s) {
    if (s > 0) {
      AWMOE_CHECK(starts[s] > starts[s - 1] && starts[s] < batch_size)
          << "slate_starts must be ascending and < batch size; got "
          << starts[s];
    }
    const int64_t len = SlateEnd(starts, s, batch_size) - starts[s];
    AWMOE_CHECK(len <= max_slate_len)
        << "slate of " << len << " rows exceeds max_slate_len "
        << max_slate_len;
  }
}

}  // namespace

void SlateStartsFromBatch(const Batch& batch, std::vector<int64_t>* starts) {
  starts->clear();
  for (int64_t r = 0; r < batch.size; ++r) {
    if (r == 0 || batch.session_ids[r] != batch.session_ids[r - 1]) {
      starts->push_back(r);
    }
  }
}

ListwiseReranker::ListwiseReranker(const DatasetMeta& meta,
                                   const ModelDims& dims,
                                   const ListwiseDims& ldims, Rng* rng)
    : meta_(meta),
      dims_(dims),
      ldims_(ldims),
      embeddings_(meta, dims.emb_dim, rng),
      input_network_(meta, dims, &embeddings_, UserPooling::kSumPool, rng),
      proj_(input_network_.output_dim(), ldims.d_model, rng),
      pos_table_(NormalInit(ldims.max_slate_len, ldims.d_model, 0.1f, rng),
                 /*requires_grad=*/true),
      head_(ldims.d_model, WithOutput(ldims.head_hidden, 1), rng) {
  AWMOE_CHECK(ldims_.d_model > 0 && ldims_.num_heads > 0 &&
              ldims_.d_model % ldims_.num_heads == 0)
      << "ListwiseReranker: d_model " << ldims_.d_model
      << " must be divisible by num_heads " << ldims_.num_heads;
  AWMOE_CHECK(ldims_.num_layers >= 1)
      << "ListwiseReranker: num_layers " << ldims_.num_layers;
  AWMOE_CHECK(ldims_.max_slate_len >= 1)
      << "ListwiseReranker: max_slate_len " << ldims_.max_slate_len;
  const int64_t d = ldims_.d_model;
  layers_.reserve(static_cast<size_t>(ldims_.num_layers));
  for (int64_t l = 0; l < ldims_.num_layers; ++l) {
    layers_.push_back(EncoderLayer{
        Linear(d, d, rng), Linear(d, d, rng), Linear(d, d, rng),
        Linear(d, d, rng), Mlp(d, WithOutput(ldims_.ffn_hidden, d), rng)});
  }
}

Var ListwiseReranker::ForwardLogits(const Batch& batch) {
  AWMOE_CHECK(batch.size > 0) << "ForwardLogits on empty batch";
  // Slate identity: the batch's explicit group boundaries when the
  // producer tracked them (the grouping BatchIterator sets them, with
  // oversized sessions pre-split to the slate cap), else derived from
  // contiguous session-id runs.
  std::vector<int64_t> derived;
  if (batch.slate_starts.empty()) SlateStartsFromBatch(batch, &derived);
  const std::vector<int64_t>& starts =
      batch.slate_starts.empty() ? derived : batch.slate_starts;
  CheckSlateStarts(starts, batch.size, ldims_.max_slate_len);

  // Per-row slate rank + the block-diagonal attention mask (exact 0/1;
  // the masked softmax writes exact zeros off-block, so the graph's
  // full-batch attention matches the workspace's per-slate blocks
  // bitwise — the zero-skipping MatMul never touches off-block terms).
  std::vector<int64_t> positions(static_cast<size_t>(batch.size));
  Matrix mask(batch.size, batch.size);
  for (size_t s = 0; s < starts.size(); ++s) {
    const int64_t begin = starts[s];
    const int64_t end = SlateEnd(starts, s, batch.size);
    for (int64_t r = begin; r < end; ++r) {
      positions[static_cast<size_t>(r)] = r - begin;
      float* mrow = mask.row(r);
      for (int64_t c = begin; c < end; ++c) mrow[c] = 1.0f;
    }
  }

  Var x = proj_.Forward(input_network_.Forward(batch));
  x = ag::Add(x, ag::GatherRows(pos_table_, positions));

  const int64_t dh = head_dim();
  const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(dh));
  for (const EncoderLayer& layer : layers_) {
    Var q = layer.wq.Forward(x);
    Var k = layer.wk.Forward(x);
    Var v = layer.wv.Forward(x);
    std::vector<Var> heads;
    heads.reserve(static_cast<size_t>(ldims_.num_heads));
    for (int64_t h = 0; h < ldims_.num_heads; ++h) {
      Var qh = ag::SliceCols(q, h * dh, (h + 1) * dh);
      Var kh = ag::SliceCols(k, h * dh, (h + 1) * dh);
      Var vh = ag::SliceCols(v, h * dh, (h + 1) * dh);
      Var scores = ag::Scale(ag::MatMulNT(qh, kh), inv_sqrt);
      Var probs = ag::MaskedSoftmaxRows(scores, mask);
      heads.push_back(ag::MatMul(probs, vh));
    }
    Var ctx = ldims_.num_heads == 1 ? heads[0] : ag::ConcatCols(heads);
    x = ag::Add(layer.wo.Forward(ctx), x);
    x = ag::Add(layer.ffn.Forward(x), x);
  }
  return head_.Forward(x);
}

void ListwiseReranker::Score(const ScoreCall& call) {
  CheckScoreCall(*this, call);
  const Batch& batch = call.batch;
  std::span<const int64_t> slate_starts = call.slate_starts;
  if (slate_starts.empty()) slate_starts = batch.slate_starts;
  if (slate_starts.empty()) {
    // Reused across calls (thread-local: workspaces are lane-serialised
    // but one model may score on several lanes at once), so the steady
    // state stays allocation-free.
    static thread_local std::vector<int64_t> derived;
    SlateStartsFromBatch(batch, &derived);
    slate_starts = derived;
  }
  CheckSlateStarts(slate_starts, batch.size, ldims_.max_slate_len);

  InferenceArena* arena = call.workspace->arena();
  arena->Reset();
  const int64_t B = batch.size;
  const int64_t d = ldims_.d_model;
  const int64_t dh = head_dim();
  const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(dh));

  const ArenaExec exec(arena);
  MatView enc = arena->Alloc(B, input_network_.output_dim());
  input_network_.Run(exec, batch, /*encoding=*/nullptr, enc);
  MatView x = arena->Alloc(B, d);
  proj_.Run(exec, enc, x);

  // + position rows (slate rank): same elementwise add as the graph's
  // Add(x, GatherRows(pos_table, positions)), block by block.
  const Matrix& pos = pos_table_.value();
  for (size_t s = 0; s < slate_starts.size(); ++s) {
    const int64_t begin = slate_starts[s];
    const int64_t len = SlateEnd(slate_starts, s, B) - begin;
    AddInPlace(MatView{x.row(begin), len, d, x.stride},
               ConstMatView(pos.data(), len, d, pos.cols()));
  }

  for (const EncoderLayer& layer : layers_) {
    MatView q = arena->Alloc(B, d);
    MatView k = arena->Alloc(B, d);
    MatView v = arena->Alloc(B, d);
    MatView ctx = arena->Alloc(B, d);
    layer.wq.Run(exec, x, q);
    layer.wk.Run(exec, x, k);
    layer.wv.Run(exec, x, v);
    // The slate-local attention core. Strictly scalar kernels in exactly
    // the graph path's arithmetic order — see the class comment for why
    // this is the bitwise + composition-independence linchpin.
    for (size_t s = 0; s < slate_starts.size(); ++s) {
      const int64_t begin = slate_starts[s];
      const int64_t len = SlateEnd(slate_starts, s, B) - begin;
      for (int64_t h = 0; h < ldims_.num_heads; ++h) {
        const InferenceArena::Marker mark = arena->Mark();
        MatView scores = arena->Alloc(len, len);
        const ConstMatView qb(q.row(begin) + h * dh, len, dh, q.stride);
        const ConstMatView kb(k.row(begin) + h * dh, len, dh, k.stride);
        const ConstMatView vb(v.row(begin) + h * dh, len, dh, v.stride);
        MatMulNTViewInto(qb, kb, scores);
        ScaleInPlace(scores, inv_sqrt);
        SoftmaxRowsInPlace(scores);
        MatMulViewInto(scores, vb,
                       MatView{ctx.row(begin) + h * dh, len, dh, ctx.stride});
        arena->Rewind(mark);
      }
    }
    MatView attn = arena->Alloc(B, d);
    layer.wo.Run(exec, ctx, attn);
    AddInPlace(attn, x);  // Residual: attn + x, operand order as the graph.
    x = attn;
    MatView ffn_out = arena->Alloc(B, d);
    layer.ffn.Run(exec, x, ffn_out);
    AddInPlace(ffn_out, x);
    x = ffn_out;
  }
  head_.Run(exec, x, MatView{call.out.data(), B, 1, 1});
}

ServingTraits ListwiseReranker::Traits(const DatasetMeta& meta) const {
  (void)meta;
  return {.max_slate_items = ldims_.max_slate_len};
}

std::unique_ptr<Ranker> ListwiseReranker::Clone() const {
  Rng rng(1);
  auto clone =
      std::make_unique<ListwiseReranker>(meta_, dims_, ldims_, &rng);
  CopyParametersInto(*this, clone.get());
  return clone;
}

std::vector<Var> ListwiseReranker::Parameters() const {
  std::vector<Var> params;
  embeddings_.CollectParameters(&params);
  input_network_.CollectParameters(&params);
  proj_.CollectParameters(&params);
  params.push_back(pos_table_);
  for (const EncoderLayer& layer : layers_) {
    layer.wq.CollectParameters(&params);
    layer.wk.CollectParameters(&params);
    layer.wv.CollectParameters(&params);
    layer.wo.CollectParameters(&params);
    layer.ffn.CollectParameters(&params);
  }
  head_.CollectParameters(&params);
  return params;
}

}  // namespace awmoe
