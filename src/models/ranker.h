#ifndef AWMOE_MODELS_RANKER_H_
#define AWMOE_MODELS_RANKER_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "autograd/variable.h"
#include "data/example.h"
#include "nn/inference.h"

namespace awmoe {

/// Read-only view of precomputed per-session gate activations handed to
/// Score (§III-F behind the API): `data` is row-major [rows, width].
/// `rows` is either the batch size (one row per candidate, typically
/// replicated from cached per-session rows by the serving engine) or 1,
/// in which case the single row is broadcast to every candidate. Only
/// models whose Traits declare a non-zero gate_width accept one.
struct SessionGate {
  const float* data = nullptr;
  int64_t rows = 0;
  int64_t width = 0;
};

/// Read-only view of a precomputed candidate-independent session
/// encoding (the session feature store's payload): the behaviour-
/// sequence tower outputs (§III-C attention inputs) — or, for sum-pool
/// models, the pooled user vector — plus the query embedding in search
/// mode, laid out row-major [rows, Traits().encoding_width]. `rows` is
/// the batch size (one row per candidate, replicated from the cached
/// per-session row by the serving engine) or 1 for broadcast. Produced
/// by EncodeSessionInto, consumed by Score; the layout is a
/// model-private contract between those two methods.
struct SessionEncoding {
  const float* data = nullptr;
  int64_t rows = 0;
  int64_t width = 0;
};

/// One call to Ranker::Score: the batch, the lane workspace and the
/// output span (one logit per batch row), plus three optional inputs.
/// Build it with designated initialisers and leave the inputs a model
/// does not take at their defaults.
struct ScoreCall {
  const Batch& batch;
  InferenceWorkspace* workspace = nullptr;
  std::span<float> out = {};
  /// Precomputed gate rows (§III-F); null runs the model's own gate.
  const SessionGate* gate = nullptr;
  /// Precomputed session encoding; null runs the fused forward.
  const SessionEncoding* encoding = nullptr;
  /// Slate boundaries for a slate-scoring model: slate_starts[0] == 0,
  /// ascending, slate i spanning [slate_starts[i], slate_starts[i+1])
  /// with the last ending at batch.size. Empty falls back to
  /// batch.slate_starts, then to the batch's session-id runs.
  std::span<const int64_t> slate_starts = {};
};

/// What the serving engine may reuse from a model, and whether the
/// model scores slates jointly. Returned by Ranker::Traits and stamped
/// once per published ModelSnapshot.
struct ServingTraits {
  /// Floats per session-gate row (the number of experts the gate
  /// weighs); 0 when the model has no gate it can take precomputed.
  int64_t gate_width = 0;
  /// True when the gate reads only session-constant inputs (behaviour
  /// sequence + query) under the meta, so one gate row serves every
  /// candidate of a session (§III-F).
  bool share_gate = false;
  /// Floats per session-encoding row; 0 when the model has no split
  /// EncodeSessionInto / Score(encoding) path.
  int64_t encoding_width = 0;
  /// True when the candidate-independent half of the forward is the
  /// same for every candidate of a session under the meta, so one
  /// encoding can be cached across requests.
  bool share_encoding = false;
  /// Hard cap on one slate's length (the position-embedding table
  /// size); > 0 exactly for slate-scoring models. Such a model's logits
  /// depend on the other rows of their slate, so the serving engine
  /// keeps each request's rows atomic within one forward, bypasses the
  /// level-1 score cache, and rejects longer requests at admission; the
  /// training batcher splits longer sessions into sub-slates.
  int64_t max_slate_items = 0;

  bool slate_scoring() const { return max_slate_items > 0; }
};

/// Common interface of every ranking model in the repo. Implementations
/// return *logits*; apply a sigmoid for the predicted CTR/CVR (Eq. 1 trains
/// on the fused logits form for stability).
class Ranker {
 public:
  virtual ~Ranker() = default;

  /// Ranking logits [B, 1] for a batch. Builds an autograd graph unless a
  /// NoGradGuard is active. Under one it is the graph reference the
  /// Score regression tests compare against bitwise: a pointwise ranker
  /// runs one forward body on both executors (nn/exec.h). The batch may
  /// micro-batch candidates from several sessions; implementations must
  /// keep per-row results independent of batch composition (row-wise
  /// kernels, fixed sequence padding), which is what lets the serving
  /// engine fuse sessions without changing scores.
  virtual Var ForwardLogits(const Batch& batch) = 0;

  /// All trainable parameters.
  virtual std::vector<Var> Parameters() const = 0;

  /// Display name ("DNN", "DIN", "Category-MoE", "AW-MoE", ...).
  virtual std::string name() const = 0;

  /// The gate network's user representation g (Eq. 6-8) for models that
  /// have one; undefined Var otherwise. Used by the contrastive loss and
  /// the Fig. 7 visualisation.
  virtual Var GateRepresentation(const Batch& batch) {
    (void)batch;
    return Var();
  }

  // --- The workspace-based inference API (the serving hot path). ---

  /// Preallocates everything one execution lane needs to score
  /// micro-batches of up to `max_batch_candidates` rows: activation
  /// arena, padded staging buffers, gate scratch. The workspace is
  /// opaque to callers and NOT thread-safe — each ModelPool replica
  /// lane owns its own, serialised by the lane lock.
  std::unique_ptr<InferenceWorkspace> CreateInferenceWorkspace(
      int64_t max_batch_candidates) const {
    return std::make_unique<InferenceWorkspace>(max_batch_candidates);
  }

  /// The one scoring entry point: writes one logit per batch row into
  /// `call.out` with zero steady-state heap allocation — no autograd
  /// graph, no Matrix temporaries; every intermediate lives in the
  /// workspace, which only ever grows. `call.out.size()` must be >=
  /// batch.size and batch.size must not exceed the workspace's
  /// max_batch_candidates.
  ///
  /// The optional inputs, each CHECK-failing on a model whose Traits do
  /// not declare it:
  ///  - `gate` (gate_width > 0): precomputed gate activations; the model
  ///    skips its gate network.
  ///  - `encoding` (encoding_width > 0): the candidate-independent
  ///    session encoding from EncodeSessionInto; only the
  ///    candidate-dependent tail runs. EncodeSessionInto + Score with
  ///    the encoding == Score without it == ForwardLogits, bitwise
  ///    (regression-tested).
  ///  - `slate_starts` (max_slate_items > 0): slate boundaries.
  ///    Attention runs strictly within each slate, so a slate's scores
  ///    do not depend on which other slates share the micro-batch
  ///    (regression-tested).
  virtual void Score(const ScoreCall& call) = 0;

  /// The model's serving capabilities under `meta`. The widths and
  /// max_slate_items do not depend on `meta`; only the two share_* bits
  /// read it (a gate reading the target item is not session-constant in
  /// recommendation mode). The serving engine stamps this once per
  /// published snapshot — no downcasts.
  virtual ServingTraits Traits(const DatasetMeta& meta) const = 0;

  /// Writes the gate activations of every batch row into `out`
  /// (row-major [batch.size, gate_width]), graph- and allocation-free.
  /// The engine probes one row per session and caches it; rows for a
  /// session-constant gate are identical across the session's
  /// candidates. CHECK-fails when gate_width == 0.
  virtual void GateInto(const Batch& batch, InferenceWorkspace* workspace,
                        std::span<float> out);

  /// Writes the candidate-independent session encoding of every batch
  /// row into `out` (row-major [batch.size, encoding_width]), graph-
  /// and allocation-free. Rows of one session are identical when
  /// share_encoding holds, so the engine probes one row per session and
  /// caches it. CHECK-fails when encoding_width == 0.
  virtual void EncodeSessionInto(const Batch& batch,
                                 InferenceWorkspace* workspace,
                                 std::span<float> out);

  /// Deep copy: a new model with identical weights in disjoint storage,
  /// so the copy can run forwards concurrently with (and be retired
  /// independently of) the original. This is what lets the serving
  /// ModelPool materialise a replica set from one loaded ranker.
  /// Implementations must guarantee bitwise-identical ForwardLogits and
  /// Score; models without clone support return nullptr (the pool then
  /// serves them single-replica).
  virtual std::unique_ptr<Ranker> Clone() const { return nullptr; }

  /// Total scalar parameter count.
  int64_t NumParameters() const {
    int64_t total = 0;
    for (const Var& p : Parameters()) total += p.value().size();
    return total;
  }

  /// Clears all parameter gradients.
  void ZeroGrad() {
    for (Var& p : Parameters()) p.ZeroGrad();
  }

  // --- Former scoring and capability names, kept only as non-virtual
  // forwarders for the benchmark harness in perfbench/src, which
  // changes only together with the benchmark. New code calls Score and
  // Traits. The widths and the slate bit do not read the meta, so the
  // meta-less forwarders pass a default one. ---

  void ScoreInto(const Batch& batch, const SessionGate* gate,
                 InferenceWorkspace* workspace, std::span<float> out) {
    Score({.batch = batch, .workspace = workspace, .out = out, .gate = gate});
  }
  void ScoreWithSessionInto(const Batch& batch, const SessionGate* gate,
                            const SessionEncoding* encoding,
                            InferenceWorkspace* workspace,
                            std::span<float> out) {
    Score({.batch = batch,
           .workspace = workspace,
           .out = out,
           .gate = gate,
           .encoding = encoding});
  }
  void ScoreSlateInto(const Batch& batch,
                      std::span<const int64_t> slate_starts,
                      InferenceWorkspace* workspace, std::span<float> out) {
    Score({.batch = batch,
           .workspace = workspace,
           .out = out,
           .slate_starts = slate_starts});
  }
  bool SupportsSlateScoring() const {
    return Traits(DatasetMeta{}).slate_scoring();
  }
  bool SupportsSessionGateReuse(const DatasetMeta& meta) const {
    return Traits(meta).share_gate;
  }
  bool SupportsSessionEncodingReuse(const DatasetMeta& meta) const {
    return Traits(meta).share_encoding;
  }
  int64_t SessionGateWidth() const { return Traits(DatasetMeta{}).gate_width; }
  int64_t SessionEncodingWidth() const {
    return Traits(DatasetMeta{}).encoding_width;
  }
};

/// CHECK-validates a ScoreCall against `model`: the CheckScoreIntoArgs
/// preconditions, plus no gate, encoding or slate starts that the
/// model's Traits do not declare. Every Score implementation opens with
/// it.
void CheckScoreCall(const Ranker& model, const ScoreCall& call);

/// CHECK-validates the shared Score / GateInto / EncodeSessionInto
/// preconditions: non-null workspace sized for the batch, and an output
/// span with at least one slot per batch row.
void CheckScoreIntoArgs(const Batch& batch,
                        const InferenceWorkspace* workspace,
                        size_t out_size);

/// The GateInto / EncodeSessionInto prologue: CHECKs the
/// CheckScoreIntoArgs preconditions and room for [batch.size, width]
/// in `out`, resets the workspace arena, and returns `out` as that
/// row-major view.
MatView SessionRowsOut(const Batch& batch, InferenceWorkspace* workspace,
                       std::span<float> out, int64_t width);

/// Validates a SessionGate against the batch and the model's gate width
/// and returns it as a [batch_size, width] read view (a 1-row gate
/// broadcasts via stride 0). Shared by every gate-reusing ranker's
/// Score.
ConstMatView ResolveSessionGate(const SessionGate& gate, int64_t batch_size,
                                int64_t width);

/// SessionEncoding twin of ResolveSessionGate: validates against the
/// batch and the model's encoding width and returns a
/// [batch_size, width] read view (1-row encodings broadcast via
/// stride 0).
ConstMatView ResolveSessionEncoding(const SessionEncoding& encoding,
                                    int64_t batch_size, int64_t width);

/// Copies every parameter matrix of `src` into `dst` (the Clone()
/// work-horse: implementations rebuild an identically-dimensioned model
/// and then call this). CHECK-fails on parameter count or shape
/// mismatch. Relies on `Parameters()` returning a construction-order,
/// deterministic sequence, which every ranker in the repo does.
void CopyParametersInto(const Ranker& src, Ranker* dst);

}  // namespace awmoe

#endif  // AWMOE_MODELS_RANKER_H_
