#include "models/dnn_ranker.h"

namespace awmoe {

FfnRanker::FfnRanker(const DatasetMeta& meta, const ModelDims& dims,
                     UserPooling pooling, Rng* rng)
    : meta_(meta),
      dims_(dims),
      pooling_(pooling),
      embeddings_(meta, dims.emb_dim, rng),
      input_network_(meta, dims, &embeddings_, pooling, rng),
      ffn_(input_network_.output_dim(), WithOutput(dims.expert, 1), rng) {}

std::string FfnRanker::name() const {
  return pooling_ == UserPooling::kSumPool ? "DNN" : "DIN";
}

Var FfnRanker::ForwardLogits(const Batch& batch) {
  return ffn_.Forward(input_network_.Forward(batch));
}

std::unique_ptr<Ranker> FfnRanker::Clone() const {
  // The fresh model's random init is immediately overwritten, so the
  // throwaway Rng seed is irrelevant to the clone's weights.
  Rng rng(1);
  std::unique_ptr<Ranker> clone;
  if (pooling_ == UserPooling::kSumPool) {
    clone = std::make_unique<DnnRanker>(meta_, dims_, &rng);
  } else {
    clone = std::make_unique<DinRanker>(meta_, dims_, &rng);
  }
  CopyParametersInto(*this, clone.get());
  return clone;
}

void FfnRanker::Score(const ScoreCall& call) {
  CheckScoreCall(*this, call);
  const Batch& batch = call.batch;
  InferenceArena* arena = call.workspace->arena();
  arena->Reset();
  // Input network -> single FFN. An encoding replays the candidate-
  // independent blocks from the session feature store instead of
  // recomputing them; the op sequence on values is identical either
  // way (bitwise contract).
  const ArenaExec x(arena);
  MatView v_imp = arena->Alloc(batch.size, input_network_.output_dim());
  ConstMatView encoding;
  if (call.encoding != nullptr) {
    encoding = ResolveSessionEncoding(*call.encoding, batch.size,
                                      input_network_.session_encoding_dim());
  }
  input_network_.Run(x, batch, call.encoding != nullptr ? &encoding : nullptr,
                     v_imp);
  ffn_.Run(x, v_imp, MatView{call.out.data(), batch.size, 1, 1});
}

ServingTraits FfnRanker::Traits(const DatasetMeta& meta) const {
  (void)meta;
  return {.encoding_width = input_network_.session_encoding_dim(),
          .share_encoding = true};
}

void FfnRanker::EncodeSessionInto(const Batch& batch,
                                  InferenceWorkspace* workspace,
                                  std::span<float> out) {
  CheckScoreIntoArgs(batch, workspace, out.size());
  const int64_t w = input_network_.session_encoding_dim();
  AWMOE_CHECK(static_cast<int64_t>(out.size()) >= batch.size * w)
      << "EncodeSessionInto: out span " << out.size() << " for "
      << batch.size << "x" << w;
  InferenceArena* arena = workspace->arena();
  arena->Reset();
  input_network_.EncodeSessionInto(batch, arena,
                                   MatView{out.data(), batch.size, w, w});
}

std::vector<Var> FfnRanker::Parameters() const {
  std::vector<Var> params;
  embeddings_.CollectParameters(&params);
  input_network_.CollectParameters(&params);
  ffn_.CollectParameters(&params);
  return params;
}

}  // namespace awmoe
