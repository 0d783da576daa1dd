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

template <class X>
MatOf<X> FfnRanker::Run(const X& x, const Batch& batch,
                        const SessionEncoding* encoding,
                        DstOf<X> out) const {
  const MatOf<X> v_imp = input_network_.Run(
      x, batch, encoding, x.Alloc(batch.size, input_network_.output_dim()));
  return ffn_.Run(x, v_imp, out);
}

template Var FfnRanker::Run(const GraphExec&, const Batch&,
                            const SessionEncoding*, GraphExec::Dst) const;
template MatView FfnRanker::Run(const ArenaExec&, const Batch&,
                                const SessionEncoding*, MatView) const;

Var FfnRanker::ForwardLogits(const Batch& batch) {
  return Run(GraphExec(), batch, /*encoding=*/nullptr, {});
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
  InferenceArena* arena = call.workspace->arena();
  arena->Reset();
  Run(ArenaExec(arena), call.batch, call.encoding,
      MatView{call.out.data(), call.batch.size, 1, 1});
}

ServingTraits FfnRanker::Traits(const DatasetMeta& meta) const {
  (void)meta;
  return {.encoding_width = input_network_.session_encoding_dim(),
          .share_encoding = true};
}

void FfnRanker::EncodeSessionInto(const Batch& batch,
                                  InferenceWorkspace* workspace,
                                  std::span<float> out) {
  input_network_.EncodeSessionInto(batch, workspace, out);
}

std::vector<Var> FfnRanker::Parameters() const {
  std::vector<Var> params;
  embeddings_.CollectParameters(&params);
  input_network_.CollectParameters(&params);
  ffn_.CollectParameters(&params);
  return params;
}

}  // namespace awmoe
