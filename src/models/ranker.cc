#include "models/ranker.h"

#include <algorithm>

#include "nn/inference.h"
#include "util/check.h"

namespace awmoe {

void Ranker::GateInto(const Batch& batch, InferenceWorkspace* workspace,
                      std::span<float> out) {
  (void)batch;
  (void)workspace;
  (void)out;
  AWMOE_CHECK(false) << name() << " has no session gate (gate_width == 0)";
}

void Ranker::EncodeSessionInto(const Batch& batch,
                               InferenceWorkspace* workspace,
                               std::span<float> out) {
  (void)batch;
  (void)workspace;
  (void)out;
  AWMOE_CHECK(false) << name()
                     << " has no session encoding (encoding_width == 0)";
}

void CheckScoreCall(const Ranker& model, const ScoreCall& call) {
  CheckScoreIntoArgs(call.batch, call.workspace, call.out.size());
  // The widths and the slate cap do not read the meta.
  const ServingTraits traits = model.Traits(DatasetMeta{});
  AWMOE_CHECK(call.gate == nullptr || traits.gate_width > 0)
      << model.name() << " has no session gate; Score got one";
  AWMOE_CHECK(call.encoding == nullptr || traits.encoding_width > 0)
      << model.name() << " has no session encoding; Score got one";
  AWMOE_CHECK(call.slate_starts.empty() || traits.slate_scoring())
      << model.name() << " is pointwise; Score got slate starts";
}

void CheckScoreIntoArgs(const Batch& batch,
                        const InferenceWorkspace* workspace,
                        size_t out_size) {
  AWMOE_CHECK(workspace != nullptr) << "Score: null workspace";
  AWMOE_CHECK(batch.size <= workspace->max_candidates())
      << "Score: batch " << batch.size << " exceeds workspace capacity "
      << workspace->max_candidates();
  AWMOE_CHECK(static_cast<int64_t>(out_size) >= batch.size)
      << "Score: out span " << out_size << " < batch " << batch.size;
}

MatView SessionRowsOut(const Batch& batch, InferenceWorkspace* workspace,
                       std::span<float> out, int64_t width) {
  CheckScoreIntoArgs(batch, workspace, out.size());
  AWMOE_CHECK(static_cast<int64_t>(out.size()) >= batch.size * width)
      << "session rows: out span " << out.size() << " for " << batch.size
      << "x" << width;
  workspace->arena()->Reset();
  return MatView{out.data(), batch.size, width, width};
}

ConstMatView ResolveSessionGate(const SessionGate& gate, int64_t batch_size,
                                int64_t width) {
  AWMOE_CHECK(gate.data != nullptr) << "SessionGate: null data";
  AWMOE_CHECK(gate.width == width)
      << "SessionGate: width " << gate.width << " vs model " << width;
  AWMOE_CHECK(gate.rows == batch_size || gate.rows == 1)
      << "SessionGate: rows " << gate.rows << " vs batch " << batch_size;
  // A single row broadcasts via stride 0: every candidate reads the
  // same gate.
  const int64_t stride = gate.rows == 1 ? 0 : width;
  return ConstMatView(gate.data, batch_size, width, stride);
}

ConstMatView ResolveSessionEncoding(const SessionEncoding& encoding,
                                    int64_t batch_size, int64_t width) {
  AWMOE_CHECK(encoding.data != nullptr) << "SessionEncoding: null data";
  AWMOE_CHECK(encoding.width == width)
      << "SessionEncoding: width " << encoding.width << " vs model " << width;
  AWMOE_CHECK(encoding.rows == batch_size || encoding.rows == 1)
      << "SessionEncoding: rows " << encoding.rows << " vs batch "
      << batch_size;
  const int64_t stride = encoding.rows == 1 ? 0 : width;
  return ConstMatView(encoding.data, batch_size, width, stride);
}

void CopyParametersInto(const Ranker& src, Ranker* dst) {
  AWMOE_CHECK(dst != nullptr) << "CopyParametersInto: null destination";
  std::vector<Var> from = src.Parameters();
  std::vector<Var> to = dst->Parameters();
  AWMOE_CHECK(from.size() == to.size())
      << "CopyParametersInto: parameter count mismatch (" << from.size()
      << " vs " << to.size() << ")";
  for (size_t i = 0; i < from.size(); ++i) {
    const Matrix& value = from[i].value();
    AWMOE_CHECK(value.rows() == to[i].rows() &&
                value.cols() == to[i].cols())
        << "CopyParametersInto: shape mismatch at parameter " << i;
    // Matrix is a value type: assignment copies the buffer, so the two
    // models share no storage after this.
    to[i].mutable_value() = value;
  }
}

}  // namespace awmoe
