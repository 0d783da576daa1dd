// Pins what the forward passes serve across commits: every scoring
// entry point of the sequence models, run at the reference kernel tier
// on fixed seeded models and batches, hashed over the float bits of its
// output. A change to the op order or arithmetic of any forward changes
// a hash; a restructuring that keeps served scores bitwise (batching
// the behaviour positions, say) does not. Update the constants only for
// a deliberate change to the serving arithmetic.

#include <cstdint>
#include <cstring>
#include <iomanip>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/aw_moe.h"
#include "data/batcher.h"
#include "models/dnn_ranker.h"
#include "models/listwise/listwise_reranker.h"
#include "nn/inference.h"
#include "util/hash.h"
#include "util/rng.h"

namespace awmoe {
namespace {

DatasetMeta PinMeta(bool recommendation) {
  DatasetMeta meta;
  meta.num_items = 60;
  meta.num_cats = 7;
  meta.num_brands = 21;
  meta.num_shops = 9;
  meta.num_queries = 14;
  meta.max_seq_len = 10;
  meta.recommendation_mode = recommendation;
  return meta;
}

ModelDims PinDims() {
  ModelDims dims;
  dims.emb_dim = 4;
  dims.tower_mlp = {8, 6};
  dims.activation_unit = {6, 4};
  dims.gate_unit = {6, 4};
  dims.expert = {12, 8};
  dims.num_experts = 4;
  return dims;
}

/// One session: `items` candidates sharing the user, query and a
/// `hist`-long behaviour sequence.
std::vector<Example> MakeSession(uint64_t seed, int64_t session_id,
                                 int64_t items, int64_t hist) {
  Rng rng(seed);
  Example base;
  for (int64_t j = 0; j < hist; ++j) {
    base.behavior_items.push_back(rng.UniformInt(1, 59));
    base.behavior_cats.push_back(rng.UniformInt(1, 6));
    base.behavior_brands.push_back(rng.UniformInt(1, 20));
    for (int64_t c = 0; c < Example::kItemAttrs; ++c) {
      base.behavior_attrs.push_back(static_cast<float>(rng.Normal()));
    }
  }
  base.query_id = rng.UniformInt(1, 13);
  base.query_cat = rng.UniformInt(1, 6);
  base.user_id = rng.UniformInt(1, 100);
  base.age_segment = rng.UniformInt(0, 2);
  base.session_id = session_id;
  std::vector<Example> session;
  for (int64_t i = 0; i < items; ++i) {
    Example ex = base;
    ex.target_item = rng.UniformInt(1, 59);
    ex.target_cat = rng.UniformInt(1, 6);
    ex.target_brand = rng.UniformInt(1, 20);
    ex.target_shop = rng.UniformInt(1, 8);
    for (int64_t c = 0; c < Example::kItemAttrs; ++c) {
      ex.target_attrs[c] = static_cast<float>(rng.Normal());
    }
    ex.label = static_cast<float>(i % 3 == 0);
    ex.numeric.resize(kNumNumericFeatures);
    for (float& v : ex.numeric) v = static_cast<float>(rng.Normal());
    session.push_back(std::move(ex));
  }
  return session;
}

/// `count` sessions of varying size and history length (0 = an
/// all-padding user, 10 = a full sequence).
std::vector<std::vector<Example>> MakeSessions(uint64_t seed, int count) {
  std::vector<std::vector<Example>> sessions;
  const int64_t hists[] = {0, 3, 10, 6, 1, 8, 2, 10, 5, 4};
  const int64_t items[] = {3, 1, 7, 2, 5, 6, 4, 8, 9, 5};
  for (int s = 0; s < count; ++s) {
    sessions.push_back(MakeSession(seed + static_cast<uint64_t>(s) * 97,
                                   100 + s, items[s % 10], hists[s % 10]));
  }
  return sessions;
}

Batch Collate(const std::vector<std::vector<Example>>& sessions,
              const DatasetMeta& meta) {
  std::vector<const Example*> flat;
  for (const auto& session : sessions) {
    for (const Example& ex : session) flat.push_back(&ex);
  }
  return CollateBatch(flat, meta, nullptr);
}

std::string Hash(std::span<const float> values) {
  uint64_t h = kFnv1a64Offset;
  for (float v : values) {
    uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    h = Fnv1a64Mix(h, bits);
  }
  std::ostringstream out;
  out << "0x" << std::hex << std::setw(16) << std::setfill('0') << h;
  return out.str();
}

std::string Hash(const Matrix& m) {
  return Hash(std::span<const float>(m.data(), static_cast<size_t>(m.size())));
}

/// Every forward entry point the model has, on the batch of `sessions`,
/// in a fixed order: fused Score, GateInto, EncodeSessionInto, Score
/// replaying a per-row gate and encoding, Score replaying the first
/// session's one-row gate and encoding over that session's own
/// candidates (the broadcast the engine serves), ForwardLogits and
/// AW-MoE's GateRepresentation on the graph. A slate-scoring model gets
/// the sessions as slates.
std::vector<std::string> ForwardHashes(
    Ranker* model, const std::vector<std::vector<Example>>& sessions,
    const DatasetMeta& meta) {
  ScopedKernelTier tier(KernelTier::kReference);
  const ServingTraits traits = model->Traits(DatasetMeta{});
  const Batch batch = Collate(sessions, meta);
  std::vector<int64_t> starts;
  if (traits.slate_scoring()) SlateStartsFromBatch(batch, &starts);
  auto workspace = model->CreateInferenceWorkspace(batch.size);
  std::vector<std::string> hashes;
  std::vector<float> scores(static_cast<size_t>(batch.size));
  model->Score({.batch = batch,
                .workspace = workspace.get(),
                .out = scores,
                .slate_starts = starts});
  hashes.push_back(Hash(scores));

  std::vector<float> gate, encoding;
  const int64_t k = traits.gate_width;
  const int64_t w = traits.encoding_width;
  if (k > 0) {
    gate.resize(static_cast<size_t>(batch.size * k));
    model->GateInto(batch, workspace.get(), gate);
    hashes.push_back(Hash(gate));
  }
  if (w > 0) {
    encoding.resize(static_cast<size_t>(batch.size * w));
    model->EncodeSessionInto(batch, workspace.get(), encoding);
    hashes.push_back(Hash(encoding));
  }
  if (k > 0 || w > 0) {
    // Row 0 of the batch is the first session's, so its gate and
    // encoding rows are that session's.
    const Batch first = Collate({sessions[0]}, meta);
    std::vector<float> first_scores(static_cast<size_t>(first.size));
    for (const auto& [replay, rows, out] :
         {std::tuple(&batch, batch.size, std::span<float>(scores)),
          std::tuple(&first, int64_t{1}, std::span<float>(first_scores))}) {
      const SessionGate session_gate{gate.data(), rows, k};
      const SessionEncoding session_encoding{encoding.data(), rows, w};
      model->Score({.batch = *replay,
                    .workspace = workspace.get(),
                    .out = out,
                    .gate = k > 0 ? &session_gate : nullptr,
                    .encoding = w > 0 ? &session_encoding : nullptr});
      hashes.push_back(Hash(out));
    }
  }
  NoGradGuard guard;
  hashes.push_back(Hash(model->ForwardLogits(batch).value()));
  if (auto* aw = dynamic_cast<AwMoeRanker*>(model)) {
    hashes.push_back(Hash(aw->GateRepresentation(batch).value()));
  }
  return hashes;
}

void ExpectHashes(const std::vector<std::string>& got,
                  const std::vector<std::string>& want,
                  const std::string& label) {
  std::string all;
  for (const std::string& h : got) all += "\"" + h + "\", ";
  EXPECT_EQ(got, want) << label << ": {" << all << "}";
}

struct PinCase {
  std::vector<std::vector<Example>> small;  // 13 rows.
  std::vector<std::vector<Example>> large;  // 50 rows.
};

PinCase MakeCase() {
  return {MakeSessions(/*seed=*/4100, /*count=*/4),
          MakeSessions(/*seed=*/4200, /*count=*/10)};
}

TEST(ForwardPinTest, AwMoeSearchMode) {
  const DatasetMeta meta = PinMeta(false);
  const PinCase c = MakeCase();
  const struct {
    GateMode mode;
    std::vector<std::string> small, large;
  } modes[] = {
      {GateMode::kFull,
       {"0x8eb7ecc2006f3ea9", "0xdbcfd6d2295c7b7f", "0x997925f7e50ca414",
        "0x8eb7ecc2006f3ea9", "0xd94d12186c0f2fb7", "0x8eb7ecc2006f3ea9",
        "0xdbcfd6d2295c7b7f"},
       {"0xfa8a14d31b6c9745", "0x83b04d2bb4f0430a", "0x97b860952ce98eae",
        "0xfa8a14d31b6c9745", "0xd94d12186c0f2fb7", "0xfa8a14d31b6c9745",
        "0x83b04d2bb4f0430a"}},
      {GateMode::kBaseSumPool,
       {"0xfdf747a95eecd778", "0xb760e569ffcc4e29", "0x997925f7e50ca414",
        "0xfdf747a95eecd778", "0x50c105d31cb8ea88", "0xfdf747a95eecd778",
        "0xb760e569ffcc4e29"},
       {"0xb7a2aac2f19e8418", "0x2d78efd655868b7b", "0x97b860952ce98eae",
        "0xb7a2aac2f19e8418", "0xc3dcfc9fa32c14af", "0xb7a2aac2f19e8418",
        "0x2d78efd655868b7b"}},
      {GateMode::kBaseGateUnit,
       {"0xa59cf29f9d95bb3a", "0x8c2ddb711b5ef8a4", "0x997925f7e50ca414",
        "0xa59cf29f9d95bb3a", "0xd94d12186c0f2fb7", "0xa59cf29f9d95bb3a",
        "0x8c2ddb711b5ef8a4"},
       {"0x8114cd7e1e9cf917", "0x099b81cec9122ed6", "0x97b860952ce98eae",
        "0x8114cd7e1e9cf917", "0xd94d12186c0f2fb7", "0x8114cd7e1e9cf917",
        "0x099b81cec9122ed6"}},
      {GateMode::kBaseActivationUnit,
       {"0xe642c45ed4cd1d8a", "0xb5717e29ae11b2d4", "0x997925f7e50ca414",
        "0xe642c45ed4cd1d8a", "0x50c105d31cb8ea88", "0xe642c45ed4cd1d8a",
        "0xb5717e29ae11b2d4"},
       {"0x7ac07cca8d22a152", "0xc36a5fdf2e240d85", "0x97b860952ce98eae",
        "0x7ac07cca8d22a152", "0xc3dcfc9fa32c14af", "0x7ac07cca8d22a152",
        "0xc36a5fdf2e240d85"}},
  };
  for (const auto& m : modes) {
    AwMoeConfig config;
    config.dims = PinDims();
    config.gate.mode = m.mode;
    Rng rng(61);
    AwMoeRanker model(meta, config, &rng);
    const std::string label =
        "AW-MoE search, gate mode " + std::to_string(static_cast<int>(m.mode));
    ExpectHashes(ForwardHashes(&model, c.small, meta), m.small,
                 label + ", 13 rows");
    ExpectHashes(ForwardHashes(&model, c.large, meta), m.large,
                 label + ", 50 rows");
  }
}

TEST(ForwardPinTest, AwMoeRecommendationModeSparseSoftmaxGate) {
  const DatasetMeta meta = PinMeta(true);
  const PinCase c = MakeCase();
  AwMoeConfig config;
  config.dims = PinDims();
  config.gate.softmax = true;
  config.gate.top_k = 2;
  Rng rng(62);
  AwMoeRanker model(meta, config, &rng);
  ExpectHashes(ForwardHashes(&model, c.small, meta),
               {"0xb389b9cd5c0af117", "0xe147f9485a121cc4",
                "0xef5692c419a4c3b9", "0xb389b9cd5c0af117",
                "0x22f05b90870a668d", "0xb389b9cd5c0af117",
                "0xe147f9485a121cc4"},
               "AW-MoE recommendation, 13 rows");
  ExpectHashes(ForwardHashes(&model, c.large, meta),
               {"0xc897383fb1b40071", "0x5b3e9274d1b5d9f9",
                "0xa6891b64919f3b04", "0xc897383fb1b40071",
                "0xefc08668c041c228", "0xc897383fb1b40071",
                "0x5b3e9274d1b5d9f9"},
               "AW-MoE recommendation, 50 rows");
}

TEST(ForwardPinTest, DnnAndDin) {
  const DatasetMeta meta = PinMeta(false);
  const PinCase c = MakeCase();
  {
    Rng rng(63);
    DnnRanker model(meta, PinDims(), &rng);
    // The blob's pooled v_user of a user with no behaviour is +0: no
    // row is pooled into it. Summing its padded positions' +-0 terms
    // left -0 there; nothing else in the blob or any score moved.
    ExpectHashes(ForwardHashes(&model, c.large, meta),
                 {"0xa3b44459eb92cf3c", "0xb99fa2b791e5a556",
                  "0xa3b44459eb92cf3c", "0x3ddccd8096df9031",
                  "0xa3b44459eb92cf3c"},
                 "DNN, 50 rows");
  }
  {
    Rng rng(64);
    DinRanker model(meta, PinDims(), &rng);
    ExpectHashes(ForwardHashes(&model, c.large, meta),
                 {"0x110ad4ddcd4d677d", "0xbdd943b133dd4884",
                  "0x110ad4ddcd4d677d", "0xe57f878394ba2a66",
                  "0x110ad4ddcd4d677d"},
                 "DIN, 50 rows");
  }
}

TEST(ForwardPinTest, ListwiseSlates) {
  const DatasetMeta meta = PinMeta(false);
  const PinCase c = MakeCase();
  ListwiseDims ldims;
  ldims.d_model = 8;
  ldims.num_heads = 2;
  Rng rng(65);
  ListwiseReranker model(meta, PinDims(), ldims, &rng);
  ExpectHashes(ForwardHashes(&model, c.large, meta),
               {"0xe13f949a0d3cec8d",
                "0xe13f949a0d3cec8d"}, "Listwise, 10 slates");
}

}  // namespace
}  // namespace awmoe
