// Regression + property suite for the workspace-based inference API
// (Ranker::Score / GateInto): the arena executor of each ranker's
// forward body must reproduce its graph executor (ForwardLogits under a
// NoGradGuard) BIT FOR BIT for all four rankers and
// every gate configuration, and both paths must keep per-row results
// independent of micro-batch composition (shuffled session fusion,
// varying padding) — the invariant that lets the serving engine fuse
// sessions freely.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/aw_moe.h"
#include "data/batcher.h"
#include "data/jd_synthetic.h"
#include "mat/kernels.h"
#include "models/category_moe.h"
#include "models/dnn_ranker.h"
#include "nn/inference.h"
#include "util/rng.h"

namespace awmoe {
namespace {

// This whole suite compares Score against the autograd-backed
// ForwardLogits BITWISE, so it must run on the reference kernel tier
// regardless of what the host CPU offers. The fast tier's
// epsilon-bounded agreement is covered by kernel_tier_test.cc.
const bool kPinnedReferenceTier = [] {
  SetKernelTier(KernelTier::kReference);
  return true;
}();

DatasetMeta TestMeta(bool recommendation) {
  DatasetMeta meta;
  meta.num_items = 60;
  meta.num_cats = 7;
  meta.num_brands = 21;
  meta.num_shops = 9;
  meta.num_queries = 14;
  meta.max_seq_len = 6;
  meta.recommendation_mode = recommendation;
  return meta;
}

ModelDims TinyDims() {
  ModelDims dims;
  dims.emb_dim = 4;
  dims.tower_mlp = {8, 6};
  dims.activation_unit = {6, 4};
  dims.gate_unit = {6, 4};
  dims.expert = {12, 8};
  dims.num_experts = 4;
  return dims;
}

/// One synthetic session: `items` candidates sharing user/query context,
/// history length `hist` (varying padding across sessions).
std::vector<Example> MakeSession(uint64_t seed, int64_t session_id,
                                 int64_t items, int64_t hist) {
  Rng rng(seed);
  std::vector<Example> session;
  std::vector<int64_t> behavior_items, behavior_cats, behavior_brands;
  std::vector<float> behavior_attrs;
  for (int64_t j = 0; j < hist; ++j) {
    behavior_items.push_back(rng.UniformInt(1, 59));
    behavior_cats.push_back(rng.UniformInt(1, 6));
    behavior_brands.push_back(rng.UniformInt(1, 20));
    behavior_attrs.push_back(static_cast<float>(rng.Normal()));
    behavior_attrs.push_back(static_cast<float>(rng.Uniform()));
    behavior_attrs.push_back(static_cast<float>(rng.Uniform()));
  }
  const int64_t query_id = rng.UniformInt(1, 13);
  const int64_t query_cat = rng.UniformInt(1, 6);
  const int64_t user_id = rng.UniformInt(1, 100);
  const int64_t age = rng.UniformInt(0, 2);
  for (int64_t i = 0; i < items; ++i) {
    Example ex;
    ex.behavior_items = behavior_items;
    ex.behavior_cats = behavior_cats;
    ex.behavior_brands = behavior_brands;
    ex.behavior_attrs = behavior_attrs;
    ex.target_item = rng.UniformInt(1, 59);
    ex.target_cat = rng.UniformInt(1, 6);
    ex.target_brand = rng.UniformInt(1, 20);
    ex.target_shop = rng.UniformInt(1, 8);
    for (int64_t c = 0; c < Example::kItemAttrs; ++c) {
      ex.target_attrs[c] = static_cast<float>(rng.Normal());
    }
    ex.query_id = query_id;
    ex.query_cat = query_cat;
    ex.user_id = user_id;
    ex.age_segment = age;
    ex.session_id = session_id;
    ex.numeric.resize(kNumNumericFeatures);
    for (float& v : ex.numeric) v = static_cast<float>(rng.Normal());
    session.push_back(std::move(ex));
  }
  return session;
}

/// Sessions with deliberately different history lengths (0 = all-padding
/// user) and candidate counts.
std::vector<std::vector<Example>> MakeSessions(uint64_t seed) {
  std::vector<std::vector<Example>> sessions;
  const int64_t hists[] = {0, 2, 6, 4, 1};
  const int64_t items[] = {3, 1, 5, 2, 4};
  for (int64_t s = 0; s < 5; ++s) {
    sessions.push_back(
        MakeSession(seed + static_cast<uint64_t>(s) * 97, 100 + s,
                    items[s], hists[s]));
  }
  return sessions;
}

Batch Collate(const std::vector<const Example*>& items,
              const DatasetMeta& meta) {
  return CollateBatch(items, meta, nullptr);
}

std::vector<const Example*> Flatten(
    const std::vector<std::vector<Example>>& sessions) {
  std::vector<const Example*> flat;
  for (const auto& session : sessions) {
    for (const Example& ex : session) flat.push_back(&ex);
  }
  return flat;
}

struct NamedRanker {
  std::string label;
  std::unique_ptr<Ranker> model;
};

std::vector<NamedRanker> MakeRankers(const DatasetMeta& meta) {
  std::vector<NamedRanker> rankers;
  {
    Rng rng(11);
    rankers.push_back(
        {"DNN", std::make_unique<DnnRanker>(meta, TinyDims(), &rng)});
  }
  {
    Rng rng(12);
    rankers.push_back(
        {"DIN", std::make_unique<DinRanker>(meta, TinyDims(), &rng)});
  }
  {
    Rng rng(13);
    rankers.push_back({"Category-MoE", std::make_unique<CategoryMoeRanker>(
                                           meta, TinyDims(), &rng)});
  }
  {
    Rng rng(14);
    AwMoeConfig config;
    config.dims = TinyDims();
    rankers.push_back(
        {"AW-MoE", std::make_unique<AwMoeRanker>(meta, config, &rng)});
  }
  return rankers;
}

std::vector<float> ScoreIntoVector(Ranker* model, const Batch& batch,
                                   const SessionGate* gate,
                                   InferenceWorkspace* workspace) {
  std::vector<float> out(static_cast<size_t>(batch.size));
  model->Score({.batch = batch,
                .workspace = workspace,
                .out = out,
                .gate = gate});
  return out;
}

/// The forward body on the graph executor, recording no graph.
Matrix GraphLogits(Ranker* model, const Batch& batch) {
  NoGradGuard guard;
  return model->ForwardLogits(batch).value();
}

/// The gate step of the body on the graph executor.
Matrix GraphGate(Ranker* model, const Batch& batch) {
  NoGradGuard guard;
  return model->GateRepresentation(batch).value();
}

class InferencePathTest : public ::testing::TestWithParam<bool> {};

// The acceptance gate: Score == ForwardLogits, bit for bit, for every
// ranker in both dataset modes, across batch sizes sharing one
// workspace (buffers must not carry state between batches).
TEST_P(InferencePathTest, ScoreMatchesForwardLogitsBitwise) {
  const DatasetMeta meta = TestMeta(GetParam());
  auto sessions = MakeSessions(/*seed=*/500);
  auto flat = Flatten(sessions);
  for (NamedRanker& ranker : MakeRankers(meta)) {
    auto workspace = ranker.model->CreateInferenceWorkspace(
        static_cast<int64_t>(flat.size()));
    // Deliberately interleave batch sizes — one workspace serves all of
    // them, so stale buffer contents from a bigger batch would show up.
    const std::vector<std::vector<const Example*>> slices = {
        flat,
        {flat[0]},
        {flat.begin(), flat.begin() + 4},
        flat,
    };
    for (const auto& slice : slices) {
      Batch batch = Collate(slice, meta);
      Matrix want = GraphLogits(ranker.model.get(), batch);
      std::vector<float> got =
          ScoreIntoVector(ranker.model.get(), batch, nullptr,
                          workspace.get());
      ASSERT_EQ(static_cast<int64_t>(got.size()), batch.size);
      for (int64_t i = 0; i < batch.size; ++i) {
        EXPECT_EQ(got[static_cast<size_t>(i)], want(i, 0))
            << ranker.label << " row " << i << " of " << batch.size;
      }
    }
  }
}

// Row independence under micro-batch fusion: every session's rows are
// bitwise-invariant to which other sessions share the batch and in what
// order — for BOTH inference paths.
TEST_P(InferencePathTest, RowsIndependentOfBatchCompositionBothPaths) {
  const DatasetMeta meta = TestMeta(GetParam());
  auto sessions = MakeSessions(/*seed=*/900);
  for (NamedRanker& ranker : MakeRankers(meta)) {
    auto workspace = ranker.model->CreateInferenceWorkspace(64);
    // Reference: each session scored alone.
    std::vector<std::vector<float>> solo_graph, solo_kernel;
    for (const auto& session : sessions) {
      std::vector<const Example*> items;
      for (const Example& ex : session) items.push_back(&ex);
      Batch batch = Collate(items, meta);
      Matrix logits = GraphLogits(ranker.model.get(), batch);
      std::vector<float> graph(static_cast<size_t>(batch.size));
      for (int64_t i = 0; i < batch.size; ++i) {
        graph[static_cast<size_t>(i)] = logits(i, 0);
      }
      solo_graph.push_back(std::move(graph));
      solo_kernel.push_back(
          ScoreIntoVector(ranker.model.get(), batch, nullptr,
                          workspace.get()));
    }
    // Fused micro-batches in several shuffled session orders.
    std::vector<size_t> order(sessions.size());
    std::iota(order.begin(), order.end(), size_t{0});
    for (int round = 0; round < 4; ++round) {
      std::vector<const Example*> fused;
      std::vector<std::pair<size_t, size_t>> row_map;  // (session, row).
      for (size_t s : order) {
        for (size_t i = 0; i < sessions[s].size(); ++i) {
          fused.push_back(&sessions[s][i]);
          row_map.emplace_back(s, i);
        }
      }
      Batch batch = Collate(fused, meta);
      Matrix graph = GraphLogits(ranker.model.get(), batch);
      std::vector<float> kernel =
          ScoreIntoVector(ranker.model.get(), batch, nullptr,
                          workspace.get());
      for (size_t r = 0; r < row_map.size(); ++r) {
        const auto [s, i] = row_map[r];
        EXPECT_EQ(graph(static_cast<int64_t>(r), 0), solo_graph[s][i])
            << ranker.label << " graph row " << r << " round " << round;
        EXPECT_EQ(kernel[r], solo_kernel[s][i])
            << ranker.label << " kernel row " << r << " round " << round;
      }
      std::mt19937 gen(static_cast<unsigned>(round + 1));
      std::shuffle(order.begin(), order.end(), gen);
    }
  }
}

// The §III-F gate argument: Score with a supplied gate must reproduce
// the graph body under the same gate, Forward(batch, &gate), bitwise:
// a full [B, K] gate and its one-row broadcast. The gate is not the
// model's own and differs per row, so a Score that ignored it, or read
// only its first row, fails.
TEST(InferencePathGateTest, SuppliedGateMatchesGraphForwardBitwise) {
  const DatasetMeta meta = TestMeta(false);
  Rng rng(21);
  AwMoeConfig config;
  config.dims = TinyDims();
  AwMoeRanker model(meta, config, &rng);

  auto session = MakeSession(/*seed=*/77, /*session_id=*/1, /*items=*/6,
                             /*hist=*/4);
  std::vector<const Example*> items;
  for (const Example& ex : session) items.push_back(&ex);
  Batch batch = CollateBatch(items, meta, nullptr);
  auto workspace = model.CreateInferenceWorkspace(16);

  // Gate rows from the kernel path must equal GateRepresentation
  // bitwise.
  const int64_t k = model.Traits(meta).gate_width;
  const Matrix own_gate = GraphGate(&model, batch);
  std::vector<float> gate_rows(static_cast<size_t>(batch.size * k));
  model.GateInto(batch, workspace.get(), gate_rows);
  for (int64_t i = 0; i < batch.size; ++i) {
    for (int64_t c = 0; c < k; ++c) {
      EXPECT_EQ(gate_rows[static_cast<size_t>(i * k + c)], own_gate(i, c))
          << "gate row " << i << " col " << c;
    }
  }
  const std::vector<float> own =
      ScoreIntoVector(&model, batch, nullptr, workspace.get());

  Matrix foreign(batch.size, k);
  for (int64_t i = 0; i < batch.size; ++i) {
    for (int64_t c = 0; c < k; ++c) {
      foreign(i, c) = (c % 2 == 0 ? 0.3f : -0.2f) * static_cast<float>(i + 1) +
                      0.1f * static_cast<float>(c);
    }
  }
  Matrix foreign_row0(1, k);
  std::copy_n(foreign.row(0), k, foreign_row0.data());

  NoGradGuard guard;
  for (const Matrix* gate : {&foreign, &foreign_row0}) {
    const Matrix want = model.Forward(batch, gate).logits.value();
    SessionGate supplied{gate->data(), gate->rows(), k};
    const std::vector<float> got =
        ScoreIntoVector(&model, batch, &supplied, workspace.get());
    bool differs_from_own = false;
    for (int64_t i = 0; i < batch.size; ++i) {
      const size_t r = static_cast<size_t>(i);
      EXPECT_EQ(got[r], want(i, 0))
          << gate->rows() << "-row gate, row " << i;
      differs_from_own = differs_from_own || got[r] != own[r];
    }
    EXPECT_TRUE(differs_from_own) << gate->rows() << "-row gate";
  }
}

// Category-MoE's gate is session-constant in search mode too; its
// ScoreInto gate path must match scoring without one bitwise (same
// gate rows replicated).
TEST(InferencePathGateTest, CategoryMoeGateReuseMatchesDirectBitwise) {
  const DatasetMeta meta = TestMeta(false);
  Rng rng(31);
  CategoryMoeRanker model(meta, TinyDims(), &rng);
  EXPECT_TRUE(model.Traits(meta).share_gate);
  EXPECT_FALSE(
      model.Traits(TestMeta(/*recommendation=*/true)).share_gate);

  auto session = MakeSession(/*seed=*/99, /*session_id=*/2, /*items=*/5,
                             /*hist=*/3);
  std::vector<const Example*> items;
  for (const Example& ex : session) items.push_back(&ex);
  Batch batch = CollateBatch(items, meta, nullptr);
  auto workspace = model.CreateInferenceWorkspace(16);

  std::vector<float> direct =
      ScoreIntoVector(&model, batch, nullptr, workspace.get());

  const int64_t k = model.Traits(meta).gate_width;
  std::vector<float> gate_rows(static_cast<size_t>(batch.size * k));
  model.GateInto(batch, workspace.get(), gate_rows);
  // All rows of one session share the query category -> identical.
  for (int64_t i = 1; i < batch.size; ++i) {
    for (int64_t c = 0; c < k; ++c) {
      EXPECT_EQ(gate_rows[static_cast<size_t>(i * k + c)],
                gate_rows[static_cast<size_t>(c)]);
    }
  }
  SessionGate gate{gate_rows.data(), batch.size, k};
  std::vector<float> with_gate =
      ScoreIntoVector(&model, batch, &gate, workspace.get());
  for (int64_t i = 0; i < batch.size; ++i) {
    EXPECT_EQ(with_gate[static_cast<size_t>(i)],
              direct[static_cast<size_t>(i)])
        << "row " << i;
  }
}

// Every gate-network ablation/extension config must ride the kernel
// path bitwise (softmax normalisation, sparse top-k, pooled modes), in
// both dataset modes: the gate's reference input is the query in search
// mode and the target item in recommendation mode. Both the fused Score
// and the GateInto probe must match their graph references.
TEST_P(InferencePathTest, GateConfigVariantsMatchBitwise) {
  const DatasetMeta meta = TestMeta(GetParam());
  auto sessions = MakeSessions(/*seed=*/1300);
  auto flat = Flatten(sessions);
  Batch batch = CollateBatch(flat, meta, nullptr);

  struct Case {
    const char* label;
    GateConfig gate;
  };
  std::vector<Case> cases;
  cases.push_back({"full", {}});
  {
    GateConfig g;
    g.softmax = true;
    cases.push_back({"softmax", g});
  }
  {
    GateConfig g;
    g.top_k = 2;
    cases.push_back({"top2", g});
  }
  {
    GateConfig g;
    g.mode = GateMode::kBaseSumPool;
    cases.push_back({"base", g});
  }
  {
    GateConfig g;
    g.mode = GateMode::kBaseGateUnit;
    cases.push_back({"base+gu", g});
  }
  {
    GateConfig g;
    g.mode = GateMode::kBaseActivationUnit;
    cases.push_back({"base+au", g});
  }
  for (const Case& c : cases) {
    Rng rng(51);
    AwMoeConfig config;
    config.dims = TinyDims();
    config.gate = c.gate;
    AwMoeRanker model(meta, config, &rng);
    auto workspace =
        model.CreateInferenceWorkspace(static_cast<int64_t>(flat.size()));
    Matrix want = GraphLogits(&model, batch);
    std::vector<float> got =
        ScoreIntoVector(&model, batch, nullptr, workspace.get());
    for (int64_t i = 0; i < batch.size; ++i) {
      EXPECT_EQ(got[static_cast<size_t>(i)], want(i, 0))
          << c.label << " row " << i;
    }
    const int64_t k = config.dims.num_experts;
    const Matrix want_gate = GraphGate(&model, batch);
    std::vector<float> gate_rows(static_cast<size_t>(batch.size * k));
    model.GateInto(batch, workspace.get(), gate_rows);
    for (int64_t i = 0; i < batch.size; ++i) {
      for (int64_t e = 0; e < k; ++e) {
        EXPECT_EQ(gate_rows[static_cast<size_t>(i * k + e)],
                  want_gate(i, e))
            << c.label << " gate row " << i << " expert " << e;
      }
    }
  }
}

// ---------------------------------------------------------------------
// The session feature store split (level-2 cache contract):
// EncodeSessionInto + Score with the encoding == fused Score ==
// ForwardLogits, bit for bit.
// ---------------------------------------------------------------------

// Acceptance gate of the split path for every encoding-reusing ranker
// (AW-MoE, DIN, DNN) in both dataset modes, across interleaved batch
// sizes sharing one workspace.
TEST_P(InferencePathTest, SplitEncodeScoreMatchesFusedBitwise) {
  const DatasetMeta meta = TestMeta(GetParam());
  auto sessions = MakeSessions(/*seed=*/2100);
  auto flat = Flatten(sessions);
  int covered = 0;
  for (NamedRanker& ranker : MakeRankers(meta)) {
    const int64_t width = ranker.model->Traits(meta).encoding_width;
    if (width == 0 || !ranker.model->Traits(meta).share_encoding) {
      continue;
    }
    ++covered;
    auto workspace = ranker.model->CreateInferenceWorkspace(
        static_cast<int64_t>(flat.size()));
    const std::vector<std::vector<const Example*>> slices = {
        flat,
        {flat[0]},
        {flat.begin(), flat.begin() + 4},
        flat,
    };
    for (const auto& slice : slices) {
      Batch batch = Collate(slice, meta);
      Matrix want = GraphLogits(ranker.model.get(), batch);
      std::vector<float> fused =
          ScoreIntoVector(ranker.model.get(), batch, nullptr,
                          workspace.get());
      std::vector<float> encoding(static_cast<size_t>(batch.size * width));
      ranker.model->EncodeSessionInto(batch, workspace.get(), encoding);
      SessionEncoding enc{encoding.data(), batch.size, width};
      std::vector<float> split(static_cast<size_t>(batch.size));
      ranker.model->Score({.batch = batch,
                           .workspace = workspace.get(),
                           .out = split,
                           .encoding = &enc});
      for (int64_t i = 0; i < batch.size; ++i) {
        EXPECT_EQ(split[static_cast<size_t>(i)], want(i, 0))
            << ranker.label << " split-vs-graph row " << i << " of "
            << batch.size;
        EXPECT_EQ(split[static_cast<size_t>(i)],
                  fused[static_cast<size_t>(i)])
            << ranker.label << " split-vs-fused row " << i << " of "
            << batch.size;
      }
    }
  }
  // AW-MoE, DIN and DNN must all have been exercised.
  EXPECT_GE(covered, 3);
}

// The serving engine's actual replay shape: ONE probe row (the
// session's first item) encoded on a 1-row batch, broadcast across
// every candidate of the session — exactly how a level-2 cache hit
// feeds the candidate-dependent tail. Must still be bitwise-fused.
TEST_P(InferencePathTest, ProbeRowBroadcastEncodingMatchesFusedBitwise) {
  const DatasetMeta meta = TestMeta(GetParam());
  auto sessions = MakeSessions(/*seed=*/2400);
  for (NamedRanker& ranker : MakeRankers(meta)) {
    const int64_t width = ranker.model->Traits(meta).encoding_width;
    if (width == 0 || !ranker.model->Traits(meta).share_encoding) {
      continue;
    }
    auto workspace = ranker.model->CreateInferenceWorkspace(16);
    for (const auto& session : sessions) {
      std::vector<const Example*> items;
      for (const Example& ex : session) items.push_back(&ex);
      Batch batch = Collate(items, meta);
      std::vector<float> fused =
          ScoreIntoVector(ranker.model.get(), batch, nullptr,
                          workspace.get());

      // Per-row encodings of one session are identical (the property
      // Traits(meta).share_encoding declares)...
      std::vector<float> rows(static_cast<size_t>(batch.size * width));
      ranker.model->EncodeSessionInto(batch, workspace.get(), rows);
      for (int64_t i = 1; i < batch.size; ++i) {
        for (int64_t c = 0; c < width; ++c) {
          ASSERT_EQ(rows[static_cast<size_t>(i * width + c)],
                    rows[static_cast<size_t>(c)])
              << ranker.label << " row " << i << " col " << c;
        }
      }

      // ...so a 1-row probe encode broadcast over the batch reproduces
      // the fused scores bitwise.
      Batch probe = Collate({items[0]}, meta);
      std::vector<float> probe_row(static_cast<size_t>(width));
      ranker.model->EncodeSessionInto(probe, workspace.get(), probe_row);
      SessionEncoding broadcast{probe_row.data(), 1, width};
      std::vector<float> replay(static_cast<size_t>(batch.size));
      ranker.model->Score({.batch = batch,
                           .workspace = workspace.get(),
                           .out = replay,
                           .encoding = &broadcast});
      for (int64_t i = 0; i < batch.size; ++i) {
        EXPECT_EQ(replay[static_cast<size_t>(i)],
                  fused[static_cast<size_t>(i)])
            << ranker.label << " broadcast row " << i;
      }
    }
  }
}

// Gate reuse and encoding reuse composed — the serving engine passes
// both when a request hits the gate cache AND the feature store.
TEST(InferencePathSessionEncodingTest, GatePlusEncodingMatchesFusedBitwise) {
  const DatasetMeta meta = TestMeta(false);
  Rng rng(61);
  AwMoeConfig config;
  config.dims = TinyDims();
  AwMoeRanker model(meta, config, &rng);
  ASSERT_TRUE(model.Traits(meta).share_gate);
  ASSERT_TRUE(model.Traits(meta).share_encoding);

  auto session = MakeSession(/*seed=*/88, /*session_id=*/3, /*items=*/6,
                             /*hist=*/5);
  std::vector<const Example*> items;
  for (const Example& ex : session) items.push_back(&ex);
  Batch batch = CollateBatch(items, meta, nullptr);
  auto workspace = model.CreateInferenceWorkspace(16);

  std::vector<float> fused =
      ScoreIntoVector(&model, batch, nullptr, workspace.get());

  const int64_t k = model.Traits(meta).gate_width;
  std::vector<float> gate_rows(static_cast<size_t>(batch.size * k));
  model.GateInto(batch, workspace.get(), gate_rows);
  const int64_t w = model.Traits(meta).encoding_width;
  std::vector<float> enc_rows(static_cast<size_t>(batch.size * w));
  model.EncodeSessionInto(batch, workspace.get(), enc_rows);

  SessionGate gate{gate_rows.data(), batch.size, k};
  SessionEncoding enc{enc_rows.data(), batch.size, w};
  std::vector<float> both(static_cast<size_t>(batch.size));
  model.Score({.batch = batch,
               .workspace = workspace.get(),
               .out = both,
               .gate = &gate,
               .encoding = &enc});
  for (int64_t i = 0; i < batch.size; ++i) {
    EXPECT_EQ(both[static_cast<size_t>(i)], fused[static_cast<size_t>(i)])
        << "row " << i;
  }
}

// A null encoding must degrade ScoreWithSessionInto to the fused path
// verbatim (the engine relies on this when the feature store is off).
TEST(InferencePathSessionEncodingTest, NullEncodingFallsBackToFused) {
  const DatasetMeta meta = TestMeta(false);
  auto sessions = MakeSessions(/*seed=*/2700);
  auto flat = Flatten(sessions);
  for (NamedRanker& ranker : MakeRankers(meta)) {
    auto workspace = ranker.model->CreateInferenceWorkspace(
        static_cast<int64_t>(flat.size()));
    Batch batch = Collate(flat, meta);
    std::vector<float> fused =
        ScoreIntoVector(ranker.model.get(), batch, nullptr,
                        workspace.get());
    std::vector<float> null_enc(static_cast<size_t>(batch.size));
    ranker.model->Score({.batch = batch,
                         .workspace = workspace.get(),
                         .out = null_enc});
    for (int64_t i = 0; i < batch.size; ++i) {
      EXPECT_EQ(null_enc[static_cast<size_t>(i)],
                fused[static_cast<size_t>(i)])
          << ranker.label << " row " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, InferencePathTest, ::testing::Bool());

// The warmed footprint of one serving lane (ROADMAP item 4): the arena
// bytes a 64-row ModelDims::Default AW-MoE lane holds after Score,
// GateInto and EncodeSessionInto on a fixed JD batch. The arena keeps
// one slab per Alloc index, each grown to the largest request any of
// the three made there; a second round must not grow it.
TEST(InferenceArenaFootprintTest, WarmedDefaultLaneBytes) {
  JdConfig jd;
  jd.seed = 11;
  jd.train_sessions = 60;
  jd.test_sessions = 40;
  jd.longtail1_sessions = 5;
  jd.longtail2_sessions = 5;
  const JdDataset data = JdSyntheticGenerator(jd).Generate();
  Standardizer standardizer;
  standardizer.Fit(data.train);
  ASSERT_GE(data.train.size(), 64u);
  std::vector<const Example*> rows;
  for (size_t r = 0; r < 64; ++r) rows.push_back(&data.train[r]);
  const Batch batch = CollateBatch(rows, data.meta, &standardizer);

  AwMoeConfig config;
  config.dims = ModelDims::Default();
  Rng rng(3);
  AwMoeRanker model(data.meta, config, &rng);
  const ServingTraits traits = model.Traits(data.meta);
  auto workspace = model.CreateInferenceWorkspace(batch.size);
  std::vector<float> scores(static_cast<size_t>(batch.size));
  std::vector<float> gate(static_cast<size_t>(batch.size * traits.gate_width));
  std::vector<float> encoding(
      static_cast<size_t>(batch.size * traits.encoding_width));
  size_t warmed = 0;
  for (int round = 0; round < 2; ++round) {
    model.Score({.batch = batch, .workspace = workspace.get(), .out = scores});
    model.GateInto(batch, workspace.get(), gate);
    model.EncodeSessionInto(batch, workspace.get(), encoding);
    const size_t bytes = workspace->arena()->capacity_bytes();
    if (round == 1) {
      EXPECT_EQ(bytes, warmed) << "a warmed lane grew";
    }
    warmed = bytes;
  }
  std::printf("64-row ModelDims::Default lane, %.0f of %lld positions "
              "real: %zu arena bytes\n",
              SumAll(batch.behavior_mask),
              static_cast<long long>(batch.size * batch.seq_len), warmed);
  RecordProperty("arena_bytes", std::to_string(warmed));
  EXPECT_LT(warmed, 800'000u);
}

}  // namespace
}  // namespace awmoe
