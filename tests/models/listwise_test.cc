// The listwise reranker's acceptance suite: the workspace slate path
// (ScoreSlateInto) must reproduce the autograd-backed graph path
// (ForwardLogits) BIT FOR BIT on the reference kernel tier, a slate's
// scores must not depend on what else shares its micro-batch, Clone
// must produce an identical model, and the ListNet loss must train
// through both Trainer and ParallelTrainer with session-grouped
// batches.

#include <cmath>
#include <memory>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/parallel_trainer.h"
#include "core/trainer.h"
#include "data/batcher.h"
#include "models/listwise/listwise_reranker.h"
#include "nn/inference.h"
#include "util/rng.h"

namespace awmoe {
namespace {

// Bitwise graph-vs-workspace comparison needs the reference tier; the
// fast tier's slate scores are covered by the composition-independence
// test below, which holds at every tier (the attention core is always
// the scalar slate-local kernels).
const bool kPinnedReferenceTier = [] {
  SetKernelTier(KernelTier::kReference);
  return true;
}();

DatasetMeta TestMeta() {
  DatasetMeta meta;
  meta.num_items = 60;
  meta.num_cats = 7;
  meta.num_brands = 21;
  meta.num_shops = 9;
  meta.num_queries = 14;
  meta.max_seq_len = 6;
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

ListwiseDims TinyListwiseDims() {
  ListwiseDims ldims;
  ldims.d_model = 8;
  ldims.num_heads = 2;
  ldims.num_layers = 2;
  ldims.ffn_hidden = {12};
  ldims.head_hidden = {6};
  ldims.max_slate_len = 16;
  return ldims;
}

/// One synthetic session (slate): `items` candidates sharing user and
/// query context, history length `hist`, alternating labels.
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
    ex.label = static_cast<float>(i % 3 == 0);
    ex.numeric.resize(kNumNumericFeatures);
    for (float& v : ex.numeric) v = static_cast<float>(rng.Normal());
    session.push_back(std::move(ex));
  }
  return session;
}

/// Sessions with varying slate sizes and history lengths (0 = pure
/// padding), session ids in batch order.
std::vector<std::vector<Example>> MakeSessions(uint64_t seed) {
  std::vector<std::vector<Example>> sessions;
  const int64_t hists[] = {0, 2, 6, 4, 1};
  const int64_t items[] = {3, 1, 5, 2, 4};
  for (int64_t s = 0; s < 5; ++s) {
    sessions.push_back(MakeSession(seed + static_cast<uint64_t>(s) * 97,
                                   100 + s, items[s], hists[s]));
  }
  return sessions;
}

std::vector<const Example*> Flatten(
    const std::vector<std::vector<Example>>& sessions) {
  std::vector<const Example*> flat;
  for (const auto& session : sessions) {
    for (const Example& ex : session) flat.push_back(&ex);
  }
  return flat;
}

/// The graph path, recording no graph.
Matrix GraphLogits(Ranker* model, const Batch& batch) {
  NoGradGuard guard;
  return model->ForwardLogits(batch).value();
}

std::unique_ptr<ListwiseReranker> MakeModel(uint64_t seed) {
  Rng rng(seed);
  return std::make_unique<ListwiseReranker>(TestMeta(), TinyDims(),
                                            TinyListwiseDims(), &rng);
}

std::vector<float> ScoreSlates(ListwiseReranker* model, const Batch& batch,
                               InferenceWorkspace* workspace) {
  std::vector<int64_t> starts;
  SlateStartsFromBatch(batch, &starts);
  std::vector<float> out(static_cast<size_t>(batch.size));
  model->Score({.batch = batch,
                .workspace = workspace,
                .out = out,
                .slate_starts = starts});
  return out;
}

TEST(ListwiseRerankerTest, SlateStartsFromBatchFindsSessionRuns) {
  auto sessions = MakeSessions(/*seed=*/900);
  Batch batch = CollateBatch(Flatten(sessions), TestMeta(), nullptr);
  std::vector<int64_t> starts;
  SlateStartsFromBatch(batch, &starts);
  // Slate sizes 3,1,5,2,4 -> starts at their prefix sums.
  EXPECT_EQ(starts, (std::vector<int64_t>{0, 3, 4, 9, 11}));
}

// The acceptance gate: ScoreSlateInto == ForwardLogits, bit for bit,
// across multi-slate and single-slate batches sharing one workspace
// (stale buffer contents from a bigger batch would show up).
TEST(ListwiseRerankerTest, ScoreSlateIntoMatchesForwardLogitsBitwise) {
  const DatasetMeta meta = TestMeta();
  auto sessions = MakeSessions(/*seed=*/910);
  auto model = MakeModel(31);
  auto workspace = model->CreateInferenceWorkspace(
      static_cast<int64_t>(Flatten(sessions).size()));

  std::vector<std::vector<const Example*>> slices;
  slices.push_back(Flatten(sessions));          // All five slates fused.
  for (const auto& session : sessions) {        // Each slate alone.
    std::vector<const Example*> one;
    for (const Example& ex : session) one.push_back(&ex);
    slices.push_back(std::move(one));
  }
  slices.push_back(Flatten(sessions));          // Fused again, warm buffers.

  for (const auto& slice : slices) {
    Batch batch = CollateBatch(slice, meta, nullptr);
    Matrix want = GraphLogits(model.get(), batch);
    std::vector<float> got = ScoreSlates(model.get(), batch, workspace.get());
    for (int64_t i = 0; i < batch.size; ++i) {
      ASSERT_EQ(got[static_cast<size_t>(i)], want(i, 0))
          << "row " << i << " of batch size " << batch.size;
    }
  }
}

// A slate's scores must be a function of the slate alone: scoring a
// session by itself and fused behind four other sessions must agree
// bitwise. This is what lets the serving engine pack whole requests
// into one micro-batch freely.
TEST(ListwiseRerankerTest, SlateScoresIndependentOfBatchComposition) {
  const DatasetMeta meta = TestMeta();
  auto sessions = MakeSessions(/*seed=*/920);
  auto model = MakeModel(32);
  auto flat = Flatten(sessions);
  auto workspace =
      model->CreateInferenceWorkspace(static_cast<int64_t>(flat.size()));

  Batch fused = CollateBatch(flat, meta, nullptr);
  std::vector<float> fused_scores =
      ScoreSlates(model.get(), fused, workspace.get());

  size_t row = 0;
  for (const auto& session : sessions) {
    std::vector<const Example*> one;
    for (const Example& ex : session) one.push_back(&ex);
    Batch batch = CollateBatch(one, meta, nullptr);
    std::vector<float> alone =
        ScoreSlates(model.get(), batch, workspace.get());
    for (size_t i = 0; i < alone.size(); ++i, ++row) {
      ASSERT_EQ(alone[i], fused_scores[row]) << "slate row " << i;
    }
  }
}

TEST(ListwiseRerankerTest, RejectsSlateLongerThanMaxSlateLen) {
  auto session = MakeSession(/*seed=*/930, /*session_id=*/7,
                             /*items=*/TinyListwiseDims().max_slate_len + 1,
                             /*hist=*/2);
  std::vector<const Example*> items;
  for (const Example& ex : session) items.push_back(&ex);
  Batch batch = CollateBatch(items, TestMeta(), nullptr);
  auto model = MakeModel(33);
  EXPECT_DEATH((void)GraphLogits(model.get(), batch), "max_slate_len");
}

TEST(ListwiseRerankerTest, CloneProducesIdenticalScores) {
  const DatasetMeta meta = TestMeta();
  auto sessions = MakeSessions(/*seed=*/940);
  auto model = MakeModel(34);
  std::unique_ptr<Ranker> clone = model->Clone();
  ASSERT_NE(clone, nullptr);
  EXPECT_TRUE(clone->Traits(meta).slate_scoring());

  Batch batch = CollateBatch(Flatten(sessions), meta, nullptr);
  Matrix want = GraphLogits(model.get(), batch);
  Matrix got = GraphLogits(clone.get(), batch);
  for (int64_t i = 0; i < batch.size; ++i) {
    ASSERT_EQ(got(i, 0), want(i, 0)) << "row " << i;
  }
}

std::vector<Example> TrainingSplit(uint64_t seed, int64_t num_sessions) {
  std::vector<Example> train;
  for (int64_t s = 0; s < num_sessions; ++s) {
    auto session = MakeSession(seed + static_cast<uint64_t>(s) * 131,
                               1000 + s, /*items=*/4, /*hist=*/3);
    for (Example& ex : session) train.push_back(std::move(ex));
  }
  return train;
}

// Trainer end-to-end on the ListNet loss: a slate-scoring model switches
// BuildTrainingLoss to listwise softmax cross-entropy and the iterator
// to session-grouped batches; the loss must come down.
TEST(ListwiseRerankerTest, TrainerLowersListwiseLoss) {
  auto model = MakeModel(35);
  TrainerConfig config;
  config.batch_size = 12;  // Three 4-item slates per batch.
  config.epochs = 5;
  config.lr = 5e-3f;
  Trainer trainer(model.get(), config);
  std::vector<Example> train = TrainingSplit(/*seed=*/950, 24);
  auto history = trainer.Train(train, TestMeta(), nullptr);
  ASSERT_EQ(history.size(), 5u);
  EXPECT_GT(history.front().mean_rank_loss, 0.0);
  EXPECT_LT(history.back().mean_rank_loss, history.front().mean_rank_loss);
}

// An oversized session (more rows than max_slate_len) must not abort
// training: the grouping iterator splits it into sub-slates of at most
// the cap (carried as Batch::slate_starts) and the ListNet loss ranks
// each sub-slate against itself.
TEST(ListwiseRerankerTest, TrainerSplitsOversizedSessionsInsteadOfAborting) {
  auto model = MakeModel(37);
  std::vector<Example> train = TrainingSplit(/*seed=*/970, 4);
  auto big = MakeSession(/*seed=*/971, /*session_id=*/2000,
                         /*items=*/3 * TinyListwiseDims().max_slate_len + 5,
                         /*hist=*/3);
  for (Example& ex : big) train.push_back(std::move(ex));
  TrainerConfig config;
  config.batch_size = 12;
  config.epochs = 2;
  config.lr = 5e-3f;
  Trainer trainer(model.get(), config);
  auto history = trainer.Train(train, TestMeta(), nullptr);
  ASSERT_EQ(history.size(), 2u);
  EXPECT_TRUE(std::isfinite(history.back().mean_rank_loss));
  EXPECT_GT(history.back().mean_rank_loss, 0.0);
}

// Two distinct slates that happen to share a session id (a split
// oversized session, or non-contiguous duplicate ids a shuffle made
// adjacent) must NOT merge: explicit Batch::slate_starts are
// authoritative over session-id run derivation in both forward paths.
TEST(ListwiseRerankerTest, ExplicitSlateStartsKeepSameIdSlatesDistinct) {
  const DatasetMeta meta = TestMeta();
  auto model = MakeModel(38);
  auto a = MakeSession(/*seed=*/980, /*session_id=*/500, /*items=*/4,
                       /*hist=*/2);
  auto b = MakeSession(/*seed=*/981, /*session_id=*/500, /*items=*/3,
                       /*hist=*/5);  // Same id, different slate.
  std::vector<const Example*> joint;
  for (const Example& ex : a) joint.push_back(&ex);
  for (const Example& ex : b) joint.push_back(&ex);

  Batch batch = CollateBatch(joint, meta, nullptr);
  batch.slate_starts = {0, 4};
  Matrix got = GraphLogits(model.get(), batch);

  // Reference: each slate scored alone.
  std::vector<const Example*> only_a(joint.begin(), joint.begin() + 4);
  std::vector<const Example*> only_b(joint.begin() + 4, joint.end());
  Matrix want_a = GraphLogits(model.get(), CollateBatch(only_a, meta, nullptr));
  Matrix want_b = GraphLogits(model.get(), CollateBatch(only_b, meta, nullptr));
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(got(i, 0), want_a(i, 0)) << "slate a row " << i;
  }
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(got(4 + i, 0), want_b(i, 0)) << "slate b row " << i;
  }

  // The workspace path honours the explicit starts identically.
  auto workspace = model->CreateInferenceWorkspace(batch.size);
  std::vector<float> inferred(static_cast<size_t>(batch.size));
  model->Score({.batch = batch,
                .workspace = workspace.get(),
                .out = std::span<float>(inferred)});
  for (int64_t i = 0; i < batch.size; ++i) {
    EXPECT_EQ(inferred[static_cast<size_t>(i)], got(i, 0)) << "row " << i;
  }

  // Without the explicit starts the runs merge into one 7-row slate —
  // a different attention context, hence different scores.
  Batch merged = CollateBatch(joint, meta, nullptr);
  Matrix fallback = GraphLogits(model.get(), merged);
  bool differs = false;
  for (int64_t i = 0; i < batch.size && !differs; ++i) {
    differs = fallback(i, 0) != got(i, 0);
  }
  EXPECT_TRUE(differs);
}

// ParallelTrainer's determinism contract extends to listwise models:
// with identical configs, 1-worker and 3-worker runs must end at
// BITWISE the same parameters.
TEST(ListwiseRerankerTest, ParallelTrainerWorkerCountInvariant) {
  std::vector<Example> train = TrainingSplit(/*seed=*/960, 18);
  ParallelTrainerConfig config;
  config.base.batch_size = 8;  // Two 4-item slates per shard.
  config.base.epochs = 2;
  config.base.lr = 5e-3f;
  config.grad_accumulation = 2;

  auto reference = MakeModel(36);
  config.num_workers = 1;
  {
    ParallelTrainer trainer(reference.get(), config);
    trainer.Train(train, TestMeta(), nullptr);
  }
  auto parallel = MakeModel(36);
  config.num_workers = 3;
  {
    ParallelTrainer trainer(parallel.get(), config);
    trainer.Train(train, TestMeta(), nullptr);
  }

  std::vector<Var> want = reference->Parameters();
  std::vector<Var> got = parallel->Parameters();
  ASSERT_EQ(want.size(), got.size());
  for (size_t p = 0; p < want.size(); ++p) {
    const Matrix& a = want[p].value();
    const Matrix& b = got[p].value();
    ASSERT_TRUE(a.SameShape(b));
    for (int64_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a.data()[i], b.data()[i]) << "parameter " << p;
    }
  }
}

}  // namespace
}  // namespace awmoe
