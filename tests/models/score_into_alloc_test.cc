// Allocation-freeness of the ScoreInto hot path: a global operator-new
// interposer counts heap allocations, and steady-state ScoreInto /
// GateInto calls (after one warm-up pass grows the workspace) must
// perform exactly zero — per ranker, with and without a supplied
// session gate. This is the property that makes the serving hot path
// safe from allocator contention and fragmentation under load.

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "core/aw_moe.h"
#include "data/batcher.h"
#include "models/category_moe.h"
#include "models/dnn_ranker.h"
#include "nn/inference.h"
#include "util/rng.h"

namespace {

// ---------------------------------------------------------------------
// Operator-new interposer. Counts every allocation made while a
// CountingScope is active (single-threaded test; the atomics are only
// there so the counting itself never introduces UB).
// ---------------------------------------------------------------------

std::atomic<bool> g_counting{false};
std::atomic<int64_t> g_alloc_count{0};

void* CountedAlloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

void* operator new(std::size_t size) {
  void* p = CountedAlloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  void* p = CountedAlloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace awmoe {
namespace {

class CountingScope {
 public:
  CountingScope() {
    g_alloc_count.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
  }
  ~CountingScope() { g_counting.store(false, std::memory_order_relaxed); }
  int64_t count() const {
    return g_alloc_count.load(std::memory_order_relaxed);
  }
};

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

std::vector<Example> MakeExamples(int64_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<Example> examples;
  for (int64_t i = 0; i < count; ++i) {
    Example ex;
    const int64_t hist = i % 7;  // Include all-padding rows.
    for (int64_t j = 0; j < hist; ++j) {
      ex.behavior_items.push_back(rng.UniformInt(1, 59));
      ex.behavior_cats.push_back(rng.UniformInt(1, 6));
      ex.behavior_brands.push_back(rng.UniformInt(1, 20));
      ex.behavior_attrs.push_back(static_cast<float>(rng.Normal()));
      ex.behavior_attrs.push_back(static_cast<float>(rng.Uniform()));
      ex.behavior_attrs.push_back(static_cast<float>(rng.Uniform()));
    }
    ex.target_item = rng.UniformInt(1, 59);
    ex.target_cat = rng.UniformInt(1, 6);
    ex.target_brand = rng.UniformInt(1, 20);
    ex.target_shop = rng.UniformInt(1, 8);
    ex.query_id = rng.UniformInt(1, 13);
    ex.query_cat = ex.target_cat;
    ex.user_id = rng.UniformInt(1, 40);
    ex.age_segment = rng.UniformInt(0, 2);
    ex.session_id = 1 + i / 4;
    ex.numeric.resize(kNumNumericFeatures);
    for (float& v : ex.numeric) v = static_cast<float>(rng.Normal());
    examples.push_back(std::move(ex));
  }
  return examples;
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

class ScoreIntoAllocTest : public ::testing::TestWithParam<bool> {};

TEST_P(ScoreIntoAllocTest, SteadyStateScoreIntoAllocatesNothing) {
  const DatasetMeta meta = TestMeta(GetParam());
  std::vector<Example> examples = MakeExamples(24, /*seed=*/404);
  std::vector<const Example*> items;
  for (const Example& ex : examples) items.push_back(&ex);
  const Batch batch = CollateBatch(items, meta, nullptr);

  for (NamedRanker& ranker : MakeRankers(meta)) {
    auto workspace = ranker.model->CreateInferenceWorkspace(32);
    std::vector<float> out(static_cast<size_t>(batch.size));
    // Warm-up: the first pass materialises arena slabs, the second
    // proves they settled.
    ranker.model->Score({.batch = batch,
                         .workspace = workspace.get(),
                         .out = out});
    ranker.model->Score({.batch = batch,
                         .workspace = workspace.get(),
                         .out = out});
    {
      CountingScope scope;
      for (int pass = 0; pass < 5; ++pass) {
        ranker.model->Score({.batch = batch,
                             .workspace = workspace.get(),
                             .out = out});
      }
      EXPECT_EQ(scope.count(), 0)
          << ranker.label << ": steady-state ScoreInto hit the heap";
    }
  }
}

TEST_P(ScoreIntoAllocTest, SteadyStateGatePathAllocatesNothing) {
  const DatasetMeta meta = TestMeta(GetParam());
  std::vector<Example> examples = MakeExamples(24, /*seed=*/505);
  std::vector<const Example*> items;
  for (const Example& ex : examples) items.push_back(&ex);
  const Batch batch = CollateBatch(items, meta, nullptr);

  for (NamedRanker& ranker : MakeRankers(meta)) {
    const int64_t width = ranker.model->Traits(meta).gate_width;
    if (width == 0) continue;  // DNN / DIN have no gate.
    auto workspace = ranker.model->CreateInferenceWorkspace(32);
    std::vector<float> gate_rows(static_cast<size_t>(batch.size * width));
    std::vector<float> out(static_cast<size_t>(batch.size));
    ranker.model->GateInto(batch, workspace.get(), gate_rows);
    SessionGate gate{gate_rows.data(), batch.size, width};
    ranker.model->Score({.batch = batch,
                         .workspace = workspace.get(),
                         .out = out,
                         .gate = &gate});
    {
      CountingScope scope;
      for (int pass = 0; pass < 5; ++pass) {
        ranker.model->GateInto(batch, workspace.get(), gate_rows);
        ranker.model->Score({.batch = batch,
                             .workspace = workspace.get(),
                             .out = out,
                             .gate = &gate});
      }
      EXPECT_EQ(scope.count(), 0)
          << ranker.label << ": steady-state gate path hit the heap";
    }
  }
}

// The split encode/score path (level-2 session feature store) must be
// just as allocation-free as the fused one: a cache hit that replays a
// stored encoding may not pay the allocator on the tail pass, and a
// miss that materialises the encoding may not pay it either.
TEST_P(ScoreIntoAllocTest, SteadyStateSplitEncodeScoreAllocatesNothing) {
  const DatasetMeta meta = TestMeta(GetParam());
  std::vector<Example> examples = MakeExamples(24, /*seed=*/707);
  std::vector<const Example*> items;
  for (const Example& ex : examples) items.push_back(&ex);
  const Batch batch = CollateBatch(items, meta, nullptr);

  for (NamedRanker& ranker : MakeRankers(meta)) {
    const int64_t width = ranker.model->Traits(meta).encoding_width;
    if (width == 0) continue;
    auto workspace = ranker.model->CreateInferenceWorkspace(32);
    std::vector<float> rows(static_cast<size_t>(batch.size * width));
    std::vector<float> out(static_cast<size_t>(batch.size));
    ranker.model->EncodeSessionInto(batch, workspace.get(), rows);
    SessionEncoding enc{rows.data(), batch.size, width};
    ranker.model->Score({.batch = batch,
                         .workspace = workspace.get(),
                         .out = out,
                         .encoding = &enc});
    {
      CountingScope scope;
      for (int pass = 0; pass < 5; ++pass) {
        ranker.model->EncodeSessionInto(batch, workspace.get(), rows);
        ranker.model->Score({.batch = batch,
                             .workspace = workspace.get(),
                             .out = out,
                             .encoding = &enc});
      }
      EXPECT_EQ(scope.count(), 0)
          << ranker.label << ": steady-state split path hit the heap";
    }
  }
}

// The engine's full cache-miss shape: gate probe + encoding probe
// replayed together through ScoreWithSessionInto.
TEST_P(ScoreIntoAllocTest, SteadyStateGatePlusEncodingAllocatesNothing) {
  const DatasetMeta meta = TestMeta(GetParam());
  std::vector<Example> examples = MakeExamples(24, /*seed=*/808);
  std::vector<const Example*> items;
  for (const Example& ex : examples) items.push_back(&ex);
  const Batch batch = CollateBatch(items, meta, nullptr);

  for (NamedRanker& ranker : MakeRankers(meta)) {
    const int64_t gate_width = ranker.model->Traits(meta).gate_width;
    const int64_t enc_width = ranker.model->Traits(meta).encoding_width;
    if (gate_width == 0 || enc_width == 0) continue;
    auto workspace = ranker.model->CreateInferenceWorkspace(32);
    std::vector<float> gate_rows(
        static_cast<size_t>(batch.size * gate_width));
    std::vector<float> enc_rows(
        static_cast<size_t>(batch.size * enc_width));
    std::vector<float> out(static_cast<size_t>(batch.size));
    ranker.model->GateInto(batch, workspace.get(), gate_rows);
    ranker.model->EncodeSessionInto(batch, workspace.get(), enc_rows);
    SessionGate gate{gate_rows.data(), batch.size, gate_width};
    SessionEncoding enc{enc_rows.data(), batch.size, enc_width};
    ranker.model->Score({.batch = batch,
                         .workspace = workspace.get(),
                         .out = out,
                         .gate = &gate,
                         .encoding = &enc});
    {
      CountingScope scope;
      for (int pass = 0; pass < 5; ++pass) {
        ranker.model->GateInto(batch, workspace.get(), gate_rows);
        ranker.model->EncodeSessionInto(batch, workspace.get(), enc_rows);
        ranker.model->Score({.batch = batch,
                             .workspace = workspace.get(),
                             .out = out,
                             .gate = &gate,
                             .encoding = &enc});
      }
      EXPECT_EQ(scope.count(), 0)
          << ranker.label << ": steady-state gate+encoding path hit the heap";
    }
  }
}

// Smaller batches after a big one must also run allocation-free (slabs
// only ever grow; the engine sizes workspaces to its batching cap).
TEST_P(ScoreIntoAllocTest, SmallerBatchAfterWarmupAllocatesNothing) {
  const DatasetMeta meta = TestMeta(GetParam());
  std::vector<Example> examples = MakeExamples(24, /*seed=*/606);
  std::vector<const Example*> items;
  for (const Example& ex : examples) items.push_back(&ex);
  const Batch big = CollateBatch(items, meta, nullptr);
  const Batch small = CollateBatch(
      {items.begin(), items.begin() + 3}, meta, nullptr);

  for (NamedRanker& ranker : MakeRankers(meta)) {
    auto workspace = ranker.model->CreateInferenceWorkspace(32);
    std::vector<float> out(static_cast<size_t>(big.size));
    ranker.model->Score({.batch = big,
                         .workspace = workspace.get(),
                         .out = out});
    {
      CountingScope scope;
      ranker.model->Score({.batch = small,
                           .workspace = workspace.get(),
                           .out = out});
      ranker.model->Score({.batch = big,
                           .workspace = workspace.get(),
                           .out = out});
      EXPECT_EQ(scope.count(), 0) << ranker.label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, ScoreIntoAllocTest, ::testing::Bool());

}  // namespace
}  // namespace awmoe
