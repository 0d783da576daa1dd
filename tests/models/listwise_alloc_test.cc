// Allocation-freeness of the slate-scoring hot path: a global
// operator-new interposer (own binary — the interposer is process-wide)
// counts heap allocations, and steady-state ScoreSlateInto calls, after
// one warm-up pass grows the workspace arena, must perform exactly
// zero. Same contract as the pointwise ScoreInto suite
// (score_into_alloc_test.cc): the serving lane's slate branch never
// pays the allocator under load.

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "data/batcher.h"
#include "models/listwise/listwise_reranker.h"
#include "nn/inference.h"
#include "util/rng.h"

namespace {

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

/// Three slates of 7 / 4 / 13 rows (session ids in batch order, so
/// SlateStartsFromBatch recovers them too).
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
    ex.session_id = i < 7 ? 1 : (i < 11 ? 2 : 3);
    ex.numeric.resize(kNumNumericFeatures);
    for (float& v : ex.numeric) v = static_cast<float>(rng.Normal());
    examples.push_back(std::move(ex));
  }
  return examples;
}

TEST(ListwiseAllocTest, SteadyStateScoreSlateIntoAllocatesNothing) {
  const DatasetMeta meta = TestMeta();
  std::vector<Example> examples = MakeExamples(24, /*seed=*/909);
  std::vector<const Example*> items;
  for (const Example& ex : examples) items.push_back(&ex);
  const Batch batch = CollateBatch(items, meta, nullptr);
  const std::vector<int64_t> starts = {0, 7, 11};

  Rng rng(15);
  ListwiseReranker model(meta, TinyDims(), TinyListwiseDims(), &rng);
  auto workspace = model.CreateInferenceWorkspace(32);
  std::vector<float> out(static_cast<size_t>(batch.size));
  // Warm-up: the first pass materialises arena slabs, the second proves
  // they settled.
  model.Score({.batch = batch,
               .workspace = workspace.get(),
               .out = out,
               .slate_starts = starts});
  model.Score({.batch = batch,
               .workspace = workspace.get(),
               .out = out,
               .slate_starts = starts});
  {
    CountingScope scope;
    for (int pass = 0; pass < 5; ++pass) {
      model.Score({.batch = batch,
                   .workspace = workspace.get(),
                   .out = out,
                   .slate_starts = starts});
    }
    EXPECT_EQ(scope.count(), 0)
        << "steady-state ScoreSlateInto hit the heap";
  }
}

// The pointwise-API shim (ScoreInto derives slate starts from session-
// id runs into a thread-local scratch vector) must also settle to zero
// once that vector's capacity is warm.
TEST(ListwiseAllocTest, SteadyStateScoreIntoShimAllocatesNothing) {
  const DatasetMeta meta = TestMeta();
  std::vector<Example> examples = MakeExamples(24, /*seed=*/1010);
  std::vector<const Example*> items;
  for (const Example& ex : examples) items.push_back(&ex);
  const Batch batch = CollateBatch(items, meta, nullptr);

  Rng rng(16);
  ListwiseReranker model(meta, TinyDims(), TinyListwiseDims(), &rng);
  auto workspace = model.CreateInferenceWorkspace(32);
  std::vector<float> out(static_cast<size_t>(batch.size));
  model.Score({.batch = batch, .workspace = workspace.get(), .out = out});
  model.Score({.batch = batch, .workspace = workspace.get(), .out = out});
  {
    CountingScope scope;
    for (int pass = 0; pass < 5; ++pass) {
      model.Score({.batch = batch, .workspace = workspace.get(), .out = out});
    }
    EXPECT_EQ(scope.count(), 0) << "steady-state ScoreInto shim hit the heap";
  }
}

// Smaller slates after a big batch must also run allocation-free (arena
// slabs only ever grow; the engine sizes workspaces to its batch cap).
TEST(ListwiseAllocTest, SmallerSlatesAfterWarmupAllocateNothing) {
  const DatasetMeta meta = TestMeta();
  std::vector<Example> examples = MakeExamples(24, /*seed=*/1111);
  std::vector<const Example*> items;
  for (const Example& ex : examples) items.push_back(&ex);
  const Batch big = CollateBatch(items, meta, nullptr);
  const Batch small =
      CollateBatch({items.begin(), items.begin() + 4}, meta, nullptr);
  const std::vector<int64_t> big_starts = {0, 7, 11};
  const std::vector<int64_t> small_starts = {0};

  Rng rng(18);
  ListwiseReranker model(meta, TinyDims(), TinyListwiseDims(), &rng);
  auto workspace = model.CreateInferenceWorkspace(32);
  std::vector<float> out(static_cast<size_t>(big.size));
  model.Score({.batch = big,
               .workspace = workspace.get(),
               .out = out,
               .slate_starts = big_starts});
  {
    CountingScope scope;
    model.Score({.batch = small,
                 .workspace = workspace.get(),
                 .out = {out.data(), static_cast<size_t>(small.size)},
                 .slate_starts = small_starts});
    model.Score({.batch = big,
                 .workspace = workspace.get(),
                 .out = out,
                 .slate_starts = big_starts});
    EXPECT_EQ(scope.count(), 0);
  }
}

}  // namespace
}  // namespace awmoe
