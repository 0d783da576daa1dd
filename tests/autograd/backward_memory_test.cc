// Gradient memory of one training backward pass: a global operator-new
// interposer tracks the bytes currently allocated and counts every
// allocation, and the peak reached inside Var::Backward on one 128-row
// contrastive AW-MoE batch (the train_epoch benchmark's shard) must
// stay below a fixed bound, as must the number of heap allocations the
// pass makes. Backward releases each op result's gradient once its
// closure has run, and the elementwise closures rewrite the gradient
// they own instead of allocating a fresh one.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/variable.h"
#include "core/aw_moe.h"
#include "core/contrastive.h"
#include "core/trainer.h"
#include "data/batcher.h"
#include "data/jd_synthetic.h"
#include "models/model_dims.h"
#include "util/rng.h"

namespace {

// ---------------------------------------------------------------------
// Operator-new interposer. Each block carries its size in a 16-byte
// header (keeping the default alignment), so delete can subtract it.
// Single-threaded test; the atomics only keep the counting free of UB.
// ---------------------------------------------------------------------

constexpr std::size_t kHeader = 16;
std::atomic<int64_t> g_live_bytes{0};
std::atomic<int64_t> g_peak_bytes{0};
std::atomic<int64_t> g_allocations{0};
std::atomic<int64_t> g_allocated_bytes{0};

void* TrackedAlloc(std::size_t size) {
  char* block = static_cast<char*>(std::malloc(size + kHeader));
  if (block == nullptr) return nullptr;
  *reinterpret_cast<std::size_t*>(block) = size;
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(static_cast<int64_t>(size),
                              std::memory_order_relaxed);
  const int64_t live =
      g_live_bytes.fetch_add(static_cast<int64_t>(size),
                             std::memory_order_relaxed) +
      static_cast<int64_t>(size);
  if (live > g_peak_bytes.load(std::memory_order_relaxed)) {
    g_peak_bytes.store(live, std::memory_order_relaxed);
  }
  return block + kHeader;
}

void TrackedFree(void* p) {
  if (p == nullptr) return;
  char* block = static_cast<char*>(p) - kHeader;
  g_live_bytes.fetch_sub(
      static_cast<int64_t>(*reinterpret_cast<std::size_t*>(block)),
      std::memory_order_relaxed);
  std::free(block);
}

}  // namespace

void* operator new(std::size_t size) {
  void* p = TrackedAlloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  void* p = TrackedAlloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return TrackedAlloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return TrackedAlloc(size);
}

void operator delete(void* p) noexcept { TrackedFree(p); }
void operator delete[](void* p) noexcept { TrackedFree(p); }
void operator delete(void* p, std::size_t) noexcept { TrackedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { TrackedFree(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  TrackedFree(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  TrackedFree(p);
}

namespace awmoe {
namespace {

TEST(BackwardMemoryTest, PeakLiveBytesOfOneContrastiveBatch) {
  JdConfig jd;
  jd.seed = 3;
  jd.train_sessions = 200;
  jd.test_sessions = 10;
  jd.longtail1_sessions = 5;
  jd.longtail2_sessions = 5;
  const JdDataset data = JdSyntheticGenerator(jd).Generate();
  Standardizer standardizer;
  standardizer.Fit(data.train);
  ASSERT_GE(data.train.size(), 128u);
  std::vector<const Example*> rows;
  for (size_t r = 0; r < 128; ++r) rows.push_back(&data.train[r]);
  const Batch batch = CollateBatch(rows, data.meta, &standardizer);

  AwMoeConfig model_config;
  model_config.dims = ModelDims::Default();
  Rng init_rng(7);
  AwMoeRanker model(data.meta, model_config, &init_rng);
  TrainerConfig config;
  config.contrastive = true;
  Rng augment_rng(13);
  ContrastiveAugmenter augmenter(config.cl, &augment_rng);
  BatchLossTerms terms;
  Var loss = BuildTrainingLoss(&model, batch, config, &augmenter, &terms);

  const int64_t before = g_live_bytes.load(std::memory_order_relaxed);
  g_peak_bytes.store(before, std::memory_order_relaxed);
  const int64_t allocations_before =
      g_allocations.load(std::memory_order_relaxed);
  const int64_t allocated_before =
      g_allocated_bytes.load(std::memory_order_relaxed);
  loss.Backward();
  const int64_t allocations =
      g_allocations.load(std::memory_order_relaxed) - allocations_before;
  const int64_t allocated =
      g_allocated_bytes.load(std::memory_order_relaxed) - allocated_before;
  const int64_t peak =
      g_peak_bytes.load(std::memory_order_relaxed) - before;
  const int64_t retained =
      g_live_bytes.load(std::memory_order_relaxed) - before;
  std::printf("Backward on 128 contrastive rows: peak live %.2f MB, "
              "retained %.2f MB, %lld allocations, %.2f MB allocated\n",
              static_cast<double>(peak) / 1e6,
              static_cast<double>(retained) / 1e6,
              static_cast<long long>(allocations),
              static_cast<double>(allocated) / 1e6);
  RecordProperty("peak_live_bytes", std::to_string(peak));
  RecordProperty("allocations", std::to_string(allocations));
  RecordProperty("allocated_bytes", std::to_string(allocated));
  EXPECT_LT(peak, 2'500'000);
  // What stays alive is the leaves' gradients (the parameters), not the
  // intermediate ones.
  EXPECT_LT(retained, 1'000'000);
  // 240 allocations totalling 4.22 MB on this batch. A visited set
  // with one heap node per graph node (492, 4.23 MB) or elementwise
  // closures that allocate their results (519, 5.27 MB) cross these
  // bounds.
  EXPECT_LE(allocations, 240);
  EXPECT_LT(allocated, 5'000'000);
}

}  // namespace
}  // namespace awmoe
