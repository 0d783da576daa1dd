// Hot-path inference API comparison: the legacy rows run a ranker's
// forward body on the Var graph (ForwardLogits under NoGradGuard), the
// others on the workspace arena (Score), per ranker, swept
// over micro-batch sizes. Reported per case:
//   - p50_us / p99_us: manual per-iteration latency percentiles
//     (steady_clock around ONLY the model call);
//   - allocs_per_op: heap allocations per forward, measured by a global
//     operator-new interposer scoped to the model call — the ScoreInto
//     rows must read 0 after warm-up, the legacy rows show the per-op
//     graph/Matrix allocation load ScoreInto removes;
//   - items_per_second: scored candidates per second.
// Kernel-tier columns (PR 7): every ScoreInto case runs in a
// _Reference and a _Fast variant (label = dispatch-table name), and the
// raw BM_MatMulInto benches report a `gflops` rate counter per tier, so
// the smoke JSON records the fast tier's speedup honestly alongside the
// ISA context (`avx2_fma_available`, worker core count) on the machine
// that produced it.
// scripts/check.sh runs this in smoke mode and keeps the JSON in the CI
// bench-smoke artifact, so the ScoreInto-vs-legacy delta is recorded on
// every run.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/experiment_lib.h"
#include "models/category_moe.h"
#include "models/dnn_ranker.h"
#include "nn/inference.h"
#include "serving/request.h"

namespace {

// ---------------------------------------------------------------------
// Operator-new interposer: counts every allocation in the binary; each
// benchmark iteration reads the counter around the model call only.
// ---------------------------------------------------------------------

std::atomic<int64_t> g_alloc_count{0};

}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace awmoe;

struct InferenceFixture {
  InferenceFixture() {
    JdConfig jd;
    jd.train_sessions = 50;
    jd.test_sessions = 200;
    jd.longtail1_sessions = 5;
    jd.longtail2_sessions = 5;
    jd.seed = 7;
    data = JdSyntheticGenerator(jd).Generate();
    standardizer.Fit(data.full_test);
    {
      Rng rng(21);
      dnn = std::make_unique<DnnRanker>(data.meta, ModelDims::Default(),
                                        &rng);
    }
    {
      Rng rng(22);
      din = std::make_unique<DinRanker>(data.meta, ModelDims::Default(),
                                        &rng);
    }
    {
      Rng rng(23);
      cat_moe = std::make_unique<CategoryMoeRanker>(
          data.meta, ModelDims::Default(), &rng);
    }
    {
      Rng rng(24);
      AwMoeConfig config;
      aw_moe = std::make_unique<AwMoeRanker>(data.meta, config, &rng);
    }
  }

  static InferenceFixture& Get() {
    static InferenceFixture* fixture = new InferenceFixture();
    return *fixture;
  }

  /// A collated micro-batch of the first `size` test impressions.
  Batch MakeBatch(int64_t size) {
    std::vector<const Example*> items;
    items.reserve(static_cast<size_t>(size));
    for (int64_t i = 0; i < size; ++i) {
      items.push_back(
          &data.full_test[static_cast<size_t>(i) % data.full_test.size()]);
    }
    return CollateBatch(items, data.meta, &standardizer);
  }

  JdDataset data;
  Standardizer standardizer;
  std::unique_ptr<DnnRanker> dnn;
  std::unique_ptr<DinRanker> din;
  std::unique_ptr<CategoryMoeRanker> cat_moe;
  std::unique_ptr<AwMoeRanker> aw_moe;
};

enum class Path {
  kLegacy,
  kScoreInto,
  kScoreIntoWithGate,
  // Level-2 session feature store (PR 8) shapes:
  kEncodeSession,       // candidate-independent half alone
  kScoreWithEncoding,   // tail pass replaying a cached encoding —
                        // the compute an encoding-cache hit actually runs
};

void RunInference(benchmark::State& state, Ranker* model, Path path,
                  std::optional<KernelTier> tier = std::nullopt) {
  std::optional<ScopedKernelTier> pin;
  if (tier.has_value()) {
    if (*tier == KernelTier::kFast && !FastKernelTierAvailable()) {
      state.SkipWithError("fast kernel tier unavailable on this CPU/build");
      return;
    }
    pin.emplace(*tier);
  }
  state.SetLabel(
      KernelTierName(tier.has_value() ? *tier : ActiveKernelTier()));
  InferenceFixture& fixture = InferenceFixture::Get();
  const int64_t batch_size = state.range(0);
  const Batch batch = fixture.MakeBatch(batch_size);
  auto workspace = model->CreateInferenceWorkspace(batch_size);
  std::vector<float> out(static_cast<size_t>(batch_size));

  const ServingTraits traits = model->Traits(fixture.data.meta);
  const int64_t width = traits.gate_width;
  std::vector<float> gate_rows;
  SessionGate gate{nullptr, 0, 0};
  if (path == Path::kScoreIntoWithGate) {
    gate_rows.resize(static_cast<size_t>(batch_size * width));
    model->GateInto(batch, workspace.get(), gate_rows);
    gate = SessionGate{gate_rows.data(), batch_size, width};
  }
  const int64_t enc_width = traits.encoding_width;
  std::vector<float> enc_rows;
  SessionEncoding encoding{nullptr, 0, 0};
  if (path == Path::kEncodeSession || path == Path::kScoreWithEncoding) {
    if (enc_width == 0) {
      state.SkipWithError("model has no split encode/score path");
      return;
    }
    enc_rows.resize(static_cast<size_t>(batch_size * enc_width));
    model->EncodeSessionInto(batch, workspace.get(), enc_rows);
    encoding = SessionEncoding{enc_rows.data(), batch_size, enc_width};
  }
  // The legacy rows record no graph.
  const NoGradGuard no_grad;
  // Warm-up: materialise workspace slabs outside measurement.
  switch (path) {
    case Path::kLegacy:
      benchmark::DoNotOptimize(model->ForwardLogits(batch));
      break;
    case Path::kEncodeSession:
      model->EncodeSessionInto(batch, workspace.get(), enc_rows);
      break;
    case Path::kScoreWithEncoding:
      model->Score({.batch = batch,
                    .workspace = workspace.get(),
                    .out = out,
                    .encoding = &encoding});
      break;
    default:
      model->Score({.batch = batch,
                    .workspace = workspace.get(),
                    .out = out,
                    .gate = gate.data != nullptr ? &gate : nullptr});
      break;
  }

  std::vector<double> iteration_us;
  iteration_us.reserve(1 << 14);
  int64_t allocs = 0;
  for (auto _ : state) {
    const int64_t alloc_before =
        g_alloc_count.load(std::memory_order_relaxed);
    const auto start = std::chrono::steady_clock::now();
    switch (path) {
      case Path::kLegacy: {
        Var logits = model->ForwardLogits(batch);
        benchmark::DoNotOptimize(logits);
        break;
      }
      case Path::kScoreInto:
        model->Score({.batch = batch,
                      .workspace = workspace.get(),
                      .out = out});
        benchmark::DoNotOptimize(out.data());
        break;
      case Path::kScoreIntoWithGate:
        model->Score({.batch = batch,
                      .workspace = workspace.get(),
                      .out = out,
                      .gate = &gate});
        benchmark::DoNotOptimize(out.data());
        break;
      case Path::kEncodeSession:
        model->EncodeSessionInto(batch, workspace.get(), enc_rows);
        benchmark::DoNotOptimize(enc_rows.data());
        break;
      case Path::kScoreWithEncoding:
        model->Score({.batch = batch,
                      .workspace = workspace.get(),
                      .out = out,
                      .encoding = &encoding});
        benchmark::DoNotOptimize(out.data());
        break;
    }
    const auto stop = std::chrono::steady_clock::now();
    allocs += g_alloc_count.load(std::memory_order_relaxed) - alloc_before;
    iteration_us.push_back(
        std::chrono::duration<double, std::micro>(stop - start).count());
  }

  std::sort(iteration_us.begin(), iteration_us.end());
  auto percentile = [&](double p) {
    if (iteration_us.empty()) return 0.0;
    const size_t idx = static_cast<size_t>(
        p / 100.0 * static_cast<double>(iteration_us.size() - 1) + 0.5);
    return iteration_us[std::min(idx, iteration_us.size() - 1)];
  };
  state.counters["p50_us"] = percentile(50.0);
  state.counters["p99_us"] = percentile(99.0);
  state.counters["allocs_per_op"] =
      state.iterations() > 0
          ? static_cast<double>(allocs) /
                static_cast<double>(state.iterations())
          : 0.0;
  state.SetItemsProcessed(state.iterations() * batch_size);
}

#define AWMOE_INFERENCE_BENCH(name, member, path)                  \
  void name(benchmark::State& state) {                             \
    RunInference(state, InferenceFixture::Get().member.get(), path); \
  }                                                                \
  BENCHMARK(name)->Arg(8)->Arg(64)->Arg(256)->Unit(               \
      benchmark::kMicrosecond)

AWMOE_INFERENCE_BENCH(BM_Legacy_DNN, dnn, Path::kLegacy);
AWMOE_INFERENCE_BENCH(BM_ScoreInto_DNN, dnn, Path::kScoreInto);
AWMOE_INFERENCE_BENCH(BM_Legacy_DIN, din, Path::kLegacy);
AWMOE_INFERENCE_BENCH(BM_ScoreInto_DIN, din, Path::kScoreInto);
AWMOE_INFERENCE_BENCH(BM_Legacy_CategoryMoE, cat_moe, Path::kLegacy);
AWMOE_INFERENCE_BENCH(BM_ScoreInto_CategoryMoE, cat_moe, Path::kScoreInto);
AWMOE_INFERENCE_BENCH(BM_Legacy_AWMoE, aw_moe, Path::kLegacy);
AWMOE_INFERENCE_BENCH(BM_ScoreInto_AWMoE, aw_moe, Path::kScoreInto);
// §III-F serving shape: expert path only, gate supplied from cache.
AWMOE_INFERENCE_BENCH(BM_ScoreIntoSharedGate_AWMoE, aw_moe,
                      Path::kScoreIntoWithGate);
// Level-2 session feature store shapes (PR 8): the candidate-
// independent half alone, and the tail pass that replays a cached
// encoding — the delta between BM_ScoreInto_* and
// BM_ScoreWithEncoding_* is the compute an encoding-cache hit saves.
AWMOE_INFERENCE_BENCH(BM_EncodeSession_DIN, din, Path::kEncodeSession);
AWMOE_INFERENCE_BENCH(BM_ScoreWithEncoding_DIN, din,
                      Path::kScoreWithEncoding);
AWMOE_INFERENCE_BENCH(BM_EncodeSession_AWMoE, aw_moe, Path::kEncodeSession);
AWMOE_INFERENCE_BENCH(BM_ScoreWithEncoding_AWMoE, aw_moe,
                      Path::kScoreWithEncoding);

// Tier comparison: the same ScoreInto cases pinned to each kernel tier
// (same fixture, same batches) — the per-tier rows of the smoke JSON.
#define AWMOE_TIER_BENCH(name, member, tier)                           \
  void name(benchmark::State& state) {                                 \
    RunInference(state, InferenceFixture::Get().member.get(),          \
                 Path::kScoreInto, tier);                              \
  }                                                                    \
  BENCHMARK(name)->Arg(8)->Arg(64)->Arg(256)->Unit(                    \
      benchmark::kMicrosecond)

AWMOE_TIER_BENCH(BM_ScoreInto_DNN_Reference, dnn, KernelTier::kReference);
AWMOE_TIER_BENCH(BM_ScoreInto_DNN_Fast, dnn, KernelTier::kFast);
AWMOE_TIER_BENCH(BM_ScoreInto_DIN_Reference, din, KernelTier::kReference);
AWMOE_TIER_BENCH(BM_ScoreInto_DIN_Fast, din, KernelTier::kFast);
AWMOE_TIER_BENCH(BM_ScoreInto_CategoryMoE_Reference, cat_moe,
                 KernelTier::kReference);
AWMOE_TIER_BENCH(BM_ScoreInto_CategoryMoE_Fast, cat_moe,
                 KernelTier::kFast);
AWMOE_TIER_BENCH(BM_ScoreInto_AWMoE_Reference, aw_moe,
                 KernelTier::kReference);
AWMOE_TIER_BENCH(BM_ScoreInto_AWMoE_Fast, aw_moe, KernelTier::kFast);

// ---------------------------------------------------------------------
// Raw MatMulInto per tier: the MatMulInto-dominated cases whose
// `gflops` counter the smoke JSON keeps as the tier-speedup record
// (single thread).
// ---------------------------------------------------------------------

void RunMatMul(benchmark::State& state, KernelTier tier) {
  if (tier == KernelTier::kFast && !FastKernelTierAvailable()) {
    state.SkipWithError("fast kernel tier unavailable on this CPU/build");
    return;
  }
  ScopedKernelTier pin(tier);
  const int64_t m = state.range(0), k = 128, n = 128;
  Rng rng(17);
  std::vector<float> a(static_cast<size_t>(m * k));
  for (float& v : a) v = static_cast<float>(rng.Normal());
  Matrix w(k, n);
  for (int64_t i = 0; i < w.size(); ++i) {
    w.data()[i] = static_cast<float>(rng.Normal());
  }
  std::vector<float> out(static_cast<size_t>(m * n));
  const ConstMatView a_view(a.data(), m, k, k);
  const MatView out_view{out.data(), m, n, n};
  for (auto _ : state) {
    MatMulInto(a_view, w, out_view);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel(KernelTierName(tier));
  state.counters["gflops"] =
      benchmark::Counter(MatMulFlops(m, k, n) * 1e-9,
                         benchmark::Counter::kIsIterationInvariantRate);
}

void BM_MatMulInto_Reference(benchmark::State& state) {
  RunMatMul(state, KernelTier::kReference);
}
void BM_MatMulInto_Fast(benchmark::State& state) {
  RunMatMul(state, KernelTier::kFast);
}
BENCHMARK(BM_MatMulInto_Reference)
    ->Arg(8)->Arg(64)->Arg(256)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MatMulInto_Fast)
    ->Arg(8)->Arg(64)->Arg(256)->Unit(benchmark::kMicrosecond);

}  // namespace

// Custom main so the smoke JSON carries the ISA/core context the tier
// numbers were measured under.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext(
      "avx2_fma_available",
      awmoe::FastKernelTierAvailable() ? "true" : "false");
  benchmark::AddCustomContext(
      "active_kernel_tier",
      awmoe::KernelTierName(awmoe::ActiveKernelTier()));
  benchmark::AddCustomContext(
      "hardware_threads",
      std::to_string(std::thread::hardware_concurrency()));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
