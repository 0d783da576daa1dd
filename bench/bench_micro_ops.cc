// Op-level microbenchmarks: GEMM kernels, the attention/gate units, the
// full AW-MoE forward and backward passes, and the contrastive loss.
// These quantify the complexity analysis of §III-E — time is dominated by
// M activation/gate-unit evaluations plus K expert evaluations — and give
// the per-batch costs behind the training times reported in
// EXPERIMENTS.md.

#include <benchmark/benchmark.h>

#include "autograd/ops.h"
#include "common/experiment_lib.h"
#include "mat/kernels.h"
#include "models/attention_unit.h"
#include "nn/init.h"

namespace {

using namespace awmoe;
using namespace awmoe::bench;

void BM_MatMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Matrix a = NormalInit(n, n, 1.0f, &rng);
  Matrix b = NormalInit(n, n, 1.0f, &rng);
  for (auto _ : state) {
    Matrix c = MatMul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_MatMulBatchShaped(benchmark::State& state) {
  // The shape that dominates training: [batch, in] x [in, out].
  Rng rng(2);
  Matrix x = NormalInit(256, 27, 1.0f, &rng);
  Matrix w = NormalInit(27, 32, 1.0f, &rng);
  for (auto _ : state) {
    Matrix y = MatMul(x, w);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_MatMulBatchShaped);

void BM_SoftmaxRows(benchmark::State& state) {
  Rng rng(3);
  Matrix a = NormalInit(256, 64, 1.0f, &rng);
  for (auto _ : state) {
    Matrix s = SoftmaxRows(a);
    benchmark::DoNotOptimize(s.data());
  }
}
BENCHMARK(BM_SoftmaxRows);

void BM_GatherScatter(benchmark::State& state) {
  Rng rng(4);
  Matrix table = NormalInit(5000, 8, 0.05f, &rng);
  std::vector<int64_t> idx(256);
  for (auto& i : idx) i = rng.UniformInt(5000);
  Matrix grad = NormalInit(256, 8, 1.0f, &rng);
  for (auto _ : state) {
    Matrix rows = GatherRows(table, idx);
    ScatterAddRows(&table, idx, grad);
    benchmark::DoNotOptimize(rows.data());
  }
}
BENCHMARK(BM_GatherScatter);

void BM_AttentionUnitForward(benchmark::State& state) {
  Rng rng(5);
  AttentionUnit unit(16, {16, 8}, /*out_dim=*/1, &rng);
  Var h_user(NormalInit(256, 16, 1.0f, &rng));
  Var h_ref(NormalInit(256, 16, 1.0f, &rng));
  NoGradGuard guard;
  for (auto _ : state) {
    Var score = unit.Forward(h_user, h_ref);
    benchmark::DoNotOptimize(score.impl().get());
  }
}
BENCHMARK(BM_AttentionUnitForward);

/// Fixture with a full-size batch through the default AW-MoE.
struct MoeFixture {
  MoeFixture() {
    JdConfig jd;
    jd.train_sessions = 200;
    jd.test_sessions = 10;
    jd.longtail1_sessions = 5;
    jd.longtail2_sessions = 5;
    jd.seed = 3;
    data = JdSyntheticGenerator(jd).Generate();
    standardizer.Fit(data.train);
    Rng rng(5);
    AwMoeConfig config;
    model = std::make_unique<AwMoeRanker>(data.meta, config, &rng);
    std::vector<const Example*> slice;
    for (size_t i = 0; i < 256 && i < data.train.size(); ++i) {
      slice.push_back(&data.train[i]);
    }
    batch = CollateBatch(slice, data.meta, &standardizer);
  }
  static MoeFixture& Get() {
    static MoeFixture* fixture = new MoeFixture();
    return *fixture;
  }
  JdDataset data;
  Standardizer standardizer;
  std::unique_ptr<AwMoeRanker> model;
  Batch batch;
};

void BM_AwMoeForwardInference(benchmark::State& state) {
  MoeFixture& fixture = MoeFixture::Get();
  NoGradGuard guard;
  for (auto _ : state) {
    Var logits = fixture.model->ForwardLogits(fixture.batch);
    benchmark::DoNotOptimize(logits.impl().get());
  }
  state.SetItemsProcessed(state.iterations() * fixture.batch.size);
}
BENCHMARK(BM_AwMoeForwardInference)->Unit(benchmark::kMillisecond);

void BM_AwMoeForwardBackward(benchmark::State& state) {
  MoeFixture& fixture = MoeFixture::Get();
  for (auto _ : state) {
    fixture.model->ZeroGrad();
    Var loss = ag::BceWithLogitsLoss(
        fixture.model->ForwardLogits(fixture.batch), fixture.batch.labels);
    loss.Backward();
    benchmark::DoNotOptimize(loss.impl().get());
  }
  state.SetItemsProcessed(state.iterations() * fixture.batch.size);
}
BENCHMARK(BM_AwMoeForwardBackward)->Unit(benchmark::kMillisecond);

void BM_GateOnlyForward(benchmark::State& state) {
  MoeFixture& fixture = MoeFixture::Get();
  NoGradGuard guard;
  for (auto _ : state) {
    Var gate = fixture.model->GateRepresentation(fixture.batch);
    benchmark::DoNotOptimize(gate.impl().get());
  }
  state.SetItemsProcessed(state.iterations() * fixture.batch.size);
}
BENCHMARK(BM_GateOnlyForward)->Unit(benchmark::kMillisecond);

void BM_InfoNceLoss(benchmark::State& state) {
  Rng rng(6);
  Var anchor(NormalInit(256, 4, 1.0f, &rng), /*requires_grad=*/true);
  Var positive(NormalInit(256, 4, 1.0f, &rng));
  std::vector<Var> negatives;
  for (int r = 0; r < 3; ++r) {
    negatives.emplace_back(NormalInit(256, 4, 1.0f, &rng));
  }
  for (auto _ : state) {
    Var loss = ag::InfoNceLoss(anchor, positive, negatives);
    loss.Backward();
    anchor.ZeroGrad();
    benchmark::DoNotOptimize(loss.impl().get());
  }
}
BENCHMARK(BM_InfoNceLoss);

}  // namespace

BENCHMARK_MAIN();
