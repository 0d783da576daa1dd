// Kernel-tier regression suite: the fast (AVX2/FMA) tier must agree
// with the reference tier to an epsilon/ULP bound for every ranker,
// both gate modes and a sweep of batch sizes; the forced-scalar
// dispatch path must stay bitwise-identical to the reference kernels;
// and the fast tier must keep per-row results independent of
// micro-batch composition (the invariant the serving engine's session
// fusion relies on). The NN/TN/NT GEMM rows behind the mat MatMul
// family (and so behind training) get the same two checks per form.
// Also holds the regression tests for the arena alignment/Rewind fixes.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/aw_moe.h"
#include "data/batcher.h"
#include "mat/kernels.h"
#include "models/category_moe.h"
#include "models/dnn_ranker.h"
#include "nn/inference.h"
#include "util/rng.h"

namespace awmoe {
namespace {

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

/// ULP distance between two finite floats of the same sign regime
/// (monotone integer mapping of the IEEE ordering).
int64_t UlpDistance(float a, float b) {
  const auto key = [](float x) {
    int32_t bits = std::bit_cast<int32_t>(x);
    return bits >= 0 ? static_cast<int64_t>(bits)
                     : -static_cast<int64_t>(bits & 0x7fffffff);
  };
  return std::abs(key(a) - key(b));
}

/// The fast tier's acceptance bound vs the reference tier: a handful
/// of reassociated FMA sums through a few layers. Either a small
/// absolute gap (values near 0) or a tight ULP budget must hold.
::testing::AssertionResult TierClose(float fast, float reference) {
  if (!std::isfinite(fast) || !std::isfinite(reference)) {
    return ::testing::AssertionFailure()
           << "non-finite: fast=" << fast << " reference=" << reference;
  }
  const double abs_err = std::abs(static_cast<double>(fast) - reference);
  const int64_t ulps = UlpDistance(fast, reference);
  if (abs_err <= 1e-5 || ulps <= 512) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "fast=" << fast << " reference=" << reference
         << " abs_err=" << abs_err << " ulps=" << ulps;
}

std::vector<float> ScoreAtTier(Ranker* model, const Batch& batch,
                               InferenceWorkspace* workspace,
                               KernelTier tier) {
  ScopedKernelTier pin(tier);
  std::vector<float> out(static_cast<size_t>(batch.size));
  model->Score({.batch = batch, .workspace = workspace, .out = out});
  return out;
}

// ---------------------------------------------------------------------
// Fast-vs-reference agreement.
// ---------------------------------------------------------------------

class KernelTierTest : public ::testing::TestWithParam<bool> {};

// The tentpole acceptance gate: fast tier within epsilon of the
// reference tier for all four rankers x both dataset (gate) modes x
// batch sizes {1, 8, 64, 256}.
TEST_P(KernelTierTest, FastTierMatchesReferenceWithinEpsilon) {
  if (!FastKernelTierAvailable()) {
    GTEST_SKIP() << "fast kernel tier unavailable on this build/CPU";
  }
  const DatasetMeta meta = TestMeta(GetParam());
  for (NamedRanker& ranker : MakeRankers(meta)) {
    auto workspace = ranker.model->CreateInferenceWorkspace(256);
    for (int64_t batch_size : {1, 8, 64, 256}) {
      auto session = MakeSession(/*seed=*/1000 + batch_size, /*session_id=*/7,
                                 /*items=*/batch_size, /*hist=*/4);
      std::vector<const Example*> items;
      for (const Example& ex : session) items.push_back(&ex);
      Batch batch = CollateBatch(items, meta, nullptr);
      const std::vector<float> reference = ScoreAtTier(
          ranker.model.get(), batch, workspace.get(), KernelTier::kReference);
      const std::vector<float> fast = ScoreAtTier(
          ranker.model.get(), batch, workspace.get(), KernelTier::kFast);
      for (int64_t i = 0; i < batch.size; ++i) {
        EXPECT_TRUE(TierClose(fast[static_cast<size_t>(i)],
                              reference[static_cast<size_t>(i)]))
            << ranker.label << " batch " << batch_size << " row " << i;
      }
    }
  }
}

// Gate rows ride the same kernels: AW-MoE's GateInto must agree across
// tiers to the same bound.
TEST_P(KernelTierTest, GateIntoMatchesAcrossTiers) {
  if (!FastKernelTierAvailable()) {
    GTEST_SKIP() << "fast kernel tier unavailable on this build/CPU";
  }
  const DatasetMeta meta = TestMeta(GetParam());
  Rng rng(21);
  AwMoeConfig config;
  config.dims = TinyDims();
  AwMoeRanker model(meta, config, &rng);
  auto session = MakeSession(/*seed=*/177, /*session_id=*/3, /*items=*/9,
                             /*hist=*/5);
  std::vector<const Example*> items;
  for (const Example& ex : session) items.push_back(&ex);
  Batch batch = CollateBatch(items, meta, nullptr);
  auto workspace = model.CreateInferenceWorkspace(16);

  const int64_t k = model.Traits(meta).gate_width;
  std::vector<float> reference(static_cast<size_t>(batch.size * k));
  std::vector<float> fast(reference.size());
  {
    ScopedKernelTier pin(KernelTier::kReference);
    model.GateInto(batch, workspace.get(), reference);
  }
  {
    ScopedKernelTier pin(KernelTier::kFast);
    model.GateInto(batch, workspace.get(), fast);
  }
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_TRUE(TierClose(fast[i], reference[i])) << "gate element " << i;
  }
}

// The serving engine fuses arbitrary session subsets into micro-batches
// and expects a given row to score identically no matter who shares the
// batch. The fast tier's masked tails are designed to preserve exactly
// this: solo-vs-fused must agree BITWISE at the fast tier. The fused
// batch is 112 candidate rows (672 stacked behaviour rows), past a
// serving flush of 64 candidates.
TEST_P(KernelTierTest, FastTierRowsIndependentOfBatchComposition) {
  if (!FastKernelTierAvailable()) {
    GTEST_SKIP() << "fast kernel tier unavailable on this build/CPU";
  }
  const DatasetMeta meta = TestMeta(GetParam());
  ScopedKernelTier pin(KernelTier::kFast);
  const int64_t hists[] = {0, 2, 6, 4, 1};
  const int64_t items[] = {3, 1, 5, 2, 4};
  std::vector<std::vector<Example>> sessions;
  int64_t fused_rows = 0;
  for (int64_t s = 0; s < 20; ++s) {
    const int64_t n = s < 5 ? items[s] : 3 + (s * 7) % 8;
    const int64_t hist = s < 5 ? hists[s] : s % 7;
    sessions.push_back(MakeSession(2200 + static_cast<uint64_t>(s) * 97,
                                   300 + s, n, hist));
    fused_rows += n;
  }
  ASSERT_GE(fused_rows, 64);
  for (NamedRanker& ranker : MakeRankers(meta)) {
    auto workspace = ranker.model->CreateInferenceWorkspace(fused_rows);
    std::vector<std::vector<float>> solo;
    for (const auto& session : sessions) {
      std::vector<const Example*> ptrs;
      for (const Example& ex : session) ptrs.push_back(&ex);
      Batch batch = CollateBatch(ptrs, meta, nullptr);
      std::vector<float> out(static_cast<size_t>(batch.size));
      ranker.model->Score({.batch = batch,
                           .workspace = workspace.get(),
                           .out = out});
      solo.push_back(std::move(out));
    }
    // Fused in reverse session order: different rows, same sessions.
    std::vector<const Example*> fused;
    for (auto it = sessions.rbegin(); it != sessions.rend(); ++it) {
      for (const Example& ex : *it) fused.push_back(&ex);
    }
    Batch batch = CollateBatch(fused, meta, nullptr);
    std::vector<float> got(static_cast<size_t>(batch.size));
    ranker.model->Score({.batch = batch,
                         .workspace = workspace.get(),
                         .out = got});
    size_t row = 0;
    for (size_t s = sessions.size(); s-- > 0;) {
      for (float want : solo[s]) {
        EXPECT_EQ(got[row], want)
            << ranker.label << " fused row " << row << " (session " << s
            << ")";
        ++row;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, KernelTierTest, ::testing::Bool());

// ---------------------------------------------------------------------
// Dispatch resolution + forced-scalar bitwise guarantees.
// ---------------------------------------------------------------------

TEST(KernelDispatchTest, ResolveKernelTierRules) {
  // Unset / "" / "0" mean "no override": fast when available.
  EXPECT_EQ(ResolveKernelTier(nullptr, true), KernelTier::kFast);
  EXPECT_EQ(ResolveKernelTier("", true), KernelTier::kFast);
  EXPECT_EQ(ResolveKernelTier("0", true), KernelTier::kFast);
  // Any other value forces the reference tier.
  EXPECT_EQ(ResolveKernelTier("1", true), KernelTier::kReference);
  EXPECT_EQ(ResolveKernelTier("true", true), KernelTier::kReference);
  // Without a fast tier (non-AVX2 CPU or build) everything is reference.
  EXPECT_EQ(ResolveKernelTier(nullptr, false), KernelTier::kReference);
  EXPECT_EQ(ResolveKernelTier("1", false), KernelTier::kReference);
}

TEST(KernelDispatchTest, TableMetadata) {
  const KernelDispatchTable& reference =
      GetKernelTable(KernelTier::kReference);
  EXPECT_STREQ(reference.name, "reference-scalar");
  EXPECT_TRUE(reference.bitwise_reference);
  EXPECT_STREQ(KernelTierName(KernelTier::kReference), "reference-scalar");
  EXPECT_NE(reference.matmul_nn, nullptr);
  EXPECT_NE(reference.matmul_tn, nullptr);
  EXPECT_NE(reference.matmul_nt, nullptr);
  if (FastKernelTierAvailable()) {
    const KernelDispatchTable& fast = GetKernelTable(KernelTier::kFast);
    EXPECT_STREQ(fast.name, "avx2-fma");
    EXPECT_FALSE(fast.bitwise_reference);
    EXPECT_NE(fast.matmul_nn, nullptr);
    EXPECT_NE(fast.matmul_tn, nullptr);
    EXPECT_NE(fast.matmul_nt, nullptr);
  }
  EXPECT_EQ(MatMulFlops(8, 128, 128), 2.0 * 8 * 128 * 128);
}

// The forced-scalar path is the non-AVX2 fallback: dispatching through
// the reference table must reproduce the Var-graph forward
// BITWISE (not just within epsilon) — the same guarantee the direct
// kernels gave before the dispatch layer existed.
TEST(KernelDispatchTest, ForcedScalarDispatchIsBitwiseReference) {
  ScopedKernelTier pin(KernelTier::kReference);
  for (const bool recommendation : {false, true}) {
    const DatasetMeta meta = TestMeta(recommendation);
    for (NamedRanker& ranker : MakeRankers(meta)) {
      auto session = MakeSession(/*seed=*/3100, /*session_id=*/5,
                                 /*items=*/7, /*hist=*/3);
      std::vector<const Example*> items;
      for (const Example& ex : session) items.push_back(&ex);
      Batch batch = CollateBatch(items, meta, nullptr);
      auto workspace = ranker.model->CreateInferenceWorkspace(8);
      Matrix want;
      {
        NoGradGuard guard;
        want = ranker.model->ForwardLogits(batch).value();
      }
      std::vector<float> got(static_cast<size_t>(batch.size));
      ranker.model->Score({.batch = batch,
                           .workspace = workspace.get(),
                           .out = got});
      for (int64_t i = 0; i < batch.size; ++i) {
        EXPECT_EQ(got[static_cast<size_t>(i)], want(i, 0))
            << ranker.label << " row " << i;
      }
    }
  }
}

/// SigmoidSpanInto at `tier` on non-finite logits: NaN stays NaN (a
/// NaN score must not pass as a probability), +Inf saturates to exactly
/// 1 and -Inf to exactly 0. The 11-element span puts each value both in
/// a full vector lane and in the padded tail, next to finite lanes.
void CheckSigmoidNonFinite(KernelTier tier) {
  ScopedKernelTier pin(tier);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> x = {nan,  inf,  -inf, 0.5f, -2.0f, 1.0f,
                                0.0f, 3.0f, nan,  inf,  -inf};
  std::vector<float> y(x.size());
  SigmoidSpanInto(x, y);
  for (size_t i = 0; i < x.size(); ++i) {
    float solo = 0.0f;
    SigmoidSpanInto(std::span<const float>(&x[i], 1),
                    std::span<float>(&solo, 1));
    if (std::isnan(x[i])) {
      EXPECT_TRUE(std::isnan(y[i])) << KernelTierName(tier) << " lane " << i;
      EXPECT_TRUE(std::isnan(solo)) << KernelTierName(tier) << " lane " << i;
      continue;
    }
    if (std::isinf(x[i])) {
      EXPECT_EQ(y[i], x[i] > 0.0f ? 1.0f : 0.0f)
          << KernelTierName(tier) << " lane " << i;
    }
    // Finite and infinite lanes keep their bits next to NaN lanes.
    EXPECT_EQ(std::bit_cast<uint32_t>(y[i]), std::bit_cast<uint32_t>(solo))
        << KernelTierName(tier) << " lane " << i;
  }
}

// Reference-tier SigmoidSpanInto == StableSigmoid element for element;
// fast-tier within epsilon of it, and position-independent (the same
// value produces the same bits in a full vector lane and in a masked
// tail lane). Non-finite logits behave alike at both tiers.
TEST(KernelDispatchTest, SigmoidSpanTierContracts) {
  std::vector<float> x;
  for (float v : {-100.0f, -88.5f, -20.0f, -3.25f, -1.0f, -0.5f, -0.0f,
                  0.0f, 0.5f, 1.0f, 3.25f, 20.0f, 88.5f, 100.0f}) {
    x.push_back(v);
  }
  Rng rng(5);
  while (x.size() < 37) x.push_back(static_cast<float>(rng.Normal() * 4.0));

  std::vector<float> reference(x.size());
  {
    ScopedKernelTier pin(KernelTier::kReference);
    SigmoidSpanInto(x, reference);
  }
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(reference[i], StableSigmoid(x[i])) << "x=" << x[i];
  }
  CheckSigmoidNonFinite(KernelTier::kReference);

  if (!FastKernelTierAvailable()) return;
  CheckSigmoidNonFinite(KernelTier::kFast);
  ScopedKernelTier pin(KernelTier::kFast);
  std::vector<float> fast(x.size());
  SigmoidSpanInto(x, fast);
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_TRUE(TierClose(fast[i], reference[i])) << "x=" << x[i];
    EXPECT_GE(fast[i], 0.0f);
    EXPECT_LE(fast[i], 1.0f);
  }
  // Position independence: each element alone (span of 1 => pure
  // masked-tail path) must reproduce its bits from the full span.
  for (size_t i = 0; i < x.size(); ++i) {
    float solo = 0.0f;
    SigmoidSpanInto(std::span<const float>(&x[i], 1),
                    std::span<float>(&solo, 1));
    EXPECT_EQ(solo, fast[i]) << "x=" << x[i];
  }
  // In-place aliasing is part of the contract.
  std::vector<float> in_place = x;
  SigmoidSpanInto(in_place, in_place);
  EXPECT_EQ(in_place, fast);
}

/// Bit patterns of a matrix, so NaN entries compare equal to
/// themselves and -0.0 differs from +0.0.
std::vector<uint32_t> Bits(const Matrix& m) {
  std::vector<uint32_t> bits(static_cast<size_t>(m.size()));
  for (int64_t i = 0; i < m.size(); ++i) {
    bits[static_cast<size_t>(i)] = std::bit_cast<uint32_t>(m.data()[i]);
  }
  return bits;
}

/// Entries cycle through -0.0, +0.0, NaN, +Inf, -Inf and a random
/// finite value, offset by `phase` so bias and input specials meet in
/// different combinations.
Matrix SpecialMatrix(int64_t rows, int64_t cols, int64_t phase, Rng* rng) {
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {-0.0f, 0.0f,
                            std::numeric_limits<float>::quiet_NaN(), inf,
                            -inf};
  Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) {
    const int64_t slot = (i + phase) % 6;
    m.data()[i] = slot < 5 ? specials[slot]
                           : static_cast<float>(rng->Uniform(-2.0, 2.0));
  }
  return m;
}

// The bias and ReLU rows training runs through AddRowBroadcast and Relu
// are bitwise equal at both tiers: vaddps adds like the scalar add, and
// maxps(x, +0) maps -0.0 and NaN to +0.0 like `x > 0 ? x : 0`. Column
// counts straddle the 8-lane vector body and its scalar tail.
TEST(KernelDispatchTest, BiasAndReluRowsBitwiseAcrossTiers) {
  if (!FastKernelTierAvailable()) {
    GTEST_SKIP() << "fast kernel tier unavailable on this build/CPU";
  }
  const KernelDispatchTable& reference =
      GetKernelTable(KernelTier::kReference);
  const KernelDispatchTable& fast = GetKernelTable(KernelTier::kFast);
  Rng rng(41);
  for (const int64_t cols : {1, 7, 8, 9, 17}) {
    const Matrix a = SpecialMatrix(3, cols, /*phase=*/0, &rng);
    const Matrix bias = SpecialMatrix(1, cols, /*phase=*/cols % 6, &rng);

    Matrix bias_ref = a, bias_fast = a, relu_ref = a, relu_fast = a;
    reference.add_bias(MutableMatrixView(bias_ref), bias);
    fast.add_bias(MutableMatrixView(bias_fast), bias);
    reference.relu(MutableMatrixView(relu_ref));
    fast.relu(MutableMatrixView(relu_fast));
    EXPECT_EQ(Bits(bias_fast), Bits(bias_ref)) << "add_bias cols=" << cols;
    EXPECT_EQ(Bits(relu_fast), Bits(relu_ref)) << "relu cols=" << cols;

    for (const KernelTier tier : {KernelTier::kReference, KernelTier::kFast}) {
      ScopedKernelTier pin(tier);
      EXPECT_EQ(Bits(AddRowBroadcast(a, bias)), Bits(bias_ref))
          << "AddRowBroadcast " << KernelTierName(tier) << " cols=" << cols;
      EXPECT_EQ(Bits(Relu(a)), Bits(relu_ref))
          << "Relu " << KernelTierName(tier) << " cols=" << cols;
    }
  }
}

// ---------------------------------------------------------------------
// GEMM rows: NN / TN / NT, the products behind the mat MatMul family
// (and so behind every autograd forward and backward op).
// ---------------------------------------------------------------------

enum class GemmForm { kNN, kTN, kNT };

const char* GemmFormName(GemmForm form) {
  switch (form) {
    case GemmForm::kNN:
      return "NN";
    case GemmForm::kTN:
      return "TN";
    case GemmForm::kNT:
      return "NT";
  }
  return "?";
}

/// Uniform [-1, 1) entries with every fifth one exactly zero (the
/// reference rows skip zero `a` elements; the fast rows must not care).
Matrix RandomMatrix(int64_t rows, int64_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) {
    m.data()[i] =
        i % 5 == 2 ? 0.0f : static_cast<float>(rng->Uniform(-1.0, 1.0));
  }
  return m;
}

/// The operands of one [m,k] x [k,n] product in `form`'s layout: NN
/// a[m,k] b[k,n], TN a[k,m] b[k,n], NT a[m,k] b[n,k].
struct GemmOperands {
  Matrix a;
  Matrix b;
};

GemmOperands MakeOperands(GemmForm form, int64_t m, int64_t k, int64_t n,
                          Rng* rng) {
  switch (form) {
    case GemmForm::kNN:
      return {RandomMatrix(m, k, rng), RandomMatrix(k, n, rng)};
    case GemmForm::kTN:
      return {RandomMatrix(k, m, rng), RandomMatrix(k, n, rng)};
    case GemmForm::kNT:
      return {RandomMatrix(m, k, rng), RandomMatrix(n, k, rng)};
  }
  return {};
}

/// Runs `form`'s row of `tier`'s table into a NaN-poisoned [m,n]
/// output (so an unwritten element fails every comparison).
Matrix RunGemmRow(KernelTier tier, GemmForm form, const ConstMatView& a,
                  const ConstMatView& b, int64_t m, int64_t n) {
  const KernelDispatchTable& table = GetKernelTable(tier);
  Matrix out = Matrix::Full(m, n, std::nanf(""));
  const MatView view{out.data(), m, n, n};
  switch (form) {
    case GemmForm::kNN:
      table.matmul_nn(a, b, view);
      break;
    case GemmForm::kTN:
      table.matmul_tn(a, b, view);
      break;
    case GemmForm::kNT:
      table.matmul_nt(a, b, view);
      break;
  }
  return out;
}

std::vector<KernelTier> AvailableTiers() {
  std::vector<KernelTier> tiers = {KernelTier::kReference};
  if (FastKernelTierAvailable()) tiers.push_back(KernelTier::kFast);
  return tiers;
}

constexpr GemmForm kGemmForms[] = {GemmForm::kNN, GemmForm::kTN,
                                   GemmForm::kNT};

// Fast vs reference within the tier bound for every form over tail
// shapes: row counts around the 4-row block, k from empty to a full
// NT transpose chunk, n around the 16-column panel.
TEST(GemmRowTest, FastMatchesReferenceOverTailShapes) {
  if (!FastKernelTierAvailable()) {
    GTEST_SKIP() << "fast kernel tier unavailable on this build/CPU";
  }
  Rng rng(404);
  for (const GemmForm form : kGemmForms) {
    for (const int64_t m : {1, 3, 4, 5, 130}) {
      for (const int64_t k : {0, 1, 7, 128}) {
        for (const int64_t n : {1, 15, 16, 17, 129}) {
          const GemmOperands ops = MakeOperands(form, m, k, n, &rng);
          const Matrix reference =
              RunGemmRow(KernelTier::kReference, form, MatrixView(ops.a),
                         MatrixView(ops.b), m, n);
          const Matrix fast = RunGemmRow(KernelTier::kFast, form,
                                         MatrixView(ops.a),
                                         MatrixView(ops.b), m, n);
          for (int64_t i = 0; i < reference.size(); ++i) {
            ASSERT_TRUE(TierClose(fast.data()[i], reference.data()[i]))
                << GemmFormName(form) << " m=" << m << " k=" << k
                << " n=" << n << " element " << i;
          }
        }
      }
    }
  }
}

// An NT row chunks k through its transpose panel; k beyond one chunk
// must continue each element's sum, not restart it.
TEST(GemmRowTest, FastNTMatchesReferenceAcrossTransposeChunks) {
  if (!FastKernelTierAvailable()) {
    GTEST_SKIP() << "fast kernel tier unavailable on this build/CPU";
  }
  Rng rng(405);
  const int64_t m = 6, k = 600, n = 19;
  const GemmOperands ops = MakeOperands(GemmForm::kNT, m, k, n, &rng);
  const Matrix reference =
      RunGemmRow(KernelTier::kReference, GemmForm::kNT, MatrixView(ops.a),
                 MatrixView(ops.b), m, n);
  const Matrix fast = RunGemmRow(KernelTier::kFast, GemmForm::kNT,
                                 MatrixView(ops.a), MatrixView(ops.b), m, n);
  for (int64_t i = 0; i < reference.size(); ++i) {
    EXPECT_TRUE(TierClose(fast.data()[i], reference.data()[i]))
        << "element " << i;
  }
}

// Composition independence at every tier: an output row of NN/NT is the
// same bits whether its A row is multiplied alone or among m rows, and
// an output row of TN does not depend on A's other columns. This is what
// keeps data-parallel training bitwise worker-count independent and
// fused serving batches bitwise equal to solo ones. m sweeps the row
// block tails (1-17), the 64- and 128-row boundaries, and 640: a
// 64-candidate serving flush with 10 behaviour positions stacked.
TEST(GemmRowTest, OutputRowsIndependentOfComposition) {
  Rng rng(406);
  const int64_t k = 37, n = 21;
  std::vector<int64_t> row_counts;
  for (int64_t m = 1; m <= 17; ++m) row_counts.push_back(m);
  for (const int64_t m : {63, 64, 65, 127, 128, 129, 640}) {
    row_counts.push_back(m);
  }
  for (const KernelTier tier : AvailableTiers()) {
    for (const GemmForm form : kGemmForms) {
      for (const int64_t m : row_counts) {
        const GemmOperands ops = MakeOperands(form, m, k, n, &rng);
        const Matrix full = RunGemmRow(tier, form, MatrixView(ops.a),
                                       MatrixView(ops.b), m, n);
        for (int64_t i = 0; i < m; ++i) {
          // Row i's own operand: A row i (NN/NT) or A column i (TN), as a
          // one-row / one-column view into the same storage.
          const ConstMatView a_alone =
              form == GemmForm::kTN
                  ? ConstMatView(ops.a.data() + i, k, 1, ops.a.cols())
                  : ConstMatView(ops.a.row(i), 1, k, k);
          const Matrix alone =
              RunGemmRow(tier, form, a_alone, MatrixView(ops.b), 1, n);
          for (int64_t j = 0; j < n; ++j) {
            ASSERT_EQ(alone(0, j), full(i, j))
                << KernelTierName(tier) << " " << GemmFormName(form)
                << " m=" << m << " row " << i << " col " << j;
          }
        }
      }
    }
  }
}

// At the reference tier the mat GEMMs, the inference MatMulInto and the
// pinned-scalar view GEMMs of the listwise slate core are one scalar
// implementation per form: bitwise equal.
TEST(GemmRowTest, ReferenceEntryPointsAgreeBitwise) {
  ScopedKernelTier pin(KernelTier::kReference);
  Rng rng(407);
  const int64_t m = 9, k = 23, n = 18;
  const Matrix a = RandomMatrix(m, k, &rng);
  const Matrix w = RandomMatrix(k, n, &rng);
  const Matrix bt = RandomMatrix(n, k, &rng);

  const Matrix nn = MatMul(a, w);
  Matrix into(m, n);
  MatMulInto(MatrixView(a), w, MutableMatrixView(into));
  Matrix view_into(m, n);
  MatMulViewInto(MatrixView(a), MatrixView(w), MutableMatrixView(view_into));
  const Matrix nt = MatMulTransB(a, bt);
  Matrix nt_view_into(m, n);
  MatMulNTViewInto(MatrixView(a), MatrixView(bt),
                   MutableMatrixView(nt_view_into));
  for (int64_t i = 0; i < nn.size(); ++i) {
    EXPECT_EQ(into.data()[i], nn.data()[i]) << "MatMulInto element " << i;
    EXPECT_EQ(view_into.data()[i], nn.data()[i])
        << "MatMulViewInto element " << i;
    EXPECT_EQ(nt_view_into.data()[i], nt.data()[i])
        << "MatMulNTViewInto element " << i;
  }
}

// ---------------------------------------------------------------------
// Arena alignment + Rewind regression tests (satellite bugfix).
// ---------------------------------------------------------------------

TEST(InferenceArenaTest, SlabsAndRowsAre64ByteAligned) {
  InferenceArena arena;
  constexpr std::pair<int64_t, int64_t> kShapes[] = {
      {1, 1}, {3, 7}, {8, 16}, {5, 17}, {256, 33}, {2, 64}};
  for (const auto& [rows, cols] : kShapes) {
    const MatView view = arena.Alloc(rows, cols);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(view.data) %
                  AlignedBuffer::kAlignment,
              0u)
        << rows << "x" << cols;
    // Stride padded to the alignment quantum => every row aligned.
    EXPECT_EQ(view.stride % InferenceArena::kAlignFloats, 0);
    EXPECT_GE(view.stride, cols);
    for (int64_t r = 0; r < rows; ++r) {
      EXPECT_EQ(reinterpret_cast<uintptr_t>(view.row(r)) %
                    AlignedBuffer::kAlignment,
                0u)
          << rows << "x" << cols << " row " << r;
    }
  }
}

TEST(InferenceArenaTest, RewindToMarkTakenBeforeSlabSpill) {
  InferenceArena arena;
  const MatView first = arena.Alloc(4, 8);
  const InferenceArena::Marker mark = arena.Mark();
  // Spill: materialise several more slabs past the mark.
  for (int i = 0; i < 6; ++i) arena.Alloc(16, 32);
  const size_t spilled = arena.num_slabs();
  EXPECT_GE(spilled, 7u);
  arena.Rewind(mark);
  // The mark is a slab index: post-rewind allocs must reuse the slabs
  // (and their grown capacity) right after the mark, not leak new ones.
  const MatView reused = arena.Alloc(16, 32);
  EXPECT_EQ(arena.num_slabs(), spilled);
  // The pre-mark slab is untouched by the rewind.
  EXPECT_NE(arena.Alloc(4, 8).data, first.data);
  // Reset rewinds to the first slab.
  arena.Reset();
  EXPECT_EQ(arena.Alloc(4, 8).data, first.data);
  (void)reused;
}

TEST(InferenceArenaTest, WarmedSlabGrowsInPlaceOnly) {
  InferenceArena arena;
  arena.Alloc(8, 8);
  arena.Reset();
  const MatView grown = arena.Alloc(64, 64);  // Same slab, regrown.
  EXPECT_EQ(arena.num_slabs(), 1u);
  arena.Reset();
  const MatView warm = arena.Alloc(32, 32);  // Fits: no new allocation.
  EXPECT_EQ(warm.data, grown.data);
  EXPECT_EQ(arena.num_slabs(), 1u);
}

TEST(InferenceWorkspaceTest, StagingAlignedAndPreservedAcrossGrowth) {
  InferenceWorkspace workspace(/*max_candidates=*/8);
  std::span<float> small =
      workspace.Staging(InferenceWorkspace::kGateRows, 10);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(small.data()) %
                AlignedBuffer::kAlignment,
            0u);
  for (int i = 0; i < 10; ++i) small[static_cast<size_t>(i)] = float(i);
  // Growth must preserve prior contents (the serving engine stages gate
  // rows, then grows the buffer for a larger session set).
  std::span<float> grown =
      workspace.Staging(InferenceWorkspace::kGateRows, 1000);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(grown.data()) %
                AlignedBuffer::kAlignment,
            0u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(grown[static_cast<size_t>(i)], float(i)) << i;
  }
}

}  // namespace
}  // namespace awmoe
