// Quickstart: generate a small synthetic search log, train AW-MoE with
// contrastive learning, and compare it against the DNN baseline.
//
//   ./build/examples/quickstart [--train_sessions=4000] [--epochs=2] ...
//
// This walks the full public API surface: data generation -> batching ->
// model construction -> Trainer -> session-grouped evaluation.

#include <cstdio>
#include <memory>

#include "core/aw_moe.h"
#include "core/trainer.h"
#include "data/batcher.h"
#include "data/jd_synthetic.h"
#include "eval/metrics.h"
#include "models/dnn_ranker.h"
#include "util/flags.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"
#include "util/string_util.h"

namespace {

using namespace awmoe;  // Example code; library code never does this.

int Run(int argc, char** argv) {
  int64_t train_sessions = 4000;
  int64_t test_sessions = 400;
  int64_t epochs = 2;
  int64_t batch_size = 256;
  double lr = 2e-3;
  int64_t seed = 7;

  FlagSet flags("AW-MoE quickstart");
  flags.AddInt("train_sessions", &train_sessions, "training sessions");
  flags.AddInt("test_sessions", &test_sessions, "test sessions");
  flags.AddInt("epochs", &epochs, "training epochs");
  flags.AddInt("batch_size", &batch_size, "minibatch size");
  flags.AddDouble("lr", &lr, "AdamW learning rate");
  flags.AddInt("seed", &seed, "global seed");
  Status status = flags.Parse(argc, argv);
  if (status.code() == StatusCode::kNotFound) return 0;  // --help.
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }

  // 1. Simulate a JD-style search log (stands in for the paper's
  //    proprietary corpus; see docs/reproduction.md).
  std::printf("Generating synthetic search log...\n");
  JdConfig jd;
  jd.train_sessions = train_sessions;
  jd.test_sessions = test_sessions;
  jd.longtail1_sessions = 100;
  jd.longtail2_sessions = 100;
  jd.seed = static_cast<uint64_t>(seed);
  JdDataset data = JdSyntheticGenerator(jd).Generate();
  std::printf("  train examples: %zu, test examples: %zu\n",
              data.train.size(), data.full_test.size());

  Standardizer standardizer;
  standardizer.Fit(data.train);

  TrainerConfig tc;
  tc.epochs = epochs;
  tc.batch_size = batch_size;
  tc.lr = static_cast<float>(lr);
  tc.seed = static_cast<uint64_t>(seed);
  tc.verbose = true;

  TablePrinter table("Quickstart results (session-grouped, Eq. 12-13)");
  table.SetHeader({"Model", "AUC", "AUC@10", "NDCG", "NDCG@10", "train s"});

  // 2. Baseline: DNN with sum-pooled user vector.
  {
    Rng model_rng(static_cast<uint64_t>(seed) + 1);
    DnnRanker dnn(data.meta, ModelDims::Default(), &model_rng);
    Trainer trainer(&dnn, tc);
    Stopwatch watch;
    trainer.Train(data.train, data.meta, &standardizer);
    double seconds = watch.ElapsedSeconds();
    auto scores = Predict(&dnn, data.full_test, data.meta, &standardizer);
    RankingEvaluation eval = EvaluateRanking(data.full_test, scores);
    table.AddRow({dnn.name(), FormatDouble(eval.auc, 4),
                  FormatDouble(eval.auc_at_k, 4), FormatDouble(eval.ndcg, 4),
                  FormatDouble(eval.ndcg_at_k, 4),
                  FormatDouble(seconds, 1)});
  }

  // 3. AW-MoE with the contrastive-learning objective (Eq. 11).
  {
    Rng model_rng(static_cast<uint64_t>(seed) + 2);
    AwMoeConfig config;
    AwMoeRanker aw_moe(data.meta, config, &model_rng);
    TrainerConfig cl_tc = tc;
    cl_tc.contrastive = true;  // p=0.1, l=3, lambda=0.05 defaults.
    Trainer trainer(&aw_moe, cl_tc);
    Stopwatch watch;
    trainer.Train(data.train, data.meta, &standardizer);
    double seconds = watch.ElapsedSeconds();
    auto scores = Predict(&aw_moe, data.full_test, data.meta, &standardizer);
    RankingEvaluation eval = EvaluateRanking(data.full_test, scores);
    table.AddRow({"AW-MoE & CL", FormatDouble(eval.auc, 4),
                  FormatDouble(eval.auc_at_k, 4), FormatDouble(eval.ndcg, 4),
                  FormatDouble(eval.ndcg_at_k, 4),
                  FormatDouble(seconds, 1)});
  }

  table.Print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
