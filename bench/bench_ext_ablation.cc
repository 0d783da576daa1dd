// Ablation bench for the §V future-work extensions implemented in this
// repo (see docs/reproduction.md#extensions-beyond-the-paper):
//   - sparsely-gated MoE: top-k expert selection (k = 1, 2 vs dense);
//   - expert-disagreement (diversity) regularisation;
//   - item-reordering contrastive augmentation (mask+reorder vs mask).
// Each variant trains on the same corpus and reports full-test metrics
// next to the plain AW-MoE / AW-MoE & CL references.

#include <cstdio>

#include "common/experiment_lib.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace {

using namespace awmoe;
using namespace awmoe::bench;

int Run(int argc, char** argv) {
  BenchFlags flags;
  flags.train_sessions = 10000;
  flags.test_sessions = 600;
  Status status = flags.Parse(
      argc, argv, "Extensions ablation: top-k gating, diversity, reorder");
  if (status.code() == StatusCode::kNotFound) return 0;
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }

  std::printf("[ext] generating JD dataset...\n");
  JdDataset data = JdSyntheticGenerator(flags.MakeJdConfig()).Generate();
  Standardizer standardizer;
  standardizer.Fit(data.train);

  struct Variant {
    const char* label;
    int64_t top_k;            // 0 = dense.
    double diversity_weight;  // 0 = off.
    bool contrastive;
    bool reorder;
  };
  const Variant variants[] = {
      {"AW-MoE (dense gate)", 0, 0.0, false, false},
      {"AW-MoE top-2 sparse gate", 2, 0.0, false, false},
      {"AW-MoE top-1 sparse gate", 1, 0.0, false, false},
      {"AW-MoE + diversity reg (w=0.05)", 0, 0.05, false, false},
      {"AW-MoE & CL (mask)", 0, 0.0, true, false},
      {"AW-MoE & CL (mask+reorder)", 0, 0.0, true, true},
  };

  TablePrinter table("Extensions ablation — full test set");
  table.SetHeader({"Variant", "AUC", "AUC@10", "NDCG", "NDCG@10"});
  for (const Variant& variant : variants) {
    std::printf("[ext] training %s...\n", variant.label);
    AwMoeConfig config;
    config.dims = ModelDims::Default();
    config.gate.top_k = variant.top_k;
    config.diversity_weight = variant.diversity_weight;
    config.name = variant.label;
    Rng rng(static_cast<uint64_t>(flags.seed) + 10);
    AwMoeRanker model(data.meta, config, &rng);

    TrainerConfig tc = flags.MakeTrainerConfig();
    tc.contrastive = variant.contrastive;
    if (variant.reorder) {
      tc.cl.strategy = ContrastiveConfig::Strategy::kMaskAndReorder;
    }
    Trainer trainer(&model, tc);
    trainer.Train(data.train, data.meta, &standardizer);

    std::vector<double> scores =
        Predict(&model, data.full_test, data.meta, &standardizer);
    RankingEvaluation eval = EvaluateRanking(data.full_test, scores);
    std::printf("[ext]   %s: AUC %.4f\n", variant.label, eval.auc);
    table.AddRow({variant.label, FormatDouble(eval.auc, 4),
                  FormatDouble(eval.auc_at_k, 4), FormatDouble(eval.ndcg, 4),
                  FormatDouble(eval.ndcg_at_k, 4)});
  }
  table.Print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
