// Reproduces Table I: statistics of the (synthetic) in-house JD dataset —
// sessions, users, queries, examples, pos:neg ratio and examples per
// session for the training set, the full test set and both long-tail test
// sets. Absolute counts are scaled down from the paper's billion-scale log
// (see docs/reproduction.md#the-synthetic-corpora); the *relationships*
// (train balanced 1:1, test ~1:10, long-tail sets smaller with shorter
// histories) are the reproduced shape.

#include <cstdio>

#include "common/experiment_lib.h"
#include "data/jd_synthetic.h"
#include "data/stats.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace {

using namespace awmoe;
using namespace awmoe::bench;

int Run(int argc, char** argv) {
  BenchFlags flags;
  Status status =
      flags.Parse(argc, argv, "Table I: statistics of the JD dataset");
  if (status.code() == StatusCode::kNotFound) return 0;
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }

  JdDataset data = JdSyntheticGenerator(flags.MakeJdConfig()).Generate();

  struct NamedSplit {
    const char* name;
    const std::vector<Example>* split;
  };
  const NamedSplit splits[] = {
      {"Training set", &data.train},
      {"Full test set", &data.full_test},
      {"Long-tail test set 1", &data.longtail1_test},
      {"Long-tail test set 2", &data.longtail2_test},
  };

  TablePrinter table("Table I — statistics of the synthetic JD dataset");
  table.SetHeader({"Statistics", "Training set", "Full test set",
                   "Long-tail test set 1", "Long-tail test set 2"});
  std::vector<SplitStats> stats;
  for (const NamedSplit& named : splits) {
    stats.push_back(ComputeSplitStats(*named.split));
  }
  auto row = [&](const char* label, auto getter) {
    std::vector<std::string> cells = {label};
    for (const SplitStats& s : stats) cells.push_back(getter(s));
    table.AddRow(cells);
  };
  row("# Sessions", [](const SplitStats& s) {
    return std::to_string(s.num_sessions);
  });
  row("# Users",
      [](const SplitStats& s) { return std::to_string(s.num_users); });
  row("# Queries",
      [](const SplitStats& s) { return std::to_string(s.num_queries); });
  row("# Examples",
      [](const SplitStats& s) { return std::to_string(s.num_examples); });
  row("Pos : Neg", [](const SplitStats& s) {
    return "1 : " + FormatDouble(s.neg_per_pos, 1);
  });
  row("# Examples / # Sessions", [](const SplitStats& s) {
    return FormatDouble(s.examples_per_session, 1);
  });
  row("Mean history length", [](const SplitStats& s) {
    return FormatDouble(s.mean_history_len, 1);
  });
  table.Print();

  // Invariant checks mirrored from the paper's construction.
  bool ok = true;
  if (stats[0].num_positives != stats[0].num_negatives) {
    std::printf("WARNING: training set is not 1:1 balanced\n");
    ok = false;
  }
  if (stats[1].neg_per_pos < 4.0) {
    std::printf("WARNING: full test set not impression-complete\n");
    ok = false;
  }
  if (stats[2].mean_history_len >= stats[1].mean_history_len) {
    std::printf("WARNING: long-tail set 1 histories not shorter\n");
    ok = false;
  }
  std::printf("[table1] shape checks %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
