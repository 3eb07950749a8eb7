// Table III — average runtime (seconds) per benchmark, Structural vs
// ReBERT, averaged over the R-Index sweep.
//
// Runtime is inference-only, matching the paper: the model is trained once
// up front (training time excluded, as fine-tuning happens offline), then
// each benchmark is corrupted at each R-Index and both methods are timed
// end-to-end (cone extraction / tokenization + pairwise scoring + word
// generation).
#include <cstdio>
#include <functional>

#include "bench/common.h"
#include "nl/corruption.h"
#include "structural/matching.h"
#include "util/csv.h"
#include "util/string_utils.h"
#include "util/table.h"

int main() {
  using namespace rebert;
  const benchharness::BenchSetup setup = benchharness::load_bench_setup();
  const std::vector<core::CircuitData> circuits =
      benchharness::generate_suite(setup);
  const std::vector<double>& sweep = benchharness::r_index_sweep();

  std::printf(
      "=== Table III: average runtime (s) across R-Index, scale %.2f ===\n",
      setup.scale);

  // One model for all benchmarks: runtime does not depend on the weights,
  // so a quick training pass on the whole suite suffices.
  std::vector<const core::CircuitData*> all;
  for (const auto& circuit : circuits) all.push_back(&circuit);
  core::ExperimentOptions train_options = setup.options;
  train_options.training.epochs = 1;
  std::fprintf(stderr, "training shared model for runtime measurement...\n");
  const auto model = core::train_rebert(all, train_options);

  util::TextTable table({"method", "benchmark", "avg runtime (s)",
                         "tokenize (s)", "score (s)", "group (s)"});
  util::CsvWriter csv("table3_runtime.csv",
                      {"benchmark", "structural_seconds", "rebert_seconds"});

  for (const auto& circuit : circuits) {
    double structural_total = 0.0, rebert_total = 0.0;
    double tokenize_total = 0.0, score_total = 0.0, group_total = 0.0;
    for (double r : sweep) {
      nl::CorruptionOptions corrupt_options;
      corrupt_options.r_index = r;
      corrupt_options.seed = setup.options.corruption_seed ^
                             std::hash<std::string>{}(circuit.name);
      const nl::Netlist variant =
          r == 0.0 ? circuit.netlist
                   : nl::corrupt_netlist(circuit.netlist, corrupt_options);

      structural::MatchingOptions matching;
      matching.backtrace_depth =
          setup.options.pipeline.tokenizer.backtrace_depth;
      structural_total =
          structural_total +
          structural::recover_words_structural(variant, matching)
              .total_seconds;

      // Paper-faithful configuration: no cache, every surviving class
      // pair hits the model.
      const core::RecoveryResult recovery =
          core::recover_words(variant, *model, setup.options.pipeline);
      rebert_total += recovery.total_seconds;
      tokenize_total += recovery.tokenize_seconds;
      score_total += recovery.scoring_seconds;
      group_total += recovery.grouping_seconds;
    }
    const double n = static_cast<double>(sweep.size());
    table.add_row({"Structural", circuit.name,
                   util::format_double(structural_total / n, 3), "-", "-",
                   "-"});
    table.add_row({"ReBERT", circuit.name,
                   util::format_double(rebert_total / n, 3),
                   util::format_double(tokenize_total / n, 3),
                   util::format_double(score_total / n, 3),
                   util::format_double(group_total / n, 3)});
    csv.add_row({circuit.name,
                 util::format_double(structural_total / n, 4),
                 util::format_double(rebert_total / n, 4)});
    std::fprintf(stderr, "%s done\n", circuit.name.c_str());
  }
  table.print();
  std::printf("CSV: table3_runtime.csv\n");
  return 0;
}
