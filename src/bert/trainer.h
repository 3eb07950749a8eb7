// Fine-tuning loop (§III-A-2).
//
// Minibatch training with gradient accumulation (the model processes one
// variable-length sequence at a time), AdamW, warmup-linear-decay schedule,
// and global-norm gradient clipping — the standard BERT fine-tuning recipe.
#pragma once

#include <functional>
#include <vector>

#include "bert/model.h"
#include "tensor/optimizer.h"

namespace rebert::bert {

struct LabeledExample {
  EncodedSequence sequence;
  int label = 0;  // 1 = same word, 0 = different word
};

struct TrainOptions {
  int epochs = 3;
  int batch_size = 16;
  double learning_rate = 3e-4;
  double warmup_fraction = 0.1;  // of total optimizer steps
  double weight_decay = 0.01;
  double clip_norm = 1.0;
  std::uint64_t shuffle_seed = 99;
  bool verbose = false;  // log per-epoch metrics

  /// Fraction of the examples held out as a validation split (0 = train on
  /// everything, no early stopping).
  double eval_fraction = 0.0;
  /// With a validation split: stop after this many epochs without
  /// validation-loss improvement and restore the best weights (0 = run all
  /// epochs but still restore the best checkpoint at the end).
  int early_stop_patience = 0;

  /// NaN/Inf tripwire (tensor/graphcheck.h): after every optimizer step,
  /// scan the batch loss, gradients, and updated parameters and throw
  /// util::CheckError naming the first non-finite tensor and step. Debug
  /// mode for diverging runs — off by default (it scans every parameter
  /// once per batch).
  bool check_numerics = false;
};

struct EpochStats {
  double mean_loss = 0.0;
  double accuracy = 0.0;   // on the training examples (post-epoch eval)
  double eval_loss = 0.0;  // on the validation split (0 when disabled)
};

struct TrainResult {
  std::vector<EpochStats> epochs;
  double final_train_accuracy = 0.0;
  int best_epoch = -1;         // -1 when no validation split was used
  double best_eval_loss = 0.0;
  bool stopped_early = false;
};

/// Evaluate classification accuracy (threshold 0.5 on P(same word)).
double evaluate_accuracy(const BertPairClassifier& model,
                         const std::vector<LabeledExample>& examples);

/// Mean eval loss.
double evaluate_loss(const BertPairClassifier& model,
                     const std::vector<LabeledExample>& examples);

TrainResult train(BertPairClassifier& model,
                  const std::vector<LabeledExample>& examples,
                  const TrainOptions& options);

}  // namespace rebert::bert
