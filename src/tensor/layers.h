// Neural-network layers with explicit forward/backward — the training
// path. (Inference does not go through these layers: BertPairClassifier
// runs one arena-only forward over weights it packs at load.)
//
// Each layer owns Parameters (value + gradient accumulator). forward() takes
// the input and fills a layer-specific Cache with whatever backward() needs;
// backward() consumes the upstream gradient, accumulates parameter
// gradients (+=, so minibatch accumulation is a plain loop), and returns the
// gradient w.r.t. the input. Every backward implementation is verified
// against finite differences in tests/tensor/gradcheck_test.cc.
#pragma once

#include <string>
#include <vector>

#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace rebert::tensor {

/// A trainable tensor plus its gradient accumulator.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;

  Parameter() = default;
  Parameter(std::string n, Tensor v)
      : name(std::move(n)), value(std::move(v)), grad(value.shape()) {}

  void zero_grad() { grad.zero(); }
};

/// y = x W + b, x: [n, in], W: [in, out], b: [out].
class Linear {
 public:
  Linear() = default;
  Linear(const std::string& name, int in_features, int out_features,
         util::Rng& rng);

  struct Cache {
    Tensor input;
  };

  Tensor forward(const Tensor& x, Cache& cache) const;
  /// Returns dx; accumulates dW, db.
  Tensor backward(const Tensor& dy, const Cache& cache);

  int in_features() const { return weight.value.dim(0); }
  int out_features() const { return weight.value.dim(1); }
  std::vector<Parameter*> parameters() { return {&weight, &bias}; }

  Parameter weight;
  Parameter bias;
};

/// Layer normalization over the last dimension of a [n, h] input.
class LayerNorm {
 public:
  LayerNorm() = default;
  LayerNorm(const std::string& name, int hidden, float eps = 1e-5f);

  struct Cache {
    Tensor normalized;  // (x - mean) / std, per row
    std::vector<float> inv_std;
  };

  Tensor forward(const Tensor& x, Cache& cache) const;
  Tensor backward(const Tensor& dy, const Cache& cache);

  std::vector<Parameter*> parameters() { return {&gamma, &beta}; }

  Parameter gamma;  // scale, init 1
  Parameter beta;   // shift, init 0
  float eps = 1e-5f;
};

/// Trainable lookup table: ids -> rows of the table.
class Embedding {
 public:
  Embedding() = default;
  Embedding(const std::string& name, int vocab_size, int hidden,
            util::Rng& rng, float init_stddev = 0.02f);

  struct Cache {
    std::vector<int> ids;
  };

  Tensor forward(const std::vector<int>& ids, Cache& cache) const;
  /// No input gradient (ids are discrete); accumulates table gradients.
  void backward(const Tensor& dy, const Cache& cache);

  int vocab_size() const { return table.value.dim(0); }
  int hidden() const { return table.value.dim(1); }
  std::vector<Parameter*> parameters() { return {&table}; }

  Parameter table;
};

/// Inverted dropout. With p = 0 it is the identity and draws no
/// randomness.
class Dropout {
 public:
  explicit Dropout(float p = 0.0f) : p_(p) {}

  struct Cache {
    Tensor mask;  // empty when dropout was a no-op
  };

  Tensor forward(const Tensor& x, util::Rng& rng, Cache& cache) const;
  Tensor backward(const Tensor& dy, const Cache& cache) const;

  float rate() const { return p_; }

 private:
  float p_;
};

/// Sum of per-parameter gradient L2 norms squared -> global norm; scales all
/// gradients down to `max_norm` if exceeded. Returns the pre-clip norm.
double clip_gradients(const std::vector<Parameter*>& params, double max_norm);

}  // namespace rebert::tensor
