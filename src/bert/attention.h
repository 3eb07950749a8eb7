// Multi-head self-attention with Add & Norm (§II-C "Attention").
//
// Standard BERT attention over one sequence x ∈ R^{n×H}:
//   Q = xW_q, K = xW_k, V = xW_v; per head h of width d = H/heads:
//   S_h = Q_h K_h^T / sqrt(d),  P_h = softmax(S_h),  O_h = P_h V_h;
//   y = concat(O_h) W_o + b_o.
// The residual connection and LayerNorm live in EncoderLayer. The backward
// pass is explicit and finite-difference-checked in the tests.
#pragma once

#include <vector>

#include "bert/config.h"
#include "tensor/layers.h"

namespace rebert::bert {

class MultiHeadSelfAttention {
 public:
  MultiHeadSelfAttention() = default;
  MultiHeadSelfAttention(const std::string& name, const BertConfig& config,
                         util::Rng& rng);

  struct Cache {
    tensor::Linear::Cache q_cache, k_cache, v_cache, out_cache;
    tensor::Tensor q, k, v;                 // [n, H]
    std::vector<tensor::Tensor> probs;      // per head, [n, n]
    tensor::Tensor concat;                  // [n, H] head outputs
  };

  /// Training forward, x: [n, hidden] -> [n, hidden]; fills `cache` for
  /// backward. `valid_len` masks padding: when > 0, attention scores onto
  /// positions >= valid_len are forced to -inf so [PAD] tokens (§II-A-3
  /// pads pair sequences to a uniform length) can never influence real
  /// positions. 0 means "no padding".
  tensor::Tensor forward(const tensor::Tensor& x, Cache& cache,
                         int valid_len = 0) const;

  /// Returns dx; accumulates all projection gradients.
  tensor::Tensor backward(const tensor::Tensor& dy, const Cache& cache);

  std::vector<tensor::Parameter*> parameters();

  int num_heads() const { return num_heads_; }

 private:
  friend class BertPairClassifier;  // packs the projections for inference

  int num_heads_ = 1;
  int head_dim_ = 1;
  tensor::Linear query_, key_, value_, output_;
};

/// The per-head core shared by the training and inference forwards:
/// for each head h, softmax(Q_h K_h^T / sqrt(d), masked at >= valid_len)
/// V_h into columns [h*d, (h+1)*d) of `concat` [rows, heads*d], for the
/// first `rows` of the n queries against all n keys and values. Every
/// kernel here is row-independent, so a query row's output is bitwise
/// the same whatever `rows` is. Q, K and V rows are `ld` floats apart, so
/// fused [n, 3H] projections are read in place. When `probs` is non-null
/// each head's [rows, n] probabilities are appended to it (backward needs
/// them). Temporaries use the per-thread arena.
void attend_heads(const float* q, const float* k, const float* v, int ld,
                  int rows, int n, int num_heads, int head_dim,
                  int valid_len, float* concat,
                  std::vector<tensor::Tensor>* probs);

/// Copy columns [c0, c1) of a matrix into a new matrix.
tensor::Tensor slice_cols(const tensor::Tensor& x, int c0, int c1);
/// Add `src` into columns [c0, ...) of `dst`.
void add_into_cols(tensor::Tensor* dst, const tensor::Tensor& src, int c0);

}  // namespace rebert::bert
