#include "bert/attention.h"

#include <cmath>
#include <cstring>

#include "kernels/arena.h"
#include "kernels/kernels.h"
#include "util/check.h"

namespace rebert::bert {

using tensor::Tensor;

Tensor slice_cols(const Tensor& x, int c0, int c1) {
  // Head slicing bounds follow from H = heads * head_dim, proven at model
  // build time (check_model_graph); per-call cost matters (heads x layers).
  REBERT_DCHECK(x.rank() == 2 && c0 >= 0 && c1 <= x.dim(1) && c0 < c1);
  Tensor out({x.dim(0), c1 - c0});
  for (int i = 0; i < x.dim(0); ++i)
    for (int j = c0; j < c1; ++j) out.at(i, j - c0) = x.at(i, j);
  return out;
}

void add_into_cols(Tensor* dst, const Tensor& src, int c0) {
  REBERT_DCHECK(dst && dst->rank() == 2 && src.rank() == 2);
  REBERT_DCHECK(dst->dim(0) == src.dim(0) &&
                c0 + src.dim(1) <= dst->dim(1));
  for (int i = 0; i < src.dim(0); ++i)
    for (int j = 0; j < src.dim(1); ++j)
      dst->at(i, c0 + j) += src.at(i, j);
}

MultiHeadSelfAttention::MultiHeadSelfAttention(const std::string& name,
                                               const BertConfig& config,
                                               util::Rng& rng)
    : num_heads_(config.num_heads),
      head_dim_(config.head_dim()),
      query_(name + ".query", config.hidden, config.hidden, rng),
      key_(name + ".key", config.hidden, config.hidden, rng),
      value_(name + ".value", config.hidden, config.hidden, rng),
      output_(name + ".output", config.hidden, config.hidden, rng) {}

void attend_heads(const float* q, const float* k, const float* v, int ld,
                  int rows, int n, int num_heads, int head_dim,
                  int valid_len, float* concat, std::vector<Tensor>* probs) {
  const int hidden = num_heads * head_dim;
  const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(head_dim));
  // -inf surrogate large enough to underflow to exactly 0 after softmax's
  // max-subtraction and exp.
  constexpr float kMaskValue = -1e9f;
  // After the first forward has grown the arena to the working-set size,
  // the head loop makes no heap allocations.
  kernels::ArenaScope scope;
  const std::size_t query_elems = static_cast<std::size_t>(rows) * head_dim;
  const std::size_t key_elems = static_cast<std::size_t>(n) * head_dim;
  const std::size_t score_elems = static_cast<std::size_t>(rows) * n;
  float* qh = scope.floats(query_elems);
  float* kh = scope.floats(key_elems);
  float* vh = scope.floats(key_elems);
  float* scores = scope.floats(score_elems);
  float* oh = scope.floats(query_elems);
  const auto slice_head = [&](const float* src, int count, int c0,
                              float* dst) {
    for (int i = 0; i < count; ++i)
      std::memcpy(dst + static_cast<std::size_t>(i) * head_dim,
                  src + static_cast<std::size_t>(i) * ld + c0,
                  static_cast<std::size_t>(head_dim) * sizeof(float));
  };

  for (int h = 0; h < num_heads; ++h) {
    const int c0 = h * head_dim;
    slice_head(q, rows, c0, qh);
    slice_head(k, n, c0, kh);
    slice_head(v, n, c0, vh);
    kernels::gemm_nt(qh, kh, scores, rows, head_dim, n);
    kernels::scale(scores, inv_sqrt_d,
                   static_cast<std::int64_t>(score_elems));
    if (valid_len > 0 && valid_len < n) {
      for (int i = 0; i < rows; ++i) {
        float* srow = scores + static_cast<std::size_t>(i) * n;
        for (int j = valid_len; j < n; ++j) srow[j] = kMaskValue;
      }
    }
    kernels::softmax_rows(scores, rows, n);
    if (probs) {
      Tensor p({rows, n});
      std::memcpy(p.data(), scores, score_elems * sizeof(float));
      probs->push_back(std::move(p));
    }
    kernels::gemm(scores, vh, oh, rows, n, head_dim);
    // Heads own disjoint column blocks of concat, so this is a straight
    // scatter, not an accumulate.
    for (int i = 0; i < rows; ++i)
      std::memcpy(concat + static_cast<std::size_t>(i) * hidden + c0,
                  oh + static_cast<std::size_t>(i) * head_dim,
                  static_cast<std::size_t>(head_dim) * sizeof(float));
  }
}

Tensor MultiHeadSelfAttention::forward(const Tensor& x, Cache& cache,
                                       int valid_len) const {
  const int hidden = num_heads_ * head_dim_;
  // Entry-point check stays always-on (public API, once per forward); the
  // per-head helpers below rely on the build-time graph check instead.
  REBERT_CHECK_MSG(x.rank() == 2 && x.dim(1) == hidden,
                   "attention input " << x.shape_string());
  const int n = x.dim(0);
  REBERT_CHECK_MSG(valid_len >= 0 && valid_len <= n,
                   "valid_len " << valid_len << " out of range for " << n);

  cache.q = query_.forward(x, cache.q_cache);
  cache.k = key_.forward(x, cache.k_cache);
  cache.v = value_.forward(x, cache.v_cache);
  cache.probs.clear();
  cache.probs.reserve(static_cast<std::size_t>(num_heads_));
  cache.concat = Tensor({n, hidden});
  attend_heads(cache.q.data(), cache.k.data(), cache.v.data(), hidden, n,
               n, num_heads_, head_dim_, valid_len, cache.concat.data(),
               &cache.probs);
  return output_.forward(cache.concat, cache.out_cache);
}

Tensor MultiHeadSelfAttention::backward(const Tensor& dy, const Cache& cache) {
  const int hidden = num_heads_ * head_dim_;
  const int n = dy.dim(0);
  const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(head_dim_));

  const Tensor d_concat = output_.backward(dy, cache.out_cache);

  Tensor dq({n, hidden}), dk({n, hidden}), dv({n, hidden});
  for (int h = 0; h < num_heads_; ++h) {
    const int c0 = h * head_dim_, c1 = c0 + head_dim_;
    const Tensor doh = slice_cols(d_concat, c0, c1);
    const Tensor qh = slice_cols(cache.q, c0, c1);
    const Tensor kh = slice_cols(cache.k, c0, c1);
    const Tensor vh = slice_cols(cache.v, c0, c1);
    const Tensor& probs = cache.probs[static_cast<std::size_t>(h)];

    // O = P V:  dP = dO V^T, dV = P^T dO.
    const Tensor dp = tensor::matmul_nt(doh, vh);
    const Tensor dvh = tensor::matmul_tn(probs, doh);
    // P = softmax(S): dS.
    Tensor ds = tensor::softmax_rows_backward(dp, probs);
    ds = tensor::scale(ds, inv_sqrt_d);
    // S = Q K^T: dQ = dS K, dK = dS^T Q.
    const Tensor dqh = tensor::matmul(ds, kh);
    const Tensor dkh = tensor::matmul_tn(ds, qh);

    add_into_cols(&dq, dqh, c0);
    add_into_cols(&dk, dkh, c0);
    add_into_cols(&dv, dvh, c0);
  }

  Tensor dx = query_.backward(dq, cache.q_cache);
  dx.add_scaled(key_.backward(dk, cache.k_cache), 1.0f);
  dx.add_scaled(value_.backward(dv, cache.v_cache), 1.0f);
  return dx;
}

std::vector<tensor::Parameter*> MultiHeadSelfAttention::parameters() {
  std::vector<tensor::Parameter*> params;
  for (auto* layer : {&query_, &key_, &value_, &output_})
    for (auto* p : layer->parameters()) params.push_back(p);
  return params;
}

}  // namespace rebert::bert
