#include "tensor/layers.h"

#include <cmath>

#include "kernels/kernels.h"
#include "util/check.h"

namespace rebert::tensor {

Linear::Linear(const std::string& name, int in_features, int out_features,
               util::Rng& rng)
    : weight(name + ".weight", Tensor::xavier(in_features, out_features, rng)),
      bias(name + ".bias", Tensor({out_features})) {}

Tensor Linear::forward(const Tensor& x, Cache& cache) const {
  // Shape proven once at model build time (tensor/graphcheck.h).
  REBERT_DCHECK_MSG(x.rank() == 2 && x.dim(1) == weight.value.dim(0),
                    "Linear input " << x.shape_string() << " vs weight "
                                    << weight.value.shape_string());
  cache.input = x;
  // GEMM + in-place bias: skips the extra output copy add_row_bias(matmul())
  // would make.
  const int m = x.dim(0), in = x.dim(1), out = weight.value.dim(1);
  Tensor y({m, out});
  kernels::gemm(x.data(), weight.value.data(), y.data(), m, in, out);
  kernels::add_row_bias(y.data(), bias.value.data(), m, out);
  return y;
}

Tensor Linear::backward(const Tensor& dy, const Cache& cache) {
  // dW = x^T dy; db = column sums; dx = dy W^T.
  weight.grad.add_scaled(matmul_tn(cache.input, dy), 1.0f);
  bias.grad.add_scaled(column_sum(dy), 1.0f);
  return matmul_nt(dy, weight.value);
}

LayerNorm::LayerNorm(const std::string& name, int hidden, float eps_in)
    : gamma(name + ".gamma", Tensor::full({hidden}, 1.0f)),
      beta(name + ".beta", Tensor({hidden})),
      eps(eps_in) {}

Tensor LayerNorm::forward(const Tensor& x, Cache& cache) const {
  const int h = gamma.value.dim(0);
  REBERT_DCHECK_MSG(x.rank() == 2 && x.dim(1) == h,
                    "LayerNorm input " << x.shape_string() << " hidden "
                                       << h);
  const int n = x.dim(0);
  Tensor y({n, h});
  // The fused kernel also emits the normalized intermediate and 1/std per
  // row for backward.
  cache.normalized = Tensor({n, h});
  cache.inv_std.resize(static_cast<std::size_t>(n));
  kernels::layer_norm(x.data(), gamma.value.data(), beta.value.data(), eps,
                      n, h, y.data(), cache.normalized.data(),
                      cache.inv_std.data());
  return y;
}

Tensor LayerNorm::backward(const Tensor& dy, const Cache& cache) {
  const Tensor& nrm = cache.normalized;
  REBERT_DCHECK(dy.same_shape(nrm));
  const int n = dy.dim(0), h = dy.dim(1);
  Tensor dx({n, h});
  for (int i = 0; i < n; ++i) {
    // d_gamma, d_beta accumulate across rows.
    double sum_dnorm = 0.0, sum_dnorm_nrm = 0.0;
    for (int j = 0; j < h; ++j) {
      const float dnorm = dy.at(i, j) * gamma.value[j];
      sum_dnorm += dnorm;
      sum_dnorm_nrm += dnorm * nrm.at(i, j);
      gamma.grad[j] += dy.at(i, j) * nrm.at(i, j);
      beta.grad[j] += dy.at(i, j);
    }
    const float istd = cache.inv_std[static_cast<std::size_t>(i)];
    const float mean_dnorm = static_cast<float>(sum_dnorm / h);
    const float mean_dnorm_nrm = static_cast<float>(sum_dnorm_nrm / h);
    for (int j = 0; j < h; ++j) {
      const float dnorm = dy.at(i, j) * gamma.value[j];
      dx.at(i, j) =
          istd * (dnorm - mean_dnorm - nrm.at(i, j) * mean_dnorm_nrm);
    }
  }
  return dx;
}

Embedding::Embedding(const std::string& name, int vocab_size, int hidden,
                     util::Rng& rng, float init_stddev)
    : table(name + ".table",
            Tensor::randn({vocab_size, hidden}, rng, init_stddev)) {}

Tensor Embedding::forward(const std::vector<int>& ids, Cache& cache) const {
  cache.ids = ids;
  return gather_rows(table.value, ids);
}

void Embedding::backward(const Tensor& dy, const Cache& cache) {
  const int h = table.value.dim(1);
  REBERT_DCHECK_MSG(dy.rank() == 2 && dy.dim(1) == h &&
                        dy.dim(0) == static_cast<int>(cache.ids.size()),
                    "Embedding backward shape " << dy.shape_string());
  for (std::size_t i = 0; i < cache.ids.size(); ++i) {
    const int row = cache.ids[i];
    float* g = table.grad.data() + static_cast<std::size_t>(row) * h;
    const float* d = dy.data() + i * h;
    for (int j = 0; j < h; ++j) g[j] += d[j];
  }
}

Tensor Dropout::forward(const Tensor& x, util::Rng& rng,
                        Cache& cache) const {
  if (p_ <= 0.0f) {
    cache.mask = Tensor();
    return x;
  }
  REBERT_CHECK_MSG(p_ < 1.0f, "dropout rate must be < 1");
  Tensor mask(x.shape());
  const float keep_scale = 1.0f / (1.0f - p_);
  for (std::int64_t i = 0; i < mask.numel(); ++i)
    mask[i] = rng.bernoulli(p_) ? 0.0f : keep_scale;
  Tensor y = mul(x, mask);
  cache.mask = std::move(mask);
  return y;
}

Tensor Dropout::backward(const Tensor& dy, const Cache& cache) const {
  if (cache.mask.empty()) return dy;
  return mul(dy, cache.mask);
}

double clip_gradients(const std::vector<Parameter*>& params,
                      double max_norm) {
  REBERT_CHECK(max_norm > 0.0);
  double total_sq = 0.0;
  for (const Parameter* p : params) {
    const double n = p->grad.norm();
    total_sq += n * n;
  }
  const double norm = std::sqrt(total_sq);
  if (norm > max_norm) {
    const float factor = static_cast<float>(max_norm / norm);
    for (Parameter* p : params)
      for (std::int64_t i = 0; i < p->grad.numel(); ++i) p->grad[i] *= factor;
  }
  return norm;
}

}  // namespace rebert::tensor
