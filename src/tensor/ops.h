// Free-function tensor kernels.
//
// Everything the BERT encoder needs, with backward companions where the
// derivative is non-trivial. All 2-D ops treat tensors as row-major
// matrices. Shapes are checked; mismatches throw util::CheckError.
#pragma once

#include "tensor/tensor.h"

namespace rebert::tensor {

// ---- GEMM family -----------------------------------------------------------

/// C = A[m,k] * B[k,n].
Tensor matmul(const Tensor& a, const Tensor& b);
/// C = A^T[m,k] * B[m,n]  (a is [m,k], result [k,n]).
Tensor matmul_tn(const Tensor& a, const Tensor& b);
/// C = A[m,k] * B^T[n,k]  (result [m,n]).
Tensor matmul_nt(const Tensor& a, const Tensor& b);

// ---- elementwise -----------------------------------------------------------

Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);  // Hadamard
Tensor scale(const Tensor& a, float alpha);

/// y[i,j] = x[i,j] + bias[j].
Tensor add_row_bias(const Tensor& x, const Tensor& bias);
/// Column-sum of a gradient: d_bias[j] = sum_i dy[i,j].
Tensor column_sum(const Tensor& dy);

// ---- activations ----------------------------------------------------------

/// Exact GELU: x * Phi(x) with Phi the standard normal CDF (erf form, the
/// variant BERT uses).
Tensor gelu(const Tensor& x);
/// dx = dy * gelu'(x); `x` is the forward input.
Tensor gelu_backward(const Tensor& dy, const Tensor& x);

Tensor tanh_forward(const Tensor& x);
/// dx = dy * (1 - y^2); `y` is the forward output.
Tensor tanh_backward(const Tensor& dy, const Tensor& y);

// ---- softmax / losses -------------------------------------------------------

/// Row-wise softmax with max-subtraction for stability.
Tensor softmax_rows(const Tensor& x);
/// dx for row-wise softmax; `y` is the forward output.
/// dx_i = y_i * (dy_i - sum_j dy_j y_j) per row.
Tensor softmax_rows_backward(const Tensor& dy, const Tensor& y);

/// Mean cross-entropy over rows of logits [n, classes] with integer labels;
/// also returns d_logits (softmax - onehot)/n through the out parameter.
double cross_entropy_with_logits(const Tensor& logits,
                                 const std::vector<int>& labels,
                                 Tensor* d_logits);

// ---- misc -------------------------------------------------------------------

/// Select rows of `table` by index: out[i,:] = table[ids[i],:].
Tensor gather_rows(const Tensor& table, const std::vector<int>& ids);

/// Numerical equality within tolerance (for tests).
bool allclose(const Tensor& a, const Tensor& b, float atol = 1e-5f);

}  // namespace rebert::tensor
