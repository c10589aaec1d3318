#include "src/tensor/tensor_ops.h"

#include "src/tensor/gemm.h"

namespace hfl::ops {

namespace {
void check_rank2(const Tensor& t, const char* what) {
  HFL_CHECK(t.rank() == 2, std::string(what) + " must be rank-2, got " +
                               t.shape_string());
}

}  // namespace

// All three variants lower onto the blocked GEMM in gemm.cpp; the transpose
// cases are absorbed by its panel packing, so none of them materializes a
// transposed copy of the input.

void matmul(const Tensor& a, const Tensor& b, Tensor& c) {
  check_rank2(a, "matmul a");
  check_rank2(b, "matmul b");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  HFL_CHECK(b.dim(0) == k, "matmul inner dimensions mismatch");
  c.resize({m, n});
  gemm(false, false, m, n, k, a.raw(), k, b.raw(), n, 0.0, c.raw(), n);
}

void matmul_transpose_b(const Tensor& a, const Tensor& b, Tensor& c) {
  check_rank2(a, "matmul_transpose_b a");
  check_rank2(b, "matmul_transpose_b b");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  HFL_CHECK(b.dim(1) == k, "matmul_transpose_b inner dimensions mismatch");
  c.resize({m, n});
  gemm(false, true, m, n, k, a.raw(), k, b.raw(), k, 0.0, c.raw(), n);
}

void matmul_transpose_a(const Tensor& a, const Tensor& b, Tensor& c) {
  check_rank2(a, "matmul_transpose_a a");
  check_rank2(b, "matmul_transpose_a b");
  const std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  HFL_CHECK(b.dim(0) == k, "matmul_transpose_a inner dimensions mismatch");
  c.resize({m, n});
  gemm(true, false, m, n, k, a.raw(), m, b.raw(), n, 0.0, c.raw(), n);
}

void add_row_bias(Tensor& x, const Tensor& bias) {
  check_rank2(x, "add_row_bias x");
  const std::size_t m = x.dim(0), n = x.dim(1);
  HFL_CHECK(bias.size() == n, "bias length must match column count");
  Scalar* px = x.raw();
  const Scalar* pb = bias.raw();
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) px[i * n + j] += pb[j];
  }
}

void sum_rows(const Tensor& x, Tensor& out) {
  check_rank2(x, "sum_rows x");
  const std::size_t m = x.dim(0), n = x.dim(1);
  out.resize({n});
  out.fill(0.0);
  const Scalar* px = x.raw();
  Scalar* po = out.raw();
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) po[j] += px[i * n + j];
  }
}

void argmax_rows(const Tensor& x, std::vector<std::size_t>& out) {
  check_rank2(x, "argmax_rows x");
  const std::size_t m = x.dim(0), n = x.dim(1);
  HFL_CHECK(n > 0, "argmax_rows needs at least one column");
  out.resize(m);
  const Scalar* px = x.raw();
  for (std::size_t i = 0; i < m; ++i) {
    std::size_t best = 0;
    Scalar best_v = px[i * n];
    for (std::size_t j = 1; j < n; ++j) {
      if (px[i * n + j] > best_v) {
        best_v = px[i * n + j];
        best = j;
      }
    }
    out[i] = best;
  }
}

namespace {
void elementwise_check(const Tensor& a, const Tensor& b, Tensor& out) {
  HFL_CHECK(a.same_shape(b), "elementwise shape mismatch");
  out.resize(a.shape());
}
}  // namespace

void add(const Tensor& a, const Tensor& b, Tensor& out) {
  elementwise_check(a, b, out);
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
}

void sub(const Tensor& a, const Tensor& b, Tensor& out) {
  elementwise_check(a, b, out);
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
}

void mul(const Tensor& a, const Tensor& b, Tensor& out) {
  elementwise_check(a, b, out);
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] * b[i];
}

}  // namespace hfl::ops
