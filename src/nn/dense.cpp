#include "src/nn/dense.h"

#include <cmath>

#include "src/tensor/tensor_ops.h"

namespace hfl::nn {
namespace {

// dW product scratch, shared by every Dense on the thread: a member would
// add an (out × in) buffer to every worker's model.
thread_local Tensor tl_dw;

}  // namespace

Dense::Dense(std::size_t in_features, std::size_t out_features,
             InitScheme init)
    : in_(in_features),
      out_(out_features),
      init_(init),
      weight_({out_, in_}),
      bias_({out_}),
      grad_weight_({out_, in_}),
      grad_bias_({out_}) {
  HFL_CHECK(in_ > 0 && out_ > 0, "dense layer dims must be positive");
}

void Dense::init_params(Rng& rng) {
  if (init_ == InitScheme::kZero) {
    weight_.fill(0.0);
    bias_.fill(0.0);
    return;
  }
  const Scalar stddev = init_ == InitScheme::kHe
                            ? std::sqrt(2.0 / static_cast<Scalar>(in_))
                            : std::sqrt(1.0 / static_cast<Scalar>(in_));
  for (auto& v : weight_.data()) v = rng.normal(0.0, stddev);
  bias_.fill(0.0);
}

void Dense::forward_into(const Tensor& x, Tensor& out, bool train) {
  HFL_CHECK(x.rank() == 2 && x.dim(1) == in_,
            "dense forward expects (B, " + std::to_string(in_) + "), got " +
                x.shape_string());
  // Copied, never referenced: callers may reuse or reassign `x` before the
  // backward pass. Copy-assignment reuses input_'s buffer.
  if (train) input_ = x;
  ops::matmul_transpose_b(x, weight_, out);  // (B,in) * (out,in)^T -> (B,out)
  ops::add_row_bias(out, bias_);
}

void Dense::backward_into(const Tensor& grad_out, Tensor* grad_in) {
  HFL_CHECK(grad_out.rank() == 2 && grad_out.dim(1) == out_,
            "dense backward shape mismatch");
  // dW += grad_out^T * x : (out,B)*(B,in) -> (out,in), via scratch so the
  // product is summed into the accumulator after it is complete.
  ops::matmul_transpose_a(grad_out, input_, tl_dw);
  for (std::size_t i = 0; i < tl_dw.size(); ++i) grad_weight_[i] += tl_dw[i];
  // db += column sums of grad_out
  ops::sum_rows(grad_out, scratch_bias_);
  for (std::size_t i = 0; i < out_; ++i) grad_bias_[i] += scratch_bias_[i];
  // dx = grad_out * W : (B,out)*(out,in) -> (B,in)
  if (grad_in != nullptr) ops::matmul(grad_out, weight_, *grad_in);
}

}  // namespace hfl::nn
