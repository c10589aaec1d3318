// Layer interface for the manual-backprop neural-network substrate.
//
// Each layer is a stateful node: a training forward pass caches whatever the
// matching backward pass needs, and the backward pass accumulates gradients
// into the layer's parameter-gradient tensors and (optionally) writes the
// gradient with respect to the layer input. Layers expose their parameters
// and gradients as parallel lists of tensors so `Model` can flatten them into
// the single `Vec` that the federated-learning algorithms operate on.
//
// Buffer contract of the pass pair every layer implements:
//   * forward_into(x, out, train) writes the output into the caller-owned
//     `out`, which may hold any stale shape and contents: the layer gives it
//     the right shape through Tensor::resize (no allocation once its
//     capacity suffices) and overwrites every element. `out` must not alias
//     `x`. The layer never keeps a pointer to `x`: activations a backward
//     pass needs (a Dense/Conv2d/ReLU input, a Tanh/Sigmoid output) are
//     copied into reused members, and only when `train` is true. An
//     evaluation forward caches no activations, so backward is only valid
//     after a training forward.
//   * backward_into(grad_out, grad_in) accumulates parameter gradients and,
//     when `grad_in` is non-null, writes d(loss)/d(input) into it under the
//     same stale-buffer rules. `grad_in == nullptr` means "parameter
//     gradients only": the caller has no consumer for the input gradient,
//     so the layer skips computing it (Dense drops its dX product, Conv2d
//     its dCol product and col2im). Parameter gradients are bit-identical
//     either way.
// The value-returning forward/backward are thin wrappers over the pass pair
// for tests and one-off callers; hot paths (Sequential, Model, the cohort
// executor) pass reused buffers.
//
// Thread-safety: a layer instance is owned by exactly one simulated worker;
// no cross-thread sharing.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/tensor/tensor.h"

namespace hfl::nn {

class Layer {
 public:
  virtual ~Layer() = default;

  // Human-readable layer kind ("dense", "conv2d", ...), for diagnostics.
  virtual std::string kind() const = 0;

  // Forward pass into `out` (see the buffer contract above). `train`
  // enables training-only behaviour (dropout masks, backward caches).
  virtual void forward_into(const Tensor& x, Tensor& out, bool train) = 0;

  // Backward pass for the most recent training forward. Accumulates
  // parameter gradients and, unless `grad_in` is null, writes
  // d(loss)/d(input) into it.
  virtual void backward_into(const Tensor& grad_out, Tensor* grad_in) = 0;

  // Value forms of the pass pair: a fresh output per call.
  Tensor forward(const Tensor& x, bool train) {
    Tensor out;
    forward_into(x, out, train);
    return out;
  }
  Tensor backward(const Tensor& grad_out) {
    Tensor grad_in;
    backward_into(grad_out, &grad_in);
    return grad_in;
  }

  // Parameter tensors (empty for stateless layers). The grads list is
  // index-aligned with params.
  virtual std::vector<Tensor*> params() { return {}; }
  virtual std::vector<Tensor*> grads() { return {}; }

  // (Re-)initialize parameters. Stateless layers ignore this.
  virtual void init_params(Rng& rng) { (void)rng; }

  // Set all parameter gradients to zero.
  void zero_grads();

  // Total number of scalar parameters.
  std::size_t num_params();
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace hfl::nn
