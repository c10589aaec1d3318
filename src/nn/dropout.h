// Inverted dropout.
//
// During training each activation is zeroed with probability `rate` and the
// survivors are scaled by 1/(1-rate); at evaluation time it is the identity.
// The mask RNG is owned by the layer (seeded via init_params' rng fork) so
// per-worker model instances draw independent, reproducible masks.
#pragma once

#include <optional>

#include "src/nn/layer.h"

namespace hfl::nn {

class Dropout final : public Layer {
 public:
  explicit Dropout(Scalar rate);

  std::string kind() const override { return "dropout"; }
  void forward_into(const Tensor& x, Tensor& out, bool train) override;
  void backward_into(const Tensor& grad_out, Tensor* grad_in) override;
  void init_params(Rng& rng) override;

 private:
  Scalar rate_;
  std::optional<Rng> rng_;
  std::vector<Scalar> mask_;
  bool last_train_ = false;
};

}  // namespace hfl::nn
