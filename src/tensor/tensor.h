// Dense row-major tensor.
//
// The neural-network substrate operates on small dense tensors (activations,
// weights, images). `Tensor` is a value type: shape plus a contiguous buffer
// of `Scalar`. Views/strides are deliberately out of scope — every layer in
// src/nn works on contiguous data, which keeps the backprop code auditable.
//
// Indexing convention: shape {d0, d1, ..., dk} with d0 the slowest-varying
// dimension. Batched image tensors use NCHW.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "src/common/errors.h"
#include "src/common/rng.h"
#include "src/common/types.h"

namespace hfl {

class Tensor {
 public:
  Tensor() = default;

  // Zero-initialized tensor of the given shape.
  explicit Tensor(std::vector<std::size_t> shape);

  // Tensor with the given shape adopting `data` (size must match).
  Tensor(std::vector<std::size_t> shape, Vec data);

  static Tensor zeros(std::vector<std::size_t> shape) {
    return Tensor(std::move(shape));
  }
  static Tensor full(std::vector<std::size_t> shape, Scalar value);
  // I.i.d. normal entries: mean 0, the given stddev.
  static Tensor randn(std::vector<std::size_t> shape, Rng& rng,
                      Scalar stddev = 1.0);

  const std::vector<std::size_t>& shape() const { return shape_; }
  std::size_t rank() const { return shape_.size(); }
  std::size_t dim(std::size_t axis) const;
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  Vec& data() { return data_; }
  const Vec& data() const { return data_; }

  Scalar* raw() { return data_.data(); }
  const Scalar* raw() const { return data_.data(); }

  // Flat access.
  Scalar& operator[](std::size_t i) { return data_[i]; }
  Scalar operator[](std::size_t i) const { return data_[i]; }

  // Multi-dimensional access (rank-checked in debug-friendly HFL_CHECK form).
  Scalar& at(std::initializer_list<std::size_t> idx);
  Scalar at(std::initializer_list<std::size_t> idx) const;

  // Reshape in place; total size must be preserved.
  void reshape(std::vector<std::size_t> new_shape);

  // Give the tensor `shape`, reusing the buffer: memory is allocated only
  // when the element count outgrows the capacity, so a tensor reused as an
  // output across calls stops allocating once it has held its largest
  // shape. Element values are unspecified afterwards — callers overwrite or
  // fill every element.
  void resize(std::span<const std::size_t> shape);
  void resize(std::initializer_list<std::size_t> shape) {
    resize(std::span<const std::size_t>(shape.begin(), shape.size()));
  }

  // Set every element to `value`.
  void fill(Scalar value);

  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }

  std::string shape_string() const;

  static std::size_t shape_size(const std::vector<std::size_t>& shape) {
    return std::accumulate(shape.begin(), shape.end(), std::size_t{1},
                           std::multiplies<>());
  }

 private:
  std::size_t flat_index(std::initializer_list<std::size_t> idx) const;

  std::vector<std::size_t> shape_;
  Vec data_;
};

}  // namespace hfl
