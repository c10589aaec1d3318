#include "src/tensor/tensor.h"

#include <algorithm>
#include <sstream>

namespace hfl {

Tensor::Tensor(std::vector<std::size_t> shape)
    : shape_(std::move(shape)), data_(shape_size(shape_), 0.0) {}

Tensor::Tensor(std::vector<std::size_t> shape, Vec data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  HFL_CHECK(data_.size() == shape_size(shape_),
            "tensor data size does not match shape " + shape_string());
}

Tensor Tensor::full(std::vector<std::size_t> shape, Scalar value) {
  Tensor t(std::move(shape));
  t.fill(value);
  return t;
}

Tensor Tensor::randn(std::vector<std::size_t> shape, Rng& rng, Scalar stddev) {
  Tensor t(std::move(shape));
  for (auto& v : t.data_) v = rng.normal(0.0, stddev);
  return t;
}

std::size_t Tensor::dim(std::size_t axis) const {
  HFL_CHECK(axis < shape_.size(), "tensor axis out of range");
  return shape_[axis];
}

std::size_t Tensor::flat_index(std::initializer_list<std::size_t> idx) const {
  HFL_CHECK(idx.size() == shape_.size(), "tensor index rank mismatch");
  std::size_t flat = 0;
  std::size_t axis = 0;
  for (const std::size_t i : idx) {
    HFL_CHECK(i < shape_[axis], "tensor index out of bounds");
    flat = flat * shape_[axis] + i;
    ++axis;
  }
  return flat;
}

Scalar& Tensor::at(std::initializer_list<std::size_t> idx) {
  return data_[flat_index(idx)];
}

Scalar Tensor::at(std::initializer_list<std::size_t> idx) const {
  return data_[flat_index(idx)];
}

void Tensor::reshape(std::vector<std::size_t> new_shape) {
  HFL_CHECK(shape_size(new_shape) == data_.size(),
            "reshape must preserve element count");
  shape_ = std::move(new_shape);
}

void Tensor::resize(std::span<const std::size_t> shape) {
  // The equality test also makes resize(t.shape()) on itself safe.
  if (!std::equal(shape.begin(), shape.end(), shape_.begin(), shape_.end())) {
    shape_.assign(shape.begin(), shape.end());
  }
  data_.resize(shape_size(shape_));
}

void Tensor::fill(Scalar value) {
  std::fill(data_.begin(), data_.end(), value);
}

std::string Tensor::shape_string() const {
  std::ostringstream os;
  os << '(';
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    if (i > 0) os << ", ";
    os << shape_[i];
  }
  os << ')';
  return os.str();
}

}  // namespace hfl
