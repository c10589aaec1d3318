#include "src/data/dataset.h"

#include <numeric>

namespace hfl::data {

Dataset::Dataset(std::vector<std::size_t> sample_shape,
                 std::size_t num_classes)
    : sample_shape_(std::move(sample_shape)),
      num_classes_(num_classes),
      sample_size_(std::accumulate(sample_shape_.begin(), sample_shape_.end(),
                                   std::size_t{1}, std::multiplies<>())) {
  HFL_CHECK(!sample_shape_.empty(), "dataset sample shape must be non-empty");
  HFL_CHECK(num_classes_ > 0, "dataset needs at least one class");
}

void Dataset::add_sample(std::span<const Scalar> features, std::size_t label) {
  HFL_CHECK(features.size() == sample_size_, "sample feature size mismatch");
  HFL_CHECK(label < num_classes_, "sample label out of range");
  features_.insert(features_.end(), features.begin(), features.end());
  labels_.push_back(label);
}

void Dataset::reserve(std::size_t n) {
  features_.reserve(n * sample_size_);
  labels_.reserve(n);
}

std::size_t Dataset::label(std::size_t i) const {
  HFL_CHECK(i < labels_.size(), "sample index out of range");
  return labels_[i];
}

std::span<const Scalar> Dataset::features(std::size_t i) const {
  HFL_CHECK(i < labels_.size(), "sample index out of range");
  return {features_.data() + i * sample_size_, sample_size_};
}

void Dataset::gather(std::span<const std::size_t> indices, Tensor& x,
                     std::vector<std::size_t>& y) const {
  std::vector<std::size_t> shape;
  shape.reserve(sample_shape_.size() + 1);
  shape.push_back(indices.size());
  shape.insert(shape.end(), sample_shape_.begin(), sample_shape_.end());
  x.resize(shape);  // every element is overwritten below
  y.resize(indices.size());
  Scalar* out = x.raw();
  for (std::size_t b = 0; b < indices.size(); ++b) {
    const auto f = features(indices[b]);
    std::copy(f.begin(), f.end(), out + b * sample_size_);
    y[b] = labels_[indices[b]];
  }
}

std::vector<std::size_t> Dataset::indices_of_class(std::size_t label) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < labels_.size(); ++i) {
    if (labels_[i] == label) out.push_back(i);
  }
  return out;
}

std::vector<std::size_t> Dataset::class_histogram() const {
  std::vector<std::size_t> hist(num_classes_, 0);
  for (const std::size_t y : labels_) ++hist[y];
  return hist;
}

}  // namespace hfl::data
