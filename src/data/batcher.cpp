#include "src/data/batcher.h"

#include <algorithm>
#include <cstring>

namespace hfl::data {

Batcher::Batcher(const Dataset& dataset, std::vector<std::size_t> indices,
                 std::size_t batch_size, Rng rng)
    : dataset_(&dataset), indices_(std::move(indices)), rng_(std::move(rng)) {
  finish_init(batch_size);
  rng_.shuffle(indices_);
}

Batcher::Batcher() : rng_(0) {}

void Batcher::reset(const Dataset& dataset,
                    std::span<const std::size_t> indices,
                    std::size_t batch_size, Rng rng) {
  dataset_ = &dataset;
  indices_.assign(indices.begin(), indices.end());
  cursor_ = 0;
  rng_ = rng;
  finish_init(batch_size);
  rng_.shuffle(indices_);
}

void Batcher::restore(const Dataset& dataset, const void* packed,
                      std::size_t n, std::size_t cursor, const RngState& rng,
                      std::size_t batch_size) {
  dataset_ = &dataset;
  indices_.resize(n);
  if (n > 0) std::memcpy(indices_.data(), packed, n * sizeof(std::size_t));
  cursor_ = cursor;
  rng_ = Rng::from_state(rng);
  finish_init(batch_size);
  HFL_CHECK(cursor_ <= indices_.size(), "batcher checkpoint cursor out of range");
}

void Batcher::finish_init(std::size_t batch_size) {
  HFL_CHECK(!indices_.empty(), "batcher needs at least one sample");
  HFL_CHECK(batch_size > 0, "batch size must be positive");
  for (const std::size_t i : indices_) {
    HFL_CHECK(i < dataset_->size(), "batcher index out of dataset range");
  }
  batch_size_ = std::min(batch_size, indices_.size());
}

void Batcher::next(Tensor& x, std::vector<std::size_t>& y) {
  batch_scratch_.clear();
  for (std::size_t b = 0; b < batch_size_; ++b) {
    if (cursor_ == indices_.size()) {
      rng_.shuffle(indices_);
      cursor_ = 0;
    }
    batch_scratch_.push_back(indices_[cursor_++]);
  }
  dataset_->gather(batch_scratch_, x, y);
}

void Batcher::next_rows(std::vector<const Scalar*>& rows,
                        std::vector<std::size_t>& y) {
  rows.clear();
  y.clear();
  for (std::size_t b = 0; b < batch_size_; ++b) {
    if (cursor_ == indices_.size()) {
      rng_.shuffle(indices_);
      cursor_ = 0;
    }
    const std::size_t idx = indices_[cursor_++];
    rows.push_back(dataset_->features(idx).data());
    y.push_back(dataset_->label(idx));
  }
}

}  // namespace hfl::data
