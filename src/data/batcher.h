// Mini-batch iterator over a worker's local sample indices.
//
// Cycles forever: when an epoch is exhausted the index order is reshuffled
// with the batcher's own RNG (so per-worker streams are independent and the
// whole simulation is deterministic). Batch size is capped at the local
// sample count.
#pragma once

#include <span>

#include "src/common/rng.h"
#include "src/data/dataset.h"

namespace hfl::data {

class Batcher {
 public:
  Batcher(const Dataset& dataset, std::vector<std::size_t> indices,
          std::size_t batch_size, Rng rng);

  // An empty batcher that holds no stream until reset() or restore() gives
  // it one; next() and next_rows() must not run before that. The population
  // subsystem keeps these in recycled worker shells.
  Batcher();

  // Start a fresh stream in place, exactly as the constructor above would,
  // reusing this batcher's index capacity.
  void reset(const Dataset& dataset, std::span<const std::size_t> indices,
             std::size_t batch_size, Rng rng);
  // Resume from a checkpoint in place: no initial shuffle, the stream
  // continues exactly where the saved indices/cursor/RNG left it. The `n`
  // indices are read from `packed`, native std::size_t values at any
  // alignment, so a spill blob decodes straight into the batcher.
  void restore(const Dataset& dataset, const void* packed, std::size_t n,
               std::size_t cursor, const RngState& rng,
               std::size_t batch_size);

  // Fills `x` (B, *sample_shape) and `y` with the next mini-batch.
  void next(Tensor& x, std::vector<std::size_t>& y);

  // Zero-copy variant: fills `rows` with one pointer per sample into the
  // dataset's contiguous storage instead of gathering into `x`. Advances the
  // cursor/shuffle stream exactly like next() — the two forms are
  // interchangeable draw-for-draw. Pointers stay valid for the dataset's
  // lifetime.
  void next_rows(std::vector<const Scalar*>& rows, std::vector<std::size_t>& y);

  // Complete stream position: the current (shuffled) index order, the
  // cursor into it and the shuffle RNG. Restoring from these parts resumes
  // the batch sequence bit-exactly; the population subsystem spills and
  // restores worker streams this way.
  std::span<const std::size_t> indices() const { return indices_; }
  std::size_t cursor() const { return cursor_; }
  RngState rng_state() const { return rng_.save_state(); }

  std::size_t num_samples() const { return indices_.size(); }
  std::size_t batch_size() const { return batch_size_; }

 private:
  // Validates the index set against the dataset and caps the batch size at
  // the local sample count (shared tail of the constructor, reset, restore).
  void finish_init(std::size_t batch_size);

  const Dataset* dataset_ = nullptr;
  std::vector<std::size_t> indices_;
  std::size_t batch_size_ = 0;
  std::size_t cursor_ = 0;
  Rng rng_;
  std::vector<std::size_t> batch_scratch_;
};

}  // namespace hfl::data
