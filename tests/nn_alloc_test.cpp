// Allocation guard for the per-worker layer chain.
//
// Model::evaluate and Model::loss_and_gradient run on every evaluation batch
// and every unfused local step. Their activations, gradients and GEMM
// operands are reused buffers; this binary replaces the global operator new
// to count large allocations (>= 64 KiB — activation- and batch-sized
// buffers, not shape vectors) and fails if any appear after one warm-up
// call. A fresh buffer per call is what made evaluation allocator-bound:
// glibc returns such blocks to the OS and faults them in again next time.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "src/common/rng.h"
#include "src/nn/models.h"

namespace {

constexpr std::size_t kLargeBytes = std::size_t{64} << 10;
std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_large_allocs{0};

void* counted_alloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed) && n >= kLargeBytes) {
    g_large_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace hfl::nn {
namespace {

// Large allocations made while `fn` runs.
template <typename Fn>
std::size_t large_allocs_during(Fn&& fn) {
  g_large_allocs.store(0);
  g_counting.store(true);
  fn();
  g_counting.store(false);
  return g_large_allocs.load();
}

struct Batch {
  Tensor x;
  std::vector<std::size_t> y;
};

Batch random_batch(Rng& rng, std::size_t n,
                   const std::vector<std::size_t>& sample_shape,
                   std::size_t classes) {
  std::vector<std::size_t> shape{n};
  shape.insert(shape.end(), sample_shape.begin(), sample_shape.end());
  Batch b{Tensor::randn(shape, rng), std::vector<std::size_t>(n)};
  for (auto& l : b.y) l = rng.uniform_index(classes);
  return b;
}

void expect_steady_state_allocation_free(const ModelFactory& factory,
                                         std::vector<std::size_t> shape) {
  auto model = factory();
  Rng rng(31);
  model->init_params(rng);
  const Vec params = model->get_params();
  const Batch eval = random_batch(rng, 128, shape, 10);
  const Batch train = random_batch(rng, 16, shape, 10);
  Vec grad;

  // The guard must see the churn it is meant to catch: the first calls size
  // every reused buffer.
  EXPECT_GT(large_allocs_during([&] { model->evaluate(eval.x, eval.y); }), 0u);
  model->loss_and_gradient(params, train.x, train.y, grad);

  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(large_allocs_during([&] { model->evaluate(eval.x, eval.y); }),
              0u)
        << "evaluate, round " << round;
    EXPECT_EQ(large_allocs_during([&] {
                model->loss_and_gradient(params, train.x, train.y, grad);
              }),
              0u)
        << "loss_and_gradient, round " << round;
  }
}

TEST(AllocGuardTest, LogisticModelIsAllocationFreeAfterWarmUp) {
  expect_steady_state_allocation_free(logistic_regression({1, 28, 28}, 10),
                                      {1, 28, 28});
}

TEST(AllocGuardTest, CnnModelIsAllocationFreeAfterWarmUp) {
  expect_steady_state_allocation_free(cnn({3, 16, 16}, 10), {3, 16, 16});
}

}  // namespace
}  // namespace hfl::nn
