// Tests for tensor/tensor: construction, indexing, reshape, factories.
#include "src/tensor/tensor.h"

#include <gtest/gtest.h>

namespace hfl {
namespace {

TEST(TensorTest, ZeroInitialized) {
  Tensor t({2, 3});
  EXPECT_EQ(t.size(), 6u);
  EXPECT_EQ(t.rank(), 2u);
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_DOUBLE_EQ(t[i], 0.0);
}

TEST(TensorTest, AdoptsData) {
  Tensor t({2, 2}, Vec{1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(t.at({0, 0}), 1.0);
  EXPECT_DOUBLE_EQ(t.at({0, 1}), 2.0);
  EXPECT_DOUBLE_EQ(t.at({1, 0}), 3.0);
  EXPECT_DOUBLE_EQ(t.at({1, 1}), 4.0);
}

TEST(TensorTest, DataSizeMismatchThrows) {
  EXPECT_THROW(Tensor({2, 2}, Vec{1, 2, 3}), Error);
}

TEST(TensorTest, RowMajorLayout) {
  Tensor t({2, 3, 4});
  t.at({1, 2, 3}) = 7.0;
  EXPECT_DOUBLE_EQ(t[1 * 12 + 2 * 4 + 3], 7.0);
}

TEST(TensorTest, AtChecksRankAndBounds) {
  Tensor t({2, 2});
  EXPECT_THROW(t.at({0}), Error);
  EXPECT_THROW(t.at({2, 0}), Error);
  EXPECT_THROW(t.at({0, 0, 0}), Error);
}

TEST(TensorTest, ReshapePreservesData) {
  Tensor t({2, 3}, Vec{1, 2, 3, 4, 5, 6});
  t.reshape({3, 2});
  EXPECT_DOUBLE_EQ(t.at({2, 1}), 6.0);
  EXPECT_THROW(t.reshape({4, 2}), Error);
}

TEST(TensorTest, ResizeReusesBufferAcrossShapes) {
  Tensor t({4, 8});
  const Scalar* buf = t.raw();
  t.resize({2, 3, 5});  // smaller: same buffer, new shape
  EXPECT_EQ(t.shape(), (std::vector<std::size_t>{2, 3, 5}));
  EXPECT_EQ(t.size(), 30u);
  EXPECT_EQ(t.raw(), buf);
  t.resize({32});  // back up to the largest size seen: still no reallocation
  EXPECT_EQ(t.raw(), buf);
  t.resize(t.shape());  // a tensor's own shape is a valid argument
  EXPECT_EQ(t.shape(), (std::vector<std::size_t>{32}));
  t.resize({9, 9});  // outgrows the capacity
  EXPECT_EQ(t.size(), 81u);
}

TEST(TensorTest, FullFillsValue) {
  Tensor t = Tensor::full({3}, 2.5);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(t[i], 2.5);
}

TEST(TensorTest, FillOverwrites) {
  Tensor t({4});
  t.fill(-1.0);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(t[i], -1.0);
}

TEST(TensorTest, RandnStatistics) {
  Rng rng(5);
  Tensor t = Tensor::randn({100, 100}, rng, 2.0);
  Scalar sum = 0, sum_sq = 0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    sum += t[i];
    sum_sq += t[i] * t[i];
  }
  const Scalar n = static_cast<Scalar>(t.size());
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / n, 4.0, 0.2);
}

TEST(TensorTest, SameShape) {
  Tensor a({2, 3}), b({2, 3}), c({3, 2});
  EXPECT_TRUE(a.same_shape(b));
  EXPECT_FALSE(a.same_shape(c));
}

TEST(TensorTest, ShapeString) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.shape_string(), "(2, 3, 4)");
}

TEST(TensorTest, DimAccessor) {
  Tensor t({5, 7});
  EXPECT_EQ(t.dim(0), 5u);
  EXPECT_EQ(t.dim(1), 7u);
  EXPECT_THROW(t.dim(2), Error);
}

TEST(TensorTest, EmptyDefault) {
  Tensor t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.rank(), 0u);
}

}  // namespace
}  // namespace hfl
