// Tests for the individual NN layers: shapes, known values, backward-pass
// correctness against numerical differentiation (per-layer, via a one-layer
// model), and stateless-layer behaviours.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>

#include "src/nn/activations.h"
#include "src/nn/conv2d.h"
#include "src/nn/dense.h"
#include "src/nn/dropout.h"
#include "src/nn/flatten.h"
#include "src/nn/gradcheck.h"
#include "src/nn/loss.h"
#include "src/nn/models.h"
#include "src/nn/pool2d.h"
#include "src/nn/residual.h"
#include "src/nn/sequential.h"

namespace hfl::nn {
namespace {

TEST(DenseTest, ForwardKnownValues) {
  Dense d(2, 2);
  // W = [[1, 2], [3, 4]], b = [10, 20].
  d.params()[0]->data() = {1, 2, 3, 4};
  d.params()[1]->data() = {10, 20};
  Tensor x({1, 2}, Vec{5, 6});
  Tensor y = d.forward(x, true);
  // y = x W^T + b = [5+12+10, 15+24+20].
  EXPECT_DOUBLE_EQ(y[0], 27.0);
  EXPECT_DOUBLE_EQ(y[1], 59.0);
}

TEST(DenseTest, BackwardShapes) {
  Dense d(3, 4);
  Rng rng(1);
  d.init_params(rng);
  Tensor x = Tensor::randn({5, 3}, rng);
  Tensor y = d.forward(x, true);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{5, 4}));
  Tensor gin = d.backward(Tensor::randn({5, 4}, rng));
  EXPECT_EQ(gin.shape(), x.shape());
}

TEST(DenseTest, RejectsWrongInputWidth) {
  Dense d(3, 4);
  Tensor x({2, 5});
  EXPECT_THROW(d.forward(x, true), Error);
}

TEST(DenseTest, GradAccumulatesAcrossCalls) {
  Dense d(2, 2);
  Rng rng(2);
  d.init_params(rng);
  Tensor x = Tensor::randn({1, 2}, rng);
  Tensor g = Tensor::randn({1, 2}, rng);
  d.forward(x, true);
  d.backward(g);
  const Vec once = d.grads()[0]->data();
  d.forward(x, true);
  d.backward(g);
  for (std::size_t i = 0; i < once.size(); ++i) {
    EXPECT_NEAR(d.grads()[0]->data()[i], 2 * once[i], 1e-12);
  }
  d.zero_grads();
  for (const Scalar v : d.grads()[0]->data()) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(ReLUTest, ForwardAndBackwardMask) {
  ReLU r;
  Tensor x({1, 4}, Vec{-1, 0, 2, -3});
  Tensor y = r.forward(x, true);
  EXPECT_EQ(y.data(), (Vec{0, 0, 2, 0}));
  Tensor g({1, 4}, Vec{1, 1, 1, 1});
  Tensor gin = r.backward(g);
  EXPECT_EQ(gin.data(), (Vec{0, 0, 1, 0}));
}

TEST(TanhTest, ForwardMatchesStdTanh) {
  Tanh t;
  Tensor x({1, 3}, Vec{-1, 0, 1});
  Tensor y = t.forward(x, true);
  EXPECT_NEAR(y[0], std::tanh(-1.0), 1e-12);
  EXPECT_DOUBLE_EQ(y[1], 0.0);
  EXPECT_NEAR(y[2], std::tanh(1.0), 1e-12);
}

TEST(SigmoidTest, ForwardRange) {
  Sigmoid s;
  Tensor x({1, 3}, Vec{-100, 0, 100});
  Tensor y = s.forward(x, true);
  EXPECT_NEAR(y[0], 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(y[1], 0.5);
  EXPECT_NEAR(y[2], 1.0, 1e-12);
}

TEST(MaxPoolTest, ForwardPicksMaxAndRoutesGradient) {
  MaxPool2d p(2);
  Tensor x({1, 1, 2, 2}, Vec{1, 5, 3, 2});
  Tensor y = p.forward(x, true);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{1, 1, 1, 1}));
  EXPECT_DOUBLE_EQ(y[0], 5.0);
  Tensor g({1, 1, 1, 1}, Vec{7});
  Tensor gin = p.backward(g);
  EXPECT_EQ(gin.data(), (Vec{0, 7, 0, 0}));
}

TEST(MaxPoolTest, RejectsIndivisibleInput) {
  MaxPool2d p(2);
  Tensor x({1, 1, 3, 4});
  EXPECT_THROW(p.forward(x, true), Error);
}

TEST(AvgPoolTest, ForwardAveragesAndSpreadsGradient) {
  AvgPool2d p(2);
  Tensor x({1, 1, 2, 2}, Vec{1, 2, 3, 6});
  Tensor y = p.forward(x, true);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  Tensor g({1, 1, 1, 1}, Vec{8});
  Tensor gin = p.backward(g);
  EXPECT_EQ(gin.data(), (Vec{2, 2, 2, 2}));
}

TEST(FlattenTest, RoundTripsShape) {
  Flatten f;
  Rng rng(3);
  Tensor x = Tensor::randn({2, 3, 4, 5}, rng);
  Tensor y = f.forward(x, true);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{2, 60}));
  Tensor gin = f.backward(y);
  EXPECT_EQ(gin.shape(), x.shape());
}

TEST(DropoutTest, EvalModeIsIdentity) {
  Dropout d(0.5);
  Rng rng(4);
  d.init_params(rng);
  Tensor x = Tensor::randn({2, 10}, rng);
  Tensor y = d.forward(x, /*train=*/false);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_DOUBLE_EQ(y[i], x[i]);
}

TEST(DropoutTest, TrainModeZeroesAndRescales) {
  Dropout d(0.5);
  Rng rng(5);
  d.init_params(rng);
  Tensor x = Tensor::full({1, 1000}, 1.0);
  Tensor y = d.forward(x, /*train=*/true);
  std::size_t zeros = 0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (y[i] == 0.0) ++zeros;
    else EXPECT_DOUBLE_EQ(y[i], 2.0);  // 1/(1-0.5)
  }
  EXPECT_NEAR(static_cast<double>(zeros), 500.0, 80.0);
}

TEST(DropoutTest, BackwardUsesSameMask) {
  Dropout d(0.3);
  Rng rng(6);
  d.init_params(rng);
  Tensor x = Tensor::full({1, 100}, 1.0);
  Tensor y = d.forward(x, true);
  Tensor g = Tensor::full({1, 100}, 1.0);
  Tensor gin = d.backward(g);
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_DOUBLE_EQ(gin[i], y[i]);  // mask * 1 == forward of all-ones
  }
}

TEST(DropoutTest, InvalidRateThrows) {
  EXPECT_THROW(Dropout(1.0), Error);
  EXPECT_THROW(Dropout(-0.1), Error);
}

TEST(ResidualTest, IdentityShortcutAddsInput) {
  // Inner branch = Dense(2,2) with zero weights -> output equals input.
  auto inner = std::make_unique<Dense>(2, 2);
  inner->params()[0]->fill(0.0);
  inner->params()[1]->fill(0.0);
  Residual res(std::move(inner));
  Tensor x({1, 2}, Vec{3, 4});
  Tensor y = res.forward(x, true);
  EXPECT_EQ(y.data(), (Vec{3, 4}));
}

TEST(ResidualTest, BackwardSumsBranchAndSkip) {
  // Inner = identity-weight dense => grad_in = grad(branch) + grad(skip)
  //       = W^T g + g = 2g.
  auto inner = std::make_unique<Dense>(2, 2);
  inner->params()[0]->data() = {1, 0, 0, 1};
  inner->params()[1]->fill(0.0);
  Residual res(std::move(inner));
  Tensor x({1, 2}, Vec{1, 1});
  res.forward(x, true);
  Tensor g({1, 2}, Vec{5, 7});
  Tensor gin = res.backward(g);
  EXPECT_EQ(gin.data(), (Vec{10, 14}));
}

TEST(ResidualTest, MismatchedShapesThrow) {
  auto inner = std::make_unique<Dense>(2, 3);  // changes width, no shortcut
  Rng rng(7);
  inner->init_params(rng);
  Residual res(std::move(inner));
  Tensor x({1, 2}, Vec{1, 1});
  EXPECT_THROW(res.forward(x, true), Error);
}

TEST(SequentialTest, ParamsAggregateAcrossLayers) {
  Sequential seq;
  seq.emplace<Dense>(4, 3);
  seq.emplace<ReLU>();
  seq.emplace<Dense>(3, 2);
  EXPECT_EQ(seq.num_layers(), 3u);
  EXPECT_EQ(seq.params().size(), 4u);  // two weights + two biases
  EXPECT_EQ(seq.num_params(), 4u * 3 + 3 + 3 * 2 + 2);
}

TEST(Conv2dTest, OutputShapeSamePadding) {
  Conv2d c(1, 2, 3, 1);
  Rng rng(8);
  c.init_params(rng);
  Tensor x = Tensor::randn({2, 1, 8, 8}, rng);
  Tensor y = c.forward(x, true);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{2, 2, 8, 8}));
}

TEST(Conv2dTest, OutputShapeValidPadding) {
  Conv2d c(1, 1, 3, 0);
  Rng rng(9);
  c.init_params(rng);
  Tensor x = Tensor::randn({1, 1, 8, 8}, rng);
  Tensor y = c.forward(x, true);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{1, 1, 6, 6}));
}

TEST(Conv2dTest, KnownConvolution) {
  // 1x1 input channel, 1 output channel, 3x3 kernel of all ones, pad 1,
  // constant input => interior outputs = 9, corners = 4, edges = 6.
  Conv2d c(1, 1, 3, 1);
  c.params()[0]->fill(1.0);
  c.params()[1]->fill(0.0);
  Tensor x = Tensor::full({1, 1, 3, 3}, 1.0);
  Tensor y = c.forward(x, true);
  EXPECT_DOUBLE_EQ(y.at({0, 0, 1, 1}), 9.0);
  EXPECT_DOUBLE_EQ(y.at({0, 0, 0, 0}), 4.0);
  EXPECT_DOUBLE_EQ(y.at({0, 0, 0, 1}), 6.0);
}

TEST(Conv2dTest, BiasIsAddedPerChannel) {
  Conv2d c(1, 2, 1, 0);
  c.params()[0]->fill(0.0);
  c.params()[1]->data() = {2.5, -1.5};
  Tensor x = Tensor::full({1, 1, 2, 2}, 1.0);
  Tensor y = c.forward(x, true);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(y[i], 2.5);
  for (std::size_t i = 4; i < 8; ++i) EXPECT_DOUBLE_EQ(y[i], -1.5);
}

// Gradient checks: build a one-layer (plus loss) model and compare analytic
// and numeric gradients.
GradCheckResult gradcheck_model(std::unique_ptr<Sequential> net,
                                std::vector<std::size_t> sample_shape,
                                std::size_t classes, std::size_t batch,
                                std::uint64_t seed) {
  Model model(std::move(net), std::make_unique<SoftmaxCrossEntropy>(),
              sample_shape);
  Rng rng(seed);
  model.init_params(rng);
  std::vector<std::size_t> bshape{batch};
  bshape.insert(bshape.end(), sample_shape.begin(), sample_shape.end());
  Tensor x = Tensor::randn(bshape, rng);
  std::vector<std::size_t> labels(batch);
  for (auto& l : labels) l = rng.uniform_index(classes);
  return check_gradients(model, model.get_params(), x, labels, 1e-5, 150);
}

TEST(GradCheckTest, DenseLayer) {
  auto net = std::make_unique<Sequential>();
  net->emplace<Flatten>();
  net->emplace<Dense>(12, 5);
  const auto r = gradcheck_model(std::move(net), {12}, 5, 4, 11);
  EXPECT_LT(r.max_rel_error, 1e-5) << "abs " << r.max_abs_error;
}

TEST(GradCheckTest, DenseReluStack) {
  auto net = std::make_unique<Sequential>();
  net->emplace<Flatten>();
  net->emplace<Dense>(10, 8);
  net->emplace<ReLU>();
  net->emplace<Dense>(8, 4);
  const auto r = gradcheck_model(std::move(net), {10}, 4, 3, 12);
  EXPECT_LT(r.max_rel_error, 1e-4);
}

TEST(GradCheckTest, TanhAndSigmoid) {
  auto net = std::make_unique<Sequential>();
  net->emplace<Flatten>();
  net->emplace<Dense>(6, 6);
  net->emplace<Tanh>();
  net->emplace<Dense>(6, 6);
  net->emplace<Sigmoid>();
  net->emplace<Dense>(6, 3);
  const auto r = gradcheck_model(std::move(net), {6}, 3, 3, 13);
  EXPECT_LT(r.max_rel_error, 1e-4);
}

TEST(GradCheckTest, Conv2dLayer) {
  auto net = std::make_unique<Sequential>();
  net->emplace<Conv2d>(2, 3, 3, 1);
  net->emplace<Flatten>();
  net->emplace<Dense>(3 * 6 * 6, 4);
  const auto r = gradcheck_model(std::move(net), {2, 6, 6}, 4, 2, 14);
  EXPECT_LT(r.max_rel_error, 1e-4);
}

TEST(GradCheckTest, Conv2dNoPadding) {
  auto net = std::make_unique<Sequential>();
  net->emplace<Conv2d>(1, 2, 3, 0);
  net->emplace<Flatten>();
  net->emplace<Dense>(2 * 4 * 4, 3);
  const auto r = gradcheck_model(std::move(net), {1, 6, 6}, 3, 2, 15);
  EXPECT_LT(r.max_rel_error, 1e-4);
}

TEST(GradCheckTest, MaxPoolStack) {
  auto net = std::make_unique<Sequential>();
  net->emplace<Conv2d>(1, 2, 3, 1);
  net->emplace<ReLU>();
  net->emplace<MaxPool2d>(2);
  net->emplace<Flatten>();
  net->emplace<Dense>(2 * 4 * 4, 3);
  const auto r = gradcheck_model(std::move(net), {1, 8, 8}, 3, 2, 16);
  EXPECT_LT(r.max_rel_error, 1e-4);
}

TEST(GradCheckTest, AvgPoolStack) {
  auto net = std::make_unique<Sequential>();
  net->emplace<Conv2d>(1, 2, 3, 1);
  net->emplace<AvgPool2d>(4);
  net->emplace<Flatten>();
  net->emplace<Dense>(2 * 2 * 2, 3);
  const auto r = gradcheck_model(std::move(net), {1, 8, 8}, 3, 2, 17);
  EXPECT_LT(r.max_rel_error, 1e-4);
}

TEST(GradCheckTest, ResidualIdentity) {
  auto inner = std::make_unique<Sequential>();
  inner->emplace<Conv2d>(2, 2, 3, 1);
  inner->emplace<ReLU>();
  inner->emplace<Conv2d>(2, 2, 3, 1);
  auto net = std::make_unique<Sequential>();
  net->add(std::make_unique<Residual>(std::move(inner)));
  net->emplace<Flatten>();
  net->emplace<Dense>(2 * 5 * 5, 3);
  const auto r = gradcheck_model(std::move(net), {2, 5, 5}, 3, 2, 18);
  EXPECT_LT(r.max_rel_error, 1e-4);
}

TEST(GradCheckTest, ResidualProjection) {
  auto inner = std::make_unique<Sequential>();
  inner->emplace<Conv2d>(1, 3, 3, 1);
  auto shortcut = std::make_unique<Conv2d>(1, 3, 1, 0);
  auto net = std::make_unique<Sequential>();
  net->add(std::make_unique<Residual>(std::move(inner), std::move(shortcut)));
  net->emplace<Flatten>();
  net->emplace<Dense>(3 * 5 * 5, 3);
  const auto r = gradcheck_model(std::move(net), {1, 5, 5}, 3, 2, 19);
  EXPECT_LT(r.max_rel_error, 1e-4);
}

// --- Buffer-reusing pass pair -------------------------------------------
//
// forward_into/backward_into must produce exactly the bits of the value
// forms, whatever the reused buffers held before: a stale shape, stale
// contents, or NaN poison. Each case runs two instances of the same layer
// side by side — one through the value forms, one through the pass pair with
// buffers that are dirty and wrongly shaped on the first call and hold the
// previous batch's results on the second — over two consecutive batch sizes.

void expect_bits_eq(const Tensor& a, const Tensor& b, const std::string& what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  EXPECT_EQ(std::memcmp(a.raw(), b.raw(), a.size() * sizeof(Scalar)), 0)
      << what;
}

Tensor poisoned(std::vector<std::size_t> shape) {
  return Tensor::full(std::move(shape),
                      std::numeric_limits<Scalar>::quiet_NaN());
}

struct PassCase {
  std::string name;
  std::function<LayerPtr()> make;
  std::vector<std::size_t> sample_shape;  // without the batch dimension
};

std::vector<PassCase> pass_cases() {
  std::vector<PassCase> cases;
  cases.push_back({"dense", [] { return std::make_unique<Dense>(6, 4); }, {6}});
  cases.push_back(
      {"conv2d", [] { return std::make_unique<Conv2d>(2, 3, 3, 1); },
       {2, 6, 6}});
  cases.push_back(
      {"conv2d_valid", [] { return std::make_unique<Conv2d>(1, 2, 3, 0); },
       {1, 6, 6}});
  cases.push_back(
      {"maxpool", [] { return std::make_unique<MaxPool2d>(2); }, {2, 4, 4}});
  cases.push_back(
      {"avgpool", [] { return std::make_unique<AvgPool2d>(2); }, {2, 4, 4}});
  cases.push_back({"relu", [] { return std::make_unique<ReLU>(); }, {7}});
  cases.push_back({"tanh", [] { return std::make_unique<Tanh>(); }, {7}});
  cases.push_back({"sigmoid", [] { return std::make_unique<Sigmoid>(); }, {7}});
  cases.push_back(
      {"dropout", [] { return std::make_unique<Dropout>(0.4); }, {9}});
  cases.push_back(
      {"flatten", [] { return std::make_unique<Flatten>(); }, {2, 3, 2}});
  cases.push_back({"residual_identity",
                   [] {
                     auto inner = std::make_unique<Sequential>();
                     inner->emplace<Conv2d>(2, 2, 3, 1);
                     inner->emplace<ReLU>();
                     return std::make_unique<Residual>(std::move(inner));
                   },
                   {2, 4, 4}});
  cases.push_back({"residual_projection",
                   [] {
                     auto inner = std::make_unique<Sequential>();
                     inner->emplace<Conv2d>(1, 3, 3, 1);
                     return std::make_unique<Residual>(
                         std::move(inner), std::make_unique<Conv2d>(1, 3, 1, 0));
                   },
                   {1, 4, 4}});
  cases.push_back({"sequential",
                   [] {
                     auto seq = std::make_unique<Sequential>();
                     seq->emplace<Conv2d>(1, 2, 3, 1);
                     seq->emplace<ReLU>();
                     seq->emplace<MaxPool2d>(2);
                     seq->emplace<Dropout>(0.25);
                     seq->emplace<Flatten>();
                     seq->emplace<Dense>(2 * 2 * 2, 5);
                     seq->emplace<Tanh>();
                     seq->emplace<Dense>(5, 3);
                     return seq;
                   },
                   {1, 4, 4}});
  return cases;
}

TEST(PassPairTest, MatchesValueFormsWithDirtyReusedBuffers) {
  for (const PassCase& c : pass_cases()) {
    SCOPED_TRACE(c.name);
    LayerPtr by_value = c.make();
    LayerPtr by_into = c.make();
    Rng init_a(21), init_b(21);
    by_value->init_params(init_a);
    by_into->init_params(init_b);

    Tensor out = poisoned({3, 1, 2});  // wrong shape, NaN contents
    Tensor grad_in = poisoned({1});
    Tensor eval_out = poisoned({2, 2, 2, 2, 2});
    Rng data(22);
    for (const std::size_t batch : {std::size_t{4}, std::size_t{7}}) {
      std::vector<std::size_t> shape{batch};
      shape.insert(shape.end(), c.sample_shape.begin(), c.sample_shape.end());
      const Tensor x = Tensor::randn(shape, data);

      // Evaluation forward first: it must leave no trace in the training
      // pass that follows.
      by_into->forward_into(x, eval_out, /*train=*/false);
      expect_bits_eq(by_value->forward(x, /*train=*/false), eval_out,
                     "eval forward");

      const Tensor y = by_value->forward(x, /*train=*/true);
      by_into->forward_into(x, out, /*train=*/true);
      expect_bits_eq(y, out, "train forward");

      by_value->zero_grads();
      by_into->zero_grads();
      const Tensor g = Tensor::randn(y.shape(), data);
      const Tensor gin = by_value->backward(g);
      by_into->backward_into(g, &grad_in);
      expect_bits_eq(gin, grad_in, "backward grad_in");
      const auto ga = by_value->grads();
      const auto gb = by_into->grads();
      ASSERT_EQ(ga.size(), gb.size());
      for (std::size_t i = 0; i < ga.size(); ++i) {
        expect_bits_eq(*ga[i], *gb[i], "param grad " + std::to_string(i));
      }
    }
  }
}

TEST(PassPairTest, NullGradInGivesIdenticalParamGradsForEveryLayer) {
  for (const PassCase& c : pass_cases()) {
    SCOPED_TRACE(c.name);
    LayerPtr full = c.make();
    LayerPtr params_only = c.make();
    Rng init_a(23), init_b(23);
    full->init_params(init_a);
    params_only->init_params(init_b);
    Rng data(24);
    std::vector<std::size_t> shape{5};
    shape.insert(shape.end(), c.sample_shape.begin(), c.sample_shape.end());
    const Tensor x = Tensor::randn(shape, data);
    const Tensor y = full->forward(x, /*train=*/true);
    params_only->forward(x, /*train=*/true);
    const Tensor g = Tensor::randn(y.shape(), data);
    full->zero_grads();
    params_only->zero_grads();
    full->backward(g);
    params_only->backward_into(g, nullptr);
    const auto ga = full->grads();
    const auto gb = params_only->grads();
    ASSERT_EQ(ga.size(), gb.size());
    for (std::size_t i = 0; i < ga.size(); ++i) {
      expect_bits_eq(*ga[i], *gb[i], "param grad " + std::to_string(i));
    }
  }
}

// Model-level dead-dX rule: loss_and_gradient (which passes a null grad_in
// and stops at the first parametric layer) must return exactly the gradient
// of a full value-form backward through the same network.
TEST(PassPairTest, NullGradInMatchesFullBackwardOnModelFactories) {
  const std::vector<std::size_t> img{1, 8, 8};
  const std::vector<std::pair<std::string, ModelFactory>> factories{
      {"logistic", logistic_regression(img, 4)},
      {"mlp", mlp(img, 6, 4)},
      {"cnn", cnn(img, 4)},
  };
  for (const auto& [name, factory] : factories) {
    SCOPED_TRACE(name);
    auto fast = factory();
    auto full = factory();
    Rng init(25);
    fast->init_params(init);
    const Vec params = fast->get_params();
    Rng data(26);
    for (const std::size_t batch : {std::size_t{16}, std::size_t{5}}) {
      const Tensor x = Tensor::randn({batch, 1, 8, 8}, data);
      std::vector<std::size_t> labels(batch);
      for (auto& l : labels) l = data.uniform_index(4);

      Vec grad_fast;
      const Scalar loss_fast =
          fast->loss_and_gradient(params, x, labels, grad_fast);

      // Reference: the same network driven layer by layer through the value
      // forms, computing every input gradient.
      full->set_params(params);
      full->zero_grads();
      Sequential& net = full->net();
      Tensor a = x;
      for (std::size_t l = 0; l < net.num_layers(); ++l) {
        a = net.layer(l).forward(a, /*train=*/true);
      }
      SoftmaxCrossEntropy loss;
      const Scalar loss_full = loss.forward(a, labels);
      Tensor g = loss.backward();
      for (std::size_t l = net.num_layers(); l-- > 0;) {
        g = net.layer(l).backward(g);
      }
      Vec grad_full;
      full->get_grads(grad_full);

      EXPECT_EQ(std::memcmp(&loss_fast, &loss_full, sizeof(Scalar)), 0);
      ASSERT_EQ(grad_fast.size(), grad_full.size());
      EXPECT_EQ(std::memcmp(grad_fast.data(), grad_full.data(),
                            grad_fast.size() * sizeof(Scalar)),
                0);

      // Sequential level: backward_into(g, nullptr) vs a full backward.
      full->zero_grads();
      Tensor pred;
      net.forward_into(x, pred, /*train=*/true);
      loss.forward(pred, labels);
      const Tensor gl = loss.backward();
      Tensor gin;
      net.backward_into(gl, &gin);
      EXPECT_EQ(gin.shape(), x.shape());
      Vec grad_seq_full;
      full->get_grads(grad_seq_full);
      full->zero_grads();
      net.forward_into(x, pred, /*train=*/true);
      net.backward_into(gl, nullptr);
      Vec grad_seq_null;
      full->get_grads(grad_seq_null);
      EXPECT_EQ(std::memcmp(grad_seq_full.data(), grad_seq_null.data(),
                            grad_seq_full.size() * sizeof(Scalar)),
                0);
      EXPECT_EQ(std::memcmp(grad_seq_full.data(), grad_full.data(),
                            grad_full.size() * sizeof(Scalar)),
                0);
    }
  }
}

// evaluate runs the evaluation-mode chain; it must agree bit for bit with a
// value-form predict and a fresh loss on the same batch.
TEST(PassPairTest, EvaluateMatchesValueFormPredict) {
  auto model = cnn({1, 8, 8}, 4)();
  Rng init(27);
  model->init_params(init);
  Rng data(28);
  for (const std::size_t batch : {std::size_t{9}, std::size_t{3}}) {
    const Tensor x = Tensor::randn({batch, 1, 8, 8}, data);
    std::vector<std::size_t> labels(batch);
    for (auto& l : labels) l = data.uniform_index(4);
    const EvalResult r = model->evaluate(x, labels);
    const Tensor pred = model->predict(x);
    SoftmaxCrossEntropy loss;
    const Scalar expected = loss.forward(pred, labels);
    EXPECT_EQ(std::memcmp(&r.loss, &expected, sizeof(Scalar)), 0);
  }
}

}  // namespace
}  // namespace hfl::nn
