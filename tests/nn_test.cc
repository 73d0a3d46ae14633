// Tests for the NN module layer: parameter registration, layer forward
// semantics, gradient flow through composed modules, and a small end-to-end
// training sanity check.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "nn/layers.h"
#include "nn/module.h"
#include "tensor/ops.h"
#include "tensor/optimizer.h"
#include "util/rng.h"

namespace sthsl {
namespace {

TEST(ModuleBase, LinearRegistersParameters) {
  Rng rng(1);
  Linear layer(4, 3, rng);
  EXPECT_EQ(layer.Parameters().size(), 2u);  // weight + bias
  EXPECT_EQ(layer.NumParameters(), 4 * 3 + 3);
  Linear no_bias(4, 3, rng, /*with_bias=*/false);
  EXPECT_EQ(no_bias.Parameters().size(), 1u);
}

TEST(ModuleBase, NamedParametersNested) {
  Rng rng(2);
  GruCell cell(3, 5, rng);
  auto named = cell.NamedParameters();
  ASSERT_EQ(named.size(), 3u);  // input W+b, hidden W
  EXPECT_EQ(named[0].first, "input_proj.weight");
  EXPECT_EQ(named[2].first, "hidden_proj.weight");
}

TEST(LinearLayer, ForwardShapeAndValue) {
  Rng rng(4);
  Linear layer(2, 2, rng);
  // Overwrite with known values: y = xW + b.
  auto params = layer.Parameters();
  params[0].MutableData() = {1, 2, 3, 4};  // W (2x2) row-major
  params[1].MutableData() = {10, 20};      // b
  Tensor x = Tensor::FromVector({1, 2}, {1, 1});
  Tensor y = layer.Forward(x);
  EXPECT_FLOAT_EQ(y.At({0, 0}), 1 + 3 + 10);
  EXPECT_FLOAT_EQ(y.At({0, 1}), 2 + 4 + 20);
}

TEST(LinearLayer, HandlesLeadingDims) {
  Rng rng(5);
  Linear layer(3, 4, rng);
  Tensor x = Tensor::Ones({2, 5, 3});
  Tensor y = layer.Forward(x);
  EXPECT_EQ(y.Shape(), (std::vector<int64_t>{2, 5, 4}));
}

TEST(ConvLayers, SamePaddingPreservesSpatialDims) {
  Rng rng(6);
  Conv2dLayer conv(3, 8, 3, 3, rng);
  Tensor x = Tensor::Ones({2, 3, 5, 7});
  Tensor y = conv.Forward(x);
  EXPECT_EQ(y.Shape(), (std::vector<int64_t>{2, 8, 5, 7}));

  Conv1dLayer conv1(3, 6, 3, rng);
  Tensor x1 = Tensor::Ones({2, 3, 9});
  EXPECT_EQ(conv1.Forward(x1).Shape(), (std::vector<int64_t>{2, 6, 9}));
}

TEST(DropoutLayerTest, RespectsTrainingMode) {
  Rng rng(7);
  DropoutLayer drop(0.5f, rng);
  Tensor x = Tensor::Ones({256});
  Tensor eval_out = drop.Forward(x, /*training=*/false);
  for (float v : eval_out.Data()) EXPECT_EQ(v, 1.0f);
  Tensor train_out = drop.Forward(x, /*training=*/true);
  int zeros = 0;
  for (float v : train_out.Data()) zeros += (v == 0.0f);
  EXPECT_GT(zeros, 0);
}

TEST(LayerNormTest, NormalizesLastDim) {
  Rng rng(8);
  LayerNorm norm(4);
  Tensor x = Tensor::FromVector({2, 4}, {1, 2, 3, 4, 10, 20, 30, 40});
  Tensor y = norm.Forward(x);
  for (int64_t r = 0; r < 2; ++r) {
    float mean = 0.0f;
    for (int64_t c = 0; c < 4; ++c) mean += y.At({r, c});
    EXPECT_NEAR(mean / 4.0f, 0.0f, 1e-5f);
    float var = 0.0f;
    for (int64_t c = 0; c < 4; ++c) var += y.At({r, c}) * y.At({r, c});
    EXPECT_NEAR(var / 4.0f, 1.0f, 1e-3f);
  }
}

TEST(GruTest, OutputShapes) {
  Rng rng(9);
  Gru gru(3, 6, rng);
  Tensor x = Tensor::Ones({2, 5, 3});
  Tensor all = gru.Forward(x);
  EXPECT_EQ(all.Shape(), (std::vector<int64_t>{2, 5, 6}));
  Tensor last = gru.ForwardLast(x);
  EXPECT_EQ(last.Shape(), (std::vector<int64_t>{2, 6}));
  // Last slice of full output equals ForwardLast.
  for (int64_t b = 0; b < 2; ++b) {
    for (int64_t h = 0; h < 6; ++h) {
      EXPECT_NEAR(all.At({b, 4, h}), last.At({b, h}), 1e-6f);
    }
  }
}

TEST(GruTest, HiddenStateStaysBounded) {
  Rng rng(10);
  Gru gru(2, 4, rng);
  Tensor x = Tensor::Full({1, 50, 2}, 5.0f);
  Tensor h = gru.ForwardLast(x);
  for (float v : h.Data()) {
    EXPECT_LT(std::fabs(v), 1.0f + 1e-5f);  // tanh-bounded dynamics
  }
}

TEST(AttentionTest, ShapePreservedAndRowsMix) {
  Rng rng(11);
  MultiHeadSelfAttention attn(8, 2, rng);
  Tensor x = Tensor::Randn({2, 5, 8}, rng);
  Tensor y = attn.Forward(x);
  EXPECT_EQ(y.Shape(), (std::vector<int64_t>{2, 5, 8}));
}

TEST(AttentionTest, GradientFlowsToAllProjections) {
  Rng rng(12);
  MultiHeadSelfAttention attn(4, 2, rng);
  Tensor x = Tensor::Randn({1, 3, 4}, rng);
  Tensor loss = Sum(Square(attn.Forward(x)));
  loss.Backward();
  for (const auto& p : attn.Parameters()) {
    ASSERT_FALSE(p.Grad().empty());
    float norm = 0.0f;
    for (float g : p.Grad()) norm += g * g;
    EXPECT_GT(norm, 0.0f) << "a projection received zero gradient";
  }
}

// -- Optimizers -------------------------------------------------------------------

TEST(Optimizers, SgdQuadraticConverges) {
  Tensor w = Tensor::FromVector({1}, {5.0f}, /*requires_grad=*/true);
  Sgd opt({w}, /*lr=*/0.1f);
  for (int i = 0; i < 100; ++i) {
    opt.ZeroGrad();
    Tensor loss = Sum(Square(w - 2.0f));
    loss.Backward();
    opt.Step();
  }
  EXPECT_NEAR(w.Item(), 2.0f, 1e-3f);
}

TEST(Optimizers, SgdMomentumConverges) {
  Tensor w = Tensor::FromVector({1}, {5.0f}, /*requires_grad=*/true);
  Sgd opt({w}, /*lr=*/0.05f, /*momentum=*/0.9f);
  for (int i = 0; i < 200; ++i) {
    opt.ZeroGrad();
    Sum(Square(w - 2.0f)).Backward();
    opt.Step();
  }
  EXPECT_NEAR(w.Item(), 2.0f, 1e-2f);
}

TEST(Optimizers, AdamConverges) {
  Tensor w = Tensor::FromVector({2}, {5.0f, -3.0f}, /*requires_grad=*/true);
  Adam opt({w}, /*lr=*/0.1f);
  for (int i = 0; i < 300; ++i) {
    opt.ZeroGrad();
    Tensor target = Tensor::FromVector({2}, {1.0f, 2.0f});
    Sum(Square(w - target)).Backward();
    opt.Step();
  }
  EXPECT_NEAR(w.At(static_cast<int64_t>(0)), 1.0f, 1e-2f);
  EXPECT_NEAR(w.At(1), 2.0f, 1e-2f);
}

TEST(Optimizers, WeightDecayShrinksWeights) {
  Tensor w = Tensor::FromVector({1}, {1.0f}, /*requires_grad=*/true);
  Sgd opt({w}, /*lr=*/0.1f, /*momentum=*/0.0f, /*weight_decay=*/0.5f);
  // Loss gradient is zero; only decay acts.
  opt.ZeroGrad();
  Sum(w * 0.0f).Backward();
  opt.Step();
  EXPECT_NEAR(w.Item(), 1.0f - 0.1f * 0.5f, 1e-6f);
}

// -- End-to-end -----------------------------------------------------------------

TEST(EndToEnd, TwoLayerMlpLearnsXor) {
  Rng rng(13);
  Linear l1(2, 8, rng);
  Linear l2(8, 1, rng);
  std::vector<Tensor> params = l1.Parameters();
  auto p2 = l2.Parameters();
  params.insert(params.end(), p2.begin(), p2.end());
  Adam opt(params, 0.05f);

  Tensor x = Tensor::FromVector({4, 2}, {0, 0, 0, 1, 1, 0, 1, 1});
  Tensor y = Tensor::FromVector({4, 1}, {0, 1, 1, 0});

  float final_loss = 1e9f;
  for (int epoch = 0; epoch < 500; ++epoch) {
    opt.ZeroGrad();
    Tensor pred = l2.Forward(Tanh(l1.Forward(x)));
    Tensor loss = MseLoss(pred, y);
    loss.Backward();
    opt.Step();
    final_loss = loss.Item();
  }
  EXPECT_LT(final_loss, 0.01f);
}

TEST(EndToEnd, GruLearnsToSumSequence) {
  Rng rng(14);
  Gru gru(1, 8, rng);
  Linear head(8, 1, rng);
  std::vector<Tensor> params = gru.Parameters();
  auto ph = head.Parameters();
  params.insert(params.end(), ph.begin(), ph.end());
  Adam opt(params, 0.02f);

  // Sequences of 4 values in [0, 0.25]; target is their sum.
  const int64_t batch = 16;
  std::vector<float> xs;
  std::vector<float> ys;
  Rng data_rng(15);
  for (int64_t b = 0; b < batch; ++b) {
    float total = 0.0f;
    for (int t = 0; t < 4; ++t) {
      const float v = static_cast<float>(data_rng.Uniform(0.0, 0.25));
      xs.push_back(v);
      total += v;
    }
    ys.push_back(total);
  }
  Tensor x = Tensor::FromVector({batch, 4, 1}, xs);
  Tensor y = Tensor::FromVector({batch, 1}, ys);

  float first_loss = 0.0f;
  float last_loss = 0.0f;
  for (int epoch = 0; epoch < 200; ++epoch) {
    opt.ZeroGrad();
    Tensor pred = head.Forward(gru.ForwardLast(x));
    Tensor loss = MseLoss(pred, y);
    loss.Backward();
    opt.Step();
    if (epoch == 0) first_loss = loss.Item();
    last_loss = loss.Item();
  }
  EXPECT_LT(last_loss, first_loss * 0.2f);
}

}  // namespace
}  // namespace sthsl
