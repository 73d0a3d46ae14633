// Unit tests for the core Tensor type: creation, introspection, shape
// manipulation and forward values of the op library.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/obs/obs.h"
#include "util/rng.h"

namespace sthsl {
namespace {

TEST(TensorCreate, ZerosShapeAndValues) {
  Tensor t = Tensor::Zeros({2, 3});
  EXPECT_EQ(t.Numel(), 6);
  EXPECT_EQ(t.Dim(), 2);
  EXPECT_EQ(t.Size(0), 2);
  EXPECT_EQ(t.Size(1), 3);
  EXPECT_EQ(t.Size(-1), 3);
  for (int64_t i = 0; i < 6; ++i) EXPECT_EQ(t.At(i), 0.0f);
}

TEST(TensorCreate, FullAndOnes) {
  Tensor f = Tensor::Full({4}, 2.5f);
  for (int64_t i = 0; i < 4; ++i) EXPECT_EQ(f.At(i), 2.5f);
  Tensor o = Tensor::Ones({2, 2});
  EXPECT_EQ(o.At({1, 1}), 1.0f);
}

TEST(TensorCreate, FromVectorAndAt) {
  Tensor t = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(t.At({0, 0}), 1.0f);
  EXPECT_EQ(t.At({0, 2}), 3.0f);
  EXPECT_EQ(t.At({1, 0}), 4.0f);
  EXPECT_EQ(t.At({1, 2}), 6.0f);
}

TEST(TensorCreate, ScalarTensor) {
  Tensor s = Tensor::Scalar(7.0f);
  EXPECT_EQ(s.Dim(), 0);
  EXPECT_EQ(s.Numel(), 1);
  EXPECT_EQ(s.Item(), 7.0f);
}

TEST(TensorCreate, RandWithinBounds) {
  Rng rng(1);
  Tensor t = Tensor::Rand({100}, rng, -2.0f, 3.0f);
  for (float v : t.Data()) {
    EXPECT_GE(v, -2.0f);
    EXPECT_LT(v, 3.0f);
  }
}

TEST(TensorCreate, RandnRoughMoments) {
  Rng rng(2);
  Tensor t = Tensor::Randn({10000}, rng, 2.0f);
  double mean = 0.0;
  for (float v : t.Data()) mean += v;
  mean /= t.Numel();
  double var = 0.0;
  for (float v : t.Data()) var += (v - mean) * (v - mean);
  var /= t.Numel();
  EXPECT_NEAR(mean, 0.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(TensorCreate, XavierBound) {
  Rng rng(3);
  Tensor t = Tensor::XavierUniform({8, 8}, rng, 8, 8);
  const float bound = std::sqrt(6.0f / 16.0f);
  for (float v : t.Data()) {
    EXPECT_GE(v, -bound);
    EXPECT_LE(v, bound);
  }
  EXPECT_TRUE(t.RequiresGrad());
}

TEST(TensorBasics, DetachSharesNoState) {
  Tensor a = Tensor::Ones({2}, /*requires_grad=*/true);
  Tensor d = a.Detach();
  EXPECT_FALSE(d.RequiresGrad());
  d.MutableData()[0] = 5.0f;
  EXPECT_EQ(a.At(static_cast<int64_t>(0)), 1.0f);
}

TEST(TensorBasics, CopyAliases) {
  Tensor a = Tensor::Ones({2});
  Tensor b = a;
  b.MutableData()[0] = 9.0f;
  EXPECT_EQ(a.At(static_cast<int64_t>(0)), 9.0f);
}

TEST(ShapeHelpers, NumelAndStrides) {
  EXPECT_EQ(NumelOf({2, 3, 4}), 24);
  EXPECT_EQ(NumelOf({}), 1);
  auto s = StridesOf({2, 3, 4});
  EXPECT_EQ(s, (std::vector<int64_t>{12, 4, 1}));
}

TEST(ShapeHelpers, BroadcastShapes) {
  EXPECT_EQ(BroadcastShapes({2, 3}, {3}), (std::vector<int64_t>{2, 3}));
  EXPECT_EQ(BroadcastShapes({2, 1}, {1, 5}), (std::vector<int64_t>{2, 5}));
  EXPECT_EQ(BroadcastShapes({}, {4}), (std::vector<int64_t>{4}));
}

// -- Elementwise forward values ----------------------------------------------

TEST(OpsForward, AddSameShape) {
  Tensor a = Tensor::FromVector({3}, {1, 2, 3});
  Tensor b = Tensor::FromVector({3}, {10, 20, 30});
  Tensor c = a + b;
  EXPECT_EQ(c.At(static_cast<int64_t>(0)), 11.0f);
  EXPECT_EQ(c.At(2), 33.0f);
}

TEST(OpsForward, AddBroadcastRow) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor row = Tensor::FromVector({3}, {10, 20, 30});
  Tensor c = a + row;
  EXPECT_EQ(c.At({0, 0}), 11.0f);
  EXPECT_EQ(c.At({1, 2}), 36.0f);
}

TEST(OpsForward, MulBroadcastColumn) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor col = Tensor::FromVector({2, 1}, {2, 10});
  Tensor c = a * col;
  EXPECT_EQ(c.At({0, 2}), 6.0f);
  EXPECT_EQ(c.At({1, 0}), 40.0f);
}

TEST(OpsForward, SubDivScalarOps) {
  Tensor a = Tensor::FromVector({2}, {6, 9});
  EXPECT_EQ((a - 1.0f).At(static_cast<int64_t>(0)), 5.0f);
  EXPECT_EQ((a * 2.0f).At(1), 18.0f);
  EXPECT_NEAR((a / 3.0f).At(1), 3.0f, 1e-6f);
  EXPECT_EQ((-a).At(static_cast<int64_t>(0)), -6.0f);
}

TEST(OpsForward, UnaryMath) {
  Tensor a = Tensor::FromVector({2}, {0.0f, 1.0f});
  EXPECT_NEAR(Exp(a).At(1), std::exp(1.0f), 1e-5f);
  EXPECT_NEAR(Sigmoid(a).At(static_cast<int64_t>(0)), 0.5f, 1e-6f);
  EXPECT_NEAR(Tanh(a).At(1), std::tanh(1.0f), 1e-6f);
  Tensor b = Tensor::FromVector({2}, {-2.0f, 2.0f});
  EXPECT_EQ(Relu(b).At(static_cast<int64_t>(0)), 0.0f);
  EXPECT_EQ(Relu(b).At(1), 2.0f);
  EXPECT_NEAR(LeakyRelu(b, 0.1f).At(static_cast<int64_t>(0)), -0.2f, 1e-6f);
  EXPECT_EQ(Abs(b).At(static_cast<int64_t>(0)), 2.0f);
  EXPECT_EQ(Square(b).At(1), 4.0f);
  EXPECT_EQ(ClampMin(b, 0.5f).At(static_cast<int64_t>(0)), 0.5f);
}

// -- Reductions ---------------------------------------------------------------

TEST(OpsReduce, SumAll) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(Sum(a).Item(), 10.0f);
  EXPECT_EQ(Mean(a).Item(), 2.5f);
}

TEST(OpsReduce, SumAlongDims) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor rows = Sum(a, {1});
  EXPECT_EQ(rows.Shape(), (std::vector<int64_t>{2}));
  EXPECT_EQ(rows.At(static_cast<int64_t>(0)), 6.0f);
  EXPECT_EQ(rows.At(1), 15.0f);

  Tensor cols = Sum(a, {0}, /*keepdim=*/true);
  EXPECT_EQ(cols.Shape(), (std::vector<int64_t>{1, 3}));
  EXPECT_EQ(cols.At({0, 2}), 9.0f);

  Tensor all = Sum(a, {0, 1});
  EXPECT_EQ(all.Dim(), 0);
  EXPECT_EQ(all.Item(), 21.0f);
}

TEST(OpsReduce, MeanAlongNegativeDim) {
  Tensor a = Tensor::FromVector({2, 2}, {2, 4, 6, 8});
  Tensor m = Mean(a, {-1});
  EXPECT_EQ(m.At(static_cast<int64_t>(0)), 3.0f);
  EXPECT_EQ(m.At(1), 7.0f);
}

TEST(OpsReduce, MeanRejectsOutOfRangeDims) {
  Tensor a = Tensor::FromVector({2, 2}, {2, 4, 6, 8});
  EXPECT_DEATH(Mean(a, {2}), "Mean dim out of range");
  EXPECT_DEATH(Mean(a, {-3}), "Mean dim out of range");
}

TEST(OpsReduce, MaxValues) {
  Tensor a = Tensor::FromVector({2, 3}, {5, 1, 2, 0, 9, 3});
  Tensor m = MaxValues(a, 1, /*keepdim=*/false);
  EXPECT_EQ(m.At(static_cast<int64_t>(0)), 5.0f);
  EXPECT_EQ(m.At(1), 9.0f);
  Tensor mk = MaxValues(a, 0, /*keepdim=*/true);
  EXPECT_EQ(mk.Shape(), (std::vector<int64_t>{1, 3}));
  EXPECT_EQ(mk.At({0, 1}), 9.0f);
}

// -- Shape ops -----------------------------------------------------------------

TEST(OpsShape, ReshapeWithInference) {
  Tensor a = Tensor::FromVector({2, 6}, std::vector<float>(12, 1.0f));
  Tensor r = Reshape(a, {3, -1});
  EXPECT_EQ(r.Shape(), (std::vector<int64_t>{3, 4}));
}

TEST(OpsShape, PermuteValues) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor p = Permute(a, {1, 0});
  EXPECT_EQ(p.Shape(), (std::vector<int64_t>{3, 2}));
  EXPECT_EQ(p.At({0, 1}), 4.0f);
  EXPECT_EQ(p.At({2, 0}), 3.0f);
}

TEST(OpsShape, Permute3d) {
  Tensor a = Tensor::FromVector({2, 2, 2}, {0, 1, 2, 3, 4, 5, 6, 7});
  Tensor p = Permute(a, {2, 0, 1});
  EXPECT_EQ(p.Shape(), (std::vector<int64_t>{2, 2, 2}));
  // p[k][i][j] == a[i][j][k]
  EXPECT_EQ(p.At({1, 0, 1}), a.At({0, 1, 1}));
  EXPECT_EQ(p.At({0, 1, 0}), a.At({1, 0, 0}));
}

TEST(OpsShape, TransposeIsPermute) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor t = Transpose(a, 0, 1);
  EXPECT_EQ(t.At({2, 1}), 6.0f);
}

TEST(OpsShape, SqueezeUnsqueeze) {
  Tensor a = Tensor::Ones({3});
  Tensor u = Unsqueeze(a, 0);
  EXPECT_EQ(u.Shape(), (std::vector<int64_t>{1, 3}));
  Tensor u2 = Unsqueeze(a, -1);
  EXPECT_EQ(u2.Shape(), (std::vector<int64_t>{3, 1}));
  EXPECT_EQ(Squeeze(u, 0).Shape(), (std::vector<int64_t>{3}));
}

TEST(OpsShape, NarrowSlab) {
  Tensor a = Tensor::FromVector({4, 2}, {0, 1, 2, 3, 4, 5, 6, 7});
  Tensor n = Narrow(a, 0, 1, 2);
  EXPECT_EQ(n.Shape(), (std::vector<int64_t>{2, 2}));
  EXPECT_EQ(n.At({0, 0}), 2.0f);
  EXPECT_EQ(n.At({1, 1}), 5.0f);
  Tensor m = Narrow(a, 1, 1, 1);
  EXPECT_EQ(m.At({3, 0}), 7.0f);
}

TEST(OpsShape, CatAlongDims) {
  Tensor a = Tensor::FromVector({1, 2}, {1, 2});
  Tensor b = Tensor::FromVector({2, 2}, {3, 4, 5, 6});
  Tensor c = Cat({a, b}, 0);
  EXPECT_EQ(c.Shape(), (std::vector<int64_t>{3, 2}));
  EXPECT_EQ(c.At({2, 1}), 6.0f);

  Tensor d = Cat({b, b}, 1);
  EXPECT_EQ(d.Shape(), (std::vector<int64_t>{2, 4}));
  EXPECT_EQ(d.At({1, 3}), 6.0f);
}

TEST(OpsShape, StackAddsDim) {
  Tensor a = Tensor::FromVector({2}, {1, 2});
  Tensor b = Tensor::FromVector({2}, {3, 4});
  Tensor s = Stack({a, b}, 0);
  EXPECT_EQ(s.Shape(), (std::vector<int64_t>{2, 2}));
  EXPECT_EQ(s.At({1, 0}), 3.0f);
}

TEST(OpsShape, IndexSelectGathersRows) {
  Tensor a = Tensor::FromVector({3, 2}, {0, 1, 10, 11, 20, 21});
  Tensor g = IndexSelect(a, 0, {2, 0, 2});
  EXPECT_EQ(g.Shape(), (std::vector<int64_t>{3, 2}));
  EXPECT_EQ(g.At({0, 0}), 20.0f);
  EXPECT_EQ(g.At({1, 1}), 1.0f);
  EXPECT_EQ(g.At({2, 0}), 20.0f);
}

TEST(OpsShape, BroadcastToMaterializes) {
  Tensor a = Tensor::FromVector({1, 2}, {3, 4});
  Tensor b = BroadcastTo(a, {3, 2});
  EXPECT_EQ(b.Shape(), (std::vector<int64_t>{3, 2}));
  EXPECT_EQ(b.At({2, 1}), 4.0f);
}

// -- MatMul ---------------------------------------------------------------------

TEST(OpsMatMul, TwoByTwo) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromVector({2, 2}, {5, 6, 7, 8});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.At({0, 0}), 19.0f);
  EXPECT_EQ(c.At({0, 1}), 22.0f);
  EXPECT_EQ(c.At({1, 0}), 43.0f);
  EXPECT_EQ(c.At({1, 1}), 50.0f);
}

TEST(OpsMatMul, RectangularShapes) {
  Tensor a = Tensor::Ones({3, 4});
  Tensor b = Tensor::Ones({4, 5});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.Shape(), (std::vector<int64_t>{3, 5}));
  EXPECT_EQ(c.At({2, 4}), 4.0f);
}

TEST(OpsMatMul, BatchedTimesBatched) {
  Tensor a = Tensor::FromVector({2, 1, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromVector({2, 2, 1}, {1, 1, 10, 10});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.Shape(), (std::vector<int64_t>{2, 1, 1}));
  EXPECT_EQ(c.At(static_cast<int64_t>(0)), 3.0f);
  EXPECT_EQ(c.At(1), 70.0f);
}

TEST(OpsMatMul, BatchedTimesShared) {
  Tensor a = Tensor::FromVector({2, 1, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromVector({2, 2}, {1, 0, 0, 1});  // identity
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.Shape(), (std::vector<int64_t>{2, 1, 2}));
  EXPECT_EQ(c.At(3), 4.0f);
}

// -- Softmax ----------------------------------------------------------------------

TEST(OpsSoftmax, RowsSumToOne) {
  Rng rng(4);
  Tensor a = Tensor::Randn({5, 7}, rng);
  Tensor s = Softmax(a, 1);
  for (int64_t i = 0; i < 5; ++i) {
    float total = 0.0f;
    for (int64_t j = 0; j < 7; ++j) {
      const float v = s.At({i, j});
      EXPECT_GT(v, 0.0f);
      total += v;
    }
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
}

TEST(OpsSoftmax, StableWithLargeInputs) {
  Tensor a = Tensor::FromVector({1, 2}, {1000.0f, 1001.0f});
  Tensor s = Softmax(a, 1);
  EXPECT_NEAR(s.At(static_cast<int64_t>(0)) + s.At(1), 1.0f, 1e-6f);
  EXPECT_GT(s.At(1), s.At(static_cast<int64_t>(0)));
}

// -- Conv ---------------------------------------------------------------------------

TEST(OpsConv, Conv2dIdentityKernel) {
  Tensor input = Tensor::FromVector({1, 1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  // 3x3 kernel with 1 at the center behaves as identity under same-padding.
  std::vector<float> k(9, 0.0f);
  k[4] = 1.0f;
  Tensor weight = Tensor::FromVector({1, 1, 3, 3}, k);
  Tensor out = Conv2d(input, weight, Tensor(), 1, 1);
  EXPECT_EQ(out.Shape(), (std::vector<int64_t>{1, 1, 3, 3}));
  for (int64_t i = 0; i < 9; ++i) EXPECT_EQ(out.At(i), input.At(i));
}

TEST(OpsConv, Conv2dSumKernelCountsNeighbors) {
  Tensor input = Tensor::Ones({1, 1, 3, 3});
  Tensor weight = Tensor::Ones({1, 1, 3, 3});
  Tensor out = Conv2d(input, weight, Tensor(), 1, 1);
  EXPECT_EQ(out.At({0, 0, 1, 1}), 9.0f);  // center sees all 9
  EXPECT_EQ(out.At({0, 0, 0, 0}), 4.0f);  // corner sees 4
  EXPECT_EQ(out.At({0, 0, 0, 1}), 6.0f);  // edge sees 6
}

TEST(OpsConv, Conv2dBiasApplied) {
  Tensor input = Tensor::Zeros({1, 1, 2, 2});
  Tensor weight = Tensor::Ones({1, 1, 1, 1});
  Tensor bias = Tensor::FromVector({1}, {3.5f});
  Tensor out = Conv2d(input, weight, bias, 0, 0);
  EXPECT_EQ(out.At({0, 0, 1, 1}), 3.5f);
}

TEST(OpsConv, Conv2dMultiChannel) {
  // Two input channels summed by a 1x1 kernel of ones.
  Tensor input = Tensor::FromVector({1, 2, 1, 2}, {1, 2, 10, 20});
  Tensor weight = Tensor::Ones({1, 2, 1, 1});
  Tensor out = Conv2d(input, weight, Tensor(), 0, 0);
  EXPECT_EQ(out.Shape(), (std::vector<int64_t>{1, 1, 1, 2}));
  EXPECT_EQ(out.At(static_cast<int64_t>(0)), 11.0f);
  EXPECT_EQ(out.At(1), 22.0f);
}

TEST(OpsConv, Conv2dValidPaddingShrinks) {
  Tensor input = Tensor::Ones({1, 1, 4, 5});
  Tensor weight = Tensor::Ones({1, 1, 3, 3});
  Tensor out = Conv2d(input, weight, Tensor(), 0, 0);
  EXPECT_EQ(out.Shape(), (std::vector<int64_t>{1, 1, 2, 3}));
  EXPECT_EQ(out.At(static_cast<int64_t>(0)), 9.0f);
}

TEST(OpsConv, Conv1dMovingSum) {
  Tensor input = Tensor::FromVector({1, 1, 4}, {1, 2, 3, 4});
  Tensor weight = Tensor::Ones({1, 1, 3});
  Tensor out = Conv1d(input, weight, Tensor(), 1);
  EXPECT_EQ(out.Shape(), (std::vector<int64_t>{1, 1, 4}));
  EXPECT_EQ(out.At(static_cast<int64_t>(0)), 3.0f);   // 0+1+2
  EXPECT_EQ(out.At(1), 6.0f);                         // 1+2+3
  EXPECT_EQ(out.At(3), 7.0f);                         // 3+4+0
}

// -- Losses & misc -------------------------------------------------------------------

// An elementwise op under NoGradGuard allocates its output and nothing
// else: no second copy of the output is kept for a backward that cannot
// run.
TEST(OpsMemory, InferenceUnaryOpAllocatesOneOutputBuffer) {
  const bool previous = obs::SetTraceEnabled(true);
  obs::ResetProfiler();
  Rng rng(21);
  const int64_t n = int64_t{1} << 20;
  Tensor a = Tensor::Randn({n}, rng);
  const int64_t before = obs::PeakTensorBytes();
  {
    NoGradGuard no_grad;
    Tensor s = Sigmoid(a);
    EXPECT_EQ(obs::PeakTensorBytes() - before, n * 4);
    EXPECT_EQ(s.Numel(), n);
  }
  obs::ResetProfiler();
  obs::SetTraceEnabled(previous);
}

TEST(OpsLoss, MseAndSumOfSquares) {
  Tensor pred = Tensor::FromVector({2}, {1, 3});
  Tensor target = Tensor::FromVector({2}, {0, 1});
  EXPECT_NEAR(MseLoss(pred, target).Item(), 2.5f, 1e-6f);
  EXPECT_NEAR(SquaredErrorSum(pred, target).Item(), 5.0f, 1e-6f);
}

TEST(OpsMisc, L2NormalizeRowsUnitNorm) {
  Tensor a = Tensor::FromVector({2, 2}, {3, 4, 0, 5});
  Tensor n = L2NormalizeRows(a);
  EXPECT_NEAR(n.At({0, 0}), 0.6f, 1e-5f);
  EXPECT_NEAR(n.At({0, 1}), 0.8f, 1e-5f);
  EXPECT_NEAR(n.At({1, 1}), 1.0f, 1e-5f);
}

TEST(OpsMisc, DropoutEvalIsIdentity) {
  Rng rng(5);
  Tensor a = Tensor::Ones({10});
  Tensor d = Dropout(a, 0.5f, rng, /*training=*/false);
  for (float v : d.Data()) EXPECT_EQ(v, 1.0f);
}

TEST(OpsMisc, DropoutTrainZeroesAndScales) {
  Rng rng(6);
  Tensor a = Tensor::Ones({1000});
  Tensor d = Dropout(a, 0.5f, rng, /*training=*/true);
  int zeros = 0;
  for (float v : d.Data()) {
    if (v == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(v, 2.0f, 1e-6f);
    }
  }
  EXPECT_GT(zeros, 350);
  EXPECT_LT(zeros, 650);
}

}  // namespace
}  // namespace sthsl
