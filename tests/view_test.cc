// Tests for zero-copy views: Reshape / Unsqueeze / Squeeze share their
// source's value buffer, keep their own gradient and grad_fn, are counted
// once by the tensor-memory accounting, and never leak in-place writes
// between the tensors that alias a buffer (MutableData is copy-on-write).

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nn/layers.h"
#include "nn/serialization.h"
#include "tensor/ops.h"
#include "tensor/optimizer.h"
#include "tensor/tensor.h"
#include "util/obs/obs.h"
#include "util/rng.h"

namespace sthsl {
namespace {

// Enables tracing with fresh profiles for the scope of a test.
class TraceSandbox {
 public:
  TraceSandbox() : previous_(obs::SetTraceEnabled(true)) {
    obs::ResetProfiler();
  }
  ~TraceSandbox() {
    obs::ResetProfiler();
    obs::SetTraceEnabled(previous_);
  }

  TraceSandbox(const TraceSandbox&) = delete;
  TraceSandbox& operator=(const TraceSandbox&) = delete;

 private:
  bool previous_;
};

const obs::OpProfile* FindOp(const std::vector<obs::OpProfile>& ops,
                             const std::string& name) {
  for (const auto& op : ops) {
    if (op.name == name) return &op;
  }
  return nullptr;
}

TEST(Views, ShareTheSourceBuffer) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  const float* buffer = a.Data().data();
  Tensor r = Reshape(a, {3, 2});
  Tensor u = Unsqueeze(a, 1);
  Tensor s = Squeeze(u, 1);
  Tensor flat = Reshape(r, {-1});
  for (const Tensor* v : {&r, &u, &s, &flat}) {
    EXPECT_EQ(v->Data().data(), buffer);
  }
  EXPECT_EQ(r.Shape(), (std::vector<int64_t>{3, 2}));
  EXPECT_EQ(u.Shape(), (std::vector<int64_t>{2, 1, 3}));
  EXPECT_EQ(s.Shape(), (std::vector<int64_t>{2, 3}));
  EXPECT_EQ(flat.At(4), 5.0f);
}

TEST(Views, GradientsThroughChainedViewsMatchCopies) {
  Rng rng(3);
  const std::vector<float> xv = Tensor::Randn({4, 6}, rng).Data();
  const std::vector<float> wv = Tensor::Randn({2, 1, 12}, rng).Data();

  // Views: x -> (2, 12) -> (2, 1, 12) -> (24) -> (2, 1, 12).
  Tensor x = Tensor::FromVector({4, 6}, xv, /*requires_grad=*/true);
  Tensor v = Unsqueeze(Reshape(x, {2, 12}), 1);
  Tensor w = Reshape(Reshape(v, {24}), {2, 1, 12});
  Tensor loss = Sum(Mul(Square(w), Tensor::FromVector({2, 1, 12}, wv)));
  loss.Backward();

  // The same computation on the unreshaped leaf: the gradients a copying
  // Reshape produced.
  Tensor xc = Tensor::FromVector({4, 6}, xv, /*requires_grad=*/true);
  Tensor loss_c = Sum(Mul(Square(xc), Tensor::FromVector({4, 6}, wv)));
  loss_c.Backward();

  EXPECT_EQ(loss.Item(), loss_c.Item());
  ASSERT_EQ(x.Grad().size(), xc.Grad().size());
  for (size_t i = 0; i < xc.Grad().size(); ++i) {
    EXPECT_EQ(x.Grad()[i], xc.Grad()[i]) << "at " << i;
  }
  // Each view owns its gradient state; the leaf's buffer stayed untouched.
  EXPECT_TRUE(w.GradFn() != nullptr);
  EXPECT_EQ(x.Data(), xv);
}

TEST(Views, ReshapeBackwardMovesNoBytes) {
  TraceSandbox trace;
  Tensor x = Tensor::Ones({3, 4}, /*requires_grad=*/true);
  Sum(Reshape(x, {12})).Backward();
  const auto ops = obs::OpProfiles();
  const obs::OpProfile* reshape = FindOp(ops, "reshape");
  ASSERT_NE(reshape, nullptr);
  EXPECT_EQ(reshape->bytes_touched, 0);
  EXPECT_EQ(reshape->backward_calls, 1);
  EXPECT_EQ(reshape->backward_bytes, 0);
}

TEST(Views, PeakTensorBytesCountsASharedBufferOnce) {
  TraceSandbox trace;
  {
    Tensor a = Tensor::Zeros({1000});
    Tensor r = Reshape(a, {10, 100});
    Tensor u = Unsqueeze(r, 0);
    Tensor s = Squeeze(u, 0);
    EXPECT_EQ(obs::LiveTensorBytes(), 4000);
    EXPECT_EQ(obs::PeakTensorBytes(), 4000);
    a = Tensor();  // the views keep the buffer alive
    EXPECT_EQ(obs::LiveTensorBytes(), 4000);
  }
  EXPECT_EQ(obs::LiveTensorBytes(), 0);
  EXPECT_EQ(obs::PeakTensorBytes(), 4000);
}

// -- In-place writes: every MutableData() caller ------------------------------
//
// Optimizer updates, the EMA swap and checkpoint loading write parameters
// in place; hypergraph initialization writes a fresh tensor before any view
// of it exists. A live view of a parameter (e.g. a bias reshaped for
// broadcasting, still held by the autograd graph) must neither see the
// update nor overwrite it.

TEST(ViewsInPlace, MutableDataDetachesASharedBuffer) {
  Tensor p = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Tensor view = Reshape(p, {4});
  p.MutableData()[0] = 10.0f;
  EXPECT_EQ(p.At(0), 10.0f);
  EXPECT_EQ(view.At(0), 1.0f);
  EXPECT_NE(p.Data().data(), view.Data().data());

  view.MutableData()[1] = -5.0f;
  EXPECT_EQ(p.At(1), 2.0f);
  EXPECT_EQ(view.At(1), -5.0f);

  // An unshared buffer is written in place, without a copy.
  const float* before = p.Data().data();
  p.MutableData()[2] = 7.0f;
  EXPECT_EQ(p.Data().data(), before);
}

TEST(ViewsInPlace, OptimizerStepWithLiveViews) {
  for (const bool adam : {false, true}) {
    Tensor p = Tensor::FromVector({3}, {1, 2, 3}, /*requires_grad=*/true);
    Tensor view = Reshape(p, {1, 3});
    Sum(Mul(view, view)).Backward();  // grad 2p, through the view
    const std::vector<float> old_values = view.Data();
    if (adam) {
      Adam(std::vector<Tensor>{p}, 0.1f).Step();
    } else {
      Sgd(std::vector<Tensor>{p}, 0.1f).Step();
    }
    for (int64_t i = 0; i < 3; ++i) {
      EXPECT_LT(p.At(i), old_values[static_cast<size_t>(i)]) << "adam " << adam;
      EXPECT_EQ(view.At(i), old_values[static_cast<size_t>(i)]);
    }
    // A write through the view after the step leaves the parameter alone.
    const float updated = p.At(0);
    view.MutableData()[0] = 100.0f;
    EXPECT_EQ(p.At(0), updated);
  }
}

TEST(ViewsInPlace, EmaSwapWithLiveView) {
  Tensor p = Tensor::FromVector({2}, {1, 2});
  Tensor view = Unsqueeze(p, 0);
  std::vector<float> ema = {5, 6};
  p.MutableData().swap(ema);
  EXPECT_EQ(p.Data(), (std::vector<float>{5, 6}));
  EXPECT_EQ(view.Data(), (std::vector<float>{1, 2}));
  EXPECT_EQ(ema, (std::vector<float>{1, 2}));
}

TEST(ViewsInPlace, CheckpointLoadWithLiveView) {
  Rng rng(9);
  Linear saved(3, 2, rng);
  Linear loaded(3, 2, rng);
  const std::string path = ::testing::TempDir() + "view_test_ckpt.bin";
  ASSERT_TRUE(SaveCheckpoint(saved, path).ok());

  Tensor weight = loaded.MutableParameters()[0];
  Tensor view = Reshape(weight, {-1});
  const std::vector<float> before = view.Data();
  ASSERT_TRUE(LoadCheckpoint(loaded, path).ok());
  std::remove(path.c_str());

  EXPECT_EQ(loaded.Parameters()[0].Data(), saved.Parameters()[0].Data());
  EXPECT_EQ(view.Data(), before);
}

}  // namespace
}  // namespace sthsl
