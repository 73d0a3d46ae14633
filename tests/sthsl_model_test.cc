// Tests for the ST-HSL core model: component shapes, loss wiring, ablation
// switches, gradient flow, and end-to-end learning on tiny synthetic data.

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "core/ablation.h"
#include "core/forecaster.h"
#include "core/sthsl_model.h"
#include "data/generator.h"
#include "tensor/ops.h"

namespace sthsl {
namespace {

SthslConfig TinyConfig() {
  SthslConfig config;
  config.dim = 4;
  config.num_hyperedges = 8;
  config.kernel_size = 3;
  config.global_temporal_layers = 2;
  config.train.window = 7;
  config.train.epochs = 2;
  config.train.max_steps_per_epoch = 4;
  config.train.seed = 11;
  return config;
}

CrimeDataset TinyCity(int64_t days = 60) {
  CrimeGenConfig gen;
  gen.rows = 4;
  gen.cols = 4;
  gen.days = days;
  gen.num_zones = 3;
  gen.category_totals = {400, 900, 420, 520};
  gen.seed = 99;
  return GenerateCrimeData(gen);
}

TEST(SthslNetTest, ForwardShapesAndLosses) {
  Rng rng(1);
  SthslConfig config = TinyConfig();
  SthslNet net(config, 4, 4, 4, 0.2f, 0.5f, rng);
  Tensor window = Tensor::Rand({16, 7, 4}, rng, 0.0f, 3.0f);
  SthslNet::Output out = net.Forward(window, /*training=*/true);
  EXPECT_EQ(out.prediction.Shape(), (std::vector<int64_t>{16, 4}));
  ASSERT_TRUE(out.infomax_loss.Defined());
  ASSERT_TRUE(out.contrastive_loss.Defined());
  EXPECT_EQ(out.infomax_loss.Numel(), 1);
  EXPECT_EQ(out.contrastive_loss.Numel(), 1);
  // Infomax is a sum of two BCE-style terms; must be positive.
  EXPECT_GT(out.infomax_loss.Item(), 0.0f);
  // InfoNCE over R=16 negatives is at most log(16) when uninformative.
  EXPECT_GT(out.contrastive_loss.Item(), 0.0f);
  EXPECT_LT(out.contrastive_loss.Item(), 2.0f * std::log(16.0f));
}

TEST(SthslNetTest, EvalModeSkipsAuxLosses) {
  Rng rng(2);
  SthslNet net(TinyConfig(), 4, 4, 4, 0.2f, 0.5f, rng);
  Tensor window = Tensor::Rand({16, 7, 4}, rng, 0.0f, 3.0f);
  SthslNet::Output out = net.Forward(window, /*training=*/false);
  EXPECT_FALSE(out.infomax_loss.Defined());
  EXPECT_FALSE(out.contrastive_loss.Defined());
}

TEST(SthslNetTest, HyperedgeWeightsExposed) {
  Rng rng(3);
  SthslConfig config = TinyConfig();
  SthslNet net(config, 4, 4, 4, 0.0f, 1.0f, rng);
  Tensor hyper = net.hyperedge_weights();
  ASSERT_TRUE(hyper.Defined());
  EXPECT_EQ(hyper.Shape(), (std::vector<int64_t>{8, 16 * 4}));
}

TEST(SthslNetTest, GradientFlowsToAllParameters) {
  Rng rng(4);
  SthslConfig config = TinyConfig();
  SthslNet net(config, 4, 4, 4, 0.2f, 0.5f, rng);
  config.dropout = 0.0f;
  Tensor window = Tensor::Rand({16, 7, 4}, rng, 0.0f, 3.0f);
  SthslNet::Output out = net.Forward(window, /*training=*/true);
  Tensor target = Tensor::Rand({16, 4}, rng, 0.0f, 2.0f);
  Tensor loss = SquaredErrorSum(out.prediction, target);
  loss = Add(loss, out.infomax_loss);
  loss = Add(loss, out.contrastive_loss);
  loss.Backward();
  for (const auto& [name, p] : net.NamedParameters()) {
    ASSERT_FALSE(p.Grad().empty()) << "no grad for " << name;
    double norm = 0.0;
    for (float g : p.Grad()) norm += static_cast<double>(g) * g;
    EXPECT_GT(norm, 0.0) << "zero grad for " << name;
  }
}

TEST(SthslNetTest, LocalOnlyVariantHasNoHypergraph) {
  Rng rng(5);
  SthslConfig config = AblationVariant("w/o Hyper", TinyConfig());
  SthslNet net(config, 4, 4, 4, 0.2f, 0.5f, rng);
  EXPECT_FALSE(net.hyperedge_weights().Defined());
  Tensor window = Tensor::Rand({16, 7, 4}, rng, 0.0f, 3.0f);
  SthslNet::Output out = net.Forward(window, /*training=*/true);
  EXPECT_EQ(out.prediction.Shape(), (std::vector<int64_t>{16, 4}));
  EXPECT_FALSE(out.infomax_loss.Defined());
  EXPECT_FALSE(out.contrastive_loss.Defined());
}

TEST(SthslNetTest, AllVariantsForwardCleanly) {
  std::vector<std::string> names = SslVariantNames();
  auto local_names = LocalEncoderVariantNames();
  names.insert(names.end(), local_names.begin(), local_names.end());
  for (const auto& name : names) {
    Rng rng(6);
    SthslConfig config = AblationVariant(name, TinyConfig());
    SthslNet net(config, 4, 4, 4, 0.2f, 0.5f, rng);
    Tensor window = Tensor::Rand({16, 7, 4}, rng, 0.0f, 3.0f);
    SthslNet::Output out = net.Forward(window, /*training=*/true);
    EXPECT_EQ(out.prediction.Shape(), (std::vector<int64_t>{16, 4}))
        << "variant " << name;
    for (float v : out.prediction.Data()) {
      EXPECT_TRUE(std::isfinite(v)) << "variant " << name;
    }
  }
}

TEST(SthslNetTest, VariantParameterSetsDiffer) {
  Rng rng(7);
  SthslConfig base = TinyConfig();
  SthslNet full(base, 4, 4, 4, 0.0f, 1.0f, rng);
  SthslNet no_hyper(AblationVariant("w/o Hyper", base), 4, 4, 4, 0.0f, 1.0f,
                    rng);
  SthslNet no_local(AblationVariant("w/o Local", base), 4, 4, 4, 0.0f, 1.0f,
                    rng);
  EXPECT_GT(full.NumParameters(), no_hyper.NumParameters());
  EXPECT_GT(full.NumParameters(), no_local.NumParameters());
}

TEST(AblationTest, UnknownVariantListsAreComplete) {
  EXPECT_EQ(LocalEncoderVariantNames().size(), 5u);
  EXPECT_EQ(SslVariantNames().size(), 7u);
  // All names resolve without aborting.
  for (const auto& n : LocalEncoderVariantNames()) {
    AblationVariant(n, TinyConfig());
  }
  for (const auto& n : SslVariantNames()) {
    AblationVariant(n, TinyConfig());
  }
}

TEST(SthslForecasterTest, FitReducesTrainingLoss) {
  CrimeDataset data = TinyCity(80);
  SthslConfig config = TinyConfig();
  config.train.epochs = 8;
  config.train.max_steps_per_epoch = 8;
  config.train.lr = 5e-3f;
  SthslForecaster model(config);
  model.Fit(data, 60);
  // Prediction on a held-out day must be finite and non-negative.
  Tensor pred = model.PredictDay(data, 70);
  EXPECT_EQ(pred.Shape(), (std::vector<int64_t>{16, 4}));
  for (float v : pred.Data()) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GE(v, 0.0f);
  }
  EXPECT_EQ(static_cast<int64_t>(model.EpochSeconds().size()), 8);
}

TEST(SthslForecasterTest, BeatsZeroPredictorOnSyntheticCity) {
  CrimeDataset data = TinyCity(120);
  SthslConfig config = TinyConfig();
  config.train.epochs = 12;
  config.train.max_steps_per_epoch = 12;
  config.train.lr = 5e-3f;
  SthslForecaster model(config);
  model.Fit(data, 100);
  CrimeMetrics metrics = EvaluateForecaster(model, data, 100, 120);
  EvalResult overall = metrics.Overall();
  ASSERT_GT(overall.evaluated_entries, 0);

  // A zero predictor scores MAE == mean positive count and MAPE == 1.
  CrimeMetrics zero_metrics(data.num_regions(), data.num_categories());
  for (int64_t t = 100; t < 120; ++t) {
    zero_metrics.AddDay(Tensor::Zeros({16, 4}), data.TargetDay(t));
  }
  EXPECT_LT(overall.mae, zero_metrics.Overall().mae);
  EXPECT_LT(overall.mape, 1.0);
}

TEST(SthslForecasterTest, DeterministicWithSameSeed) {
  CrimeDataset data = TinyCity(60);
  SthslConfig config = TinyConfig();
  SthslForecaster a(config);
  SthslForecaster b(config);
  a.Fit(data, 50);
  b.Fit(data, 50);
  Tensor pa = a.PredictDay(data, 55);
  Tensor pb = b.PredictDay(data, 55);
  EXPECT_EQ(pa.Data(), pb.Data());
}

}  // namespace
}  // namespace sthsl
