// Tests for the shared windowed trainer (NeuralForecaster): batching,
// EMA averaging, validation-based selection, early stopping, determinism.

#include <cmath>

#include <gtest/gtest.h>

#include "core/forecaster.h"
#include "core/neural_forecaster.h"
#include "data/generator.h"
#include "nn/layers.h"
#include "tensor/ops.h"

namespace sthsl {
namespace {

// Minimal neural forecaster: linear map from the window mean to the next
// day, exposing the full trainer machinery with trivial model cost.
class TinyForecaster : public NeuralForecaster {
 public:
  explicit TinyForecaster(TrainConfig config)
      : NeuralForecaster(config) {}

  std::string Name() const override { return "Tiny"; }

 protected:
  void Prepare(const CrimeDataset& data, int64_t train_end) override {
    net_ = std::make_unique<Net>(data.num_categories(), rng_);
  }
  ForwardOutput Forward(const Tensor& window, int64_t day,
                        bool training) const override {
    return {net_->head.Forward(Mean(window, {1})), {}};
  }
  Module* RootModule() const override { return net_.get(); }

 private:
  struct Net : Module {
    Net(int64_t cats, Rng& rng) : head(cats, cats, rng) {
      RegisterModule("head", &head);
    }
    Linear head;
  };
  std::unique_ptr<Net> net_;
};

CrimeDataset SmallCity(uint64_t seed = 5) {
  CrimeGenConfig gen;
  gen.rows = 3;
  gen.cols = 3;
  gen.days = 120;
  gen.num_zones = 2;
  gen.category_totals = {300, 700, 320, 380};
  gen.seed = seed;
  return GenerateCrimeData(gen);
}

TrainConfig FastConfig() {
  TrainConfig config;
  config.window = 7;
  config.epochs = 10;
  config.max_steps_per_epoch = 8;
  config.batch_size = 2;
  config.validation_days = 14;
  config.seed = 3;
  return config;
}

TEST(TrainerTest, FitProducesNonNegativeFinitePredictions) {
  CrimeDataset data = SmallCity();
  TinyForecaster model(FastConfig());
  model.Fit(data, 100);
  Tensor pred = model.PredictDay(data, 110);
  for (float v : pred.Data()) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GE(v, 0.0f);
  }
}

TEST(TrainerTest, EpochTimesRecorded) {
  CrimeDataset data = SmallCity();
  TinyForecaster model(FastConfig());
  model.Fit(data, 100);
  EXPECT_EQ(model.EpochSeconds().size(), 10u);
  for (double s : model.EpochSeconds()) EXPECT_GE(s, 0.0);
}

TEST(TrainerTest, EarlyStoppingCutsEpochs) {
  CrimeDataset data = SmallCity();
  TrainConfig config = FastConfig();
  config.epochs = 50;
  config.early_stop_patience = 2;
  config.validation_every = 1;
  TinyForecaster model(config);
  model.Fit(data, 100);
  // A linear model converges almost immediately; far fewer than 50 epochs.
  EXPECT_LT(model.EpochSeconds().size(), 50u);
}

TEST(TrainerTest, DeterministicAcrossRuns) {
  CrimeDataset data = SmallCity();
  TinyForecaster a(FastConfig());
  TinyForecaster b(FastConfig());
  a.Fit(data, 100);
  b.Fit(data, 100);
  EXPECT_EQ(a.PredictDay(data, 105).Data(), b.PredictDay(data, 105).Data());
}

TEST(TrainerTest, LearnsBetterThanUntrained) {
  CrimeDataset data = SmallCity();
  TrainConfig config = FastConfig();
  config.epochs = 25;
  TinyForecaster trained(config);
  trained.Fit(data, 100);
  CrimeMetrics trained_metrics =
      EvaluateForecaster(trained, data, 100, 120);

  config.epochs = 1;
  config.max_steps_per_epoch = 1;
  config.validation_days = 0;
  TinyForecaster untrained(config);
  untrained.Fit(data, 100);
  CrimeMetrics untrained_metrics =
      EvaluateForecaster(untrained, data, 100, 120);

  EXPECT_LT(trained_metrics.Overall().mae,
            untrained_metrics.Overall().mae);
}

TEST(TrainerTest, EmaDisabledStillTrains) {
  CrimeDataset data = SmallCity();
  TrainConfig config = FastConfig();
  config.ema_decay = 0.0f;
  config.validation_days = 0;
  config.cosine_lr = false;
  TinyForecaster model(config);
  model.Fit(data, 100);
  Tensor pred = model.PredictDay(data, 105);
  for (float v : pred.Data()) EXPECT_TRUE(std::isfinite(v));
}

TEST(TrainerTest, ValidationDaysClampedForShortDatasets) {
  // train_end barely above the window: validation must clamp, not abort.
  CrimeDataset data = SmallCity();
  TrainConfig config = FastConfig();
  config.window = 7;
  config.validation_days = 1000;  // absurd; must be clamped internally
  TinyForecaster model(config);
  model.Fit(data, 20);
  EXPECT_EQ(model.EpochSeconds().size(), 10u);
}

TEST(TrainerTest, RejectsImpossibleWindow) {
  CrimeDataset data = SmallCity();
  TrainConfig config = FastConfig();
  config.window = 30;
  TinyForecaster model(config);
  EXPECT_DEATH(model.Fit(data, 20), "incompatible with window");
}

}  // namespace
}  // namespace sthsl
