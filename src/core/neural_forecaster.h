#ifndef STHSL_CORE_NEURAL_FORECASTER_H_
#define STHSL_CORE_NEURAL_FORECASTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/forecaster.h"
#include "nn/module.h"
#include "tensor/optimizer.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace sthsl {

/// Shared training hyperparameters of all gradient-trained forecasters.
struct TrainConfig {
  /// Length of the input history window (days) fed to the model.
  int64_t window = 14;
  /// Number of passes over the (subsampled) window set.
  int64_t epochs = 15;
  /// Optimizer steps per epoch (stochastic subsampling keeps single-core
  /// epochs affordable at full city scale).
  int64_t max_steps_per_epoch = 24;
  /// Windows per optimizer step (gradient accumulation; the paper trains
  /// with batch sizes in {4, ..., 32}).
  int64_t batch_size = 4;
  float lr = 5e-3f;
  /// L2 weight decay (the paper's lambda_3 regularization).
  float weight_decay = 1e-4f;
  /// Days held out from the end of the training span for validation-based
  /// model selection (the paper validates on the last 30 days of the
  /// training set). 0 disables selection and keeps the final parameters.
  int64_t validation_days = 30;
  /// Validate every this many epochs (validation costs forward passes).
  int64_t validation_every = 2;
  /// At most this many validation days are evaluated per check (subsampled
  /// evenly across the validation span).
  int64_t validation_max_days = 10;
  /// Early stopping: give up after this many consecutive validation checks
  /// without improvement (0 disables). With a generous `epochs` cap this
  /// trains every model to convergence — simple models stop early, complex
  /// ones use the budget they need.
  int64_t early_stop_patience = 0;
  /// Exponential moving average of parameters (Polyak averaging) evaluated
  /// instead of the raw iterate; 0 disables. Strongly reduces run-to-run
  /// variance of small-batch training.
  float ema_decay = 0.95f;
  /// Cosine learning-rate decay from `lr` to `lr * lr_floor` over training.
  bool cosine_lr = true;
  float lr_floor = 0.1f;
  uint64_t seed = 7;
  bool verbose = false;
  /// Run-ledger output path (JSONL, appended). When empty, the process
  /// default (STHSL_RUN_LOG / obs::RunLedger::SetDefaultPath) applies; when
  /// both are empty the run is not ledgered. See src/util/obs/run_ledger.h.
  std::string run_log;
};

/// Base class of every neural forecaster: owns the generic windowed
/// training loop (Adam on sliding windows of the training span, squared
/// error by default) so each model only implements its forward pass.
class NeuralForecaster : public Forecaster {
 public:
  explicit NeuralForecaster(TrainConfig config)
      : train_config_(config), rng_(config.seed) {}

  void Fit(const CrimeDataset& data, int64_t train_end) override;
  Tensor PredictDay(const CrimeDataset& data, int64_t t) override;
  bool SupportsWindowPredict() const override { return true; }
  /// Eval-mode forward over each raw (R, W, C) window (no autograd, outputs
  /// clamped at zero like PredictDay). The network must be materialized
  /// (Fit, or a bundle loader's explicit materialization) before calling.
  std::vector<Tensor> PredictWindows(
      const std::vector<Tensor>& windows) const override;
  std::vector<double> EpochSeconds() const override { return epoch_seconds_; }

  const TrainConfig& train_config() const { return train_config_; }

 protected:
  struct ForwardOutput {
    Tensor prediction;  // (R, C) predicted counts
    /// Weighted auxiliary terms that training adds, in order, to the
    /// squared error (Eq. 10); empty unless `training`.
    std::vector<Tensor> aux_losses;
  };

  /// Called once before training with the full dataset (e.g. to capture
  /// Z-score moments and grid geometry). Default: no-op.
  virtual void Prepare(const CrimeDataset& data, int64_t train_end) {}

  /// Model forward pass: raw count window (R, W, C) -> predicted counts
  /// (R, C). `day` is the predicted day's absolute index (DMSTGCN reads the
  /// day of week from it), or -1 for a raw window. `training` enables
  /// dropout and the auxiliary losses. Writes no member state, so eval-mode
  /// calls may run concurrently.
  virtual ForwardOutput Forward(const Tensor& window, int64_t day,
                                bool training) const = 0;

  /// The module whose parameters are optimized (null before it is built).
  virtual Module* RootModule() const = 0;

  TrainConfig train_config_;
  Rng rng_;

 private:
  /// Eval-mode, no-grad forward clamped at zero (counts are non-negative):
  /// the one inference path of validation, PredictDay and PredictWindows.
  Tensor PredictClamped(const Tensor& window, int64_t day) const;

  std::vector<double> epoch_seconds_;
  std::unique_ptr<Adam> optimizer_;
};

}  // namespace sthsl

#endif  // STHSL_CORE_NEURAL_FORECASTER_H_
