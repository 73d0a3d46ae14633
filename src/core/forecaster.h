#ifndef STHSL_CORE_FORECASTER_H_
#define STHSL_CORE_FORECASTER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/crime_dataset.h"
#include "metrics/metrics.h"
#include "tensor/tensor.h"

namespace sthsl {

/// Common interface of every crime-forecasting model in the repository —
/// ST-HSL, its ablation variants and all baselines. A forecaster is fitted
/// on the chronological prefix of a dataset and then asked to predict single
/// future days; the benchmark harness drives all models through this
/// interface so every comparison shares data, split and metric code.
class Forecaster {
 public:
  virtual ~Forecaster() = default;

  virtual std::string Name() const = 0;

  /// Trains on days [0, train_end) of `data`.
  virtual void Fit(const CrimeDataset& data, int64_t train_end) = 0;

  /// Predicts the (R, C) crime counts of day `t`, given access to the true
  /// history of days [0, t).
  virtual Tensor PredictDay(const CrimeDataset& data, int64_t t) = 0;

  /// True when the model can answer PredictWindows, i.e. predict from a raw
  /// input window without dataset access. Neural forecasters can; classical
  /// baselines that consume the full history cannot.
  virtual bool SupportsWindowPredict() const { return false; }

  /// Raw-window inference entry point, used by the serving layer: each
  /// element of `windows` is one (R, W, C) input window and the result holds
  /// the matching (R, C) non-negative predictions, in order. The windows run
  /// one after another, each through its own forward pass, so a prediction
  /// does not depend on the other windows of the call. The call writes no
  /// model state: one loaded model may be called from several threads at
  /// once (ServeLoopbackTest.ConcurrentRequestsAllAnswered checks that
  /// concurrent answers equal serial ones bitwise). The base implementation
  /// aborts; models advertising SupportsWindowPredict() override it.
  virtual std::vector<Tensor> PredictWindows(
      const std::vector<Tensor>& windows) const;

  /// Wall-clock seconds of each completed training epoch (empty for
  /// non-iterative models). Used by the Table V efficiency study.
  virtual std::vector<double> EpochSeconds() const { return {}; }
};

/// Runs `model` over the test days [test_start, test_end) and accumulates
/// masked MAE/MAPE into a fresh metrics object.
CrimeMetrics EvaluateForecaster(Forecaster& model, const CrimeDataset& data,
                                int64_t test_start, int64_t test_end);

}  // namespace sthsl

#endif  // STHSL_CORE_FORECASTER_H_
