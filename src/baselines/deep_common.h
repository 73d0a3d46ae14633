#ifndef STHSL_BASELINES_DEEP_COMMON_H_
#define STHSL_BASELINES_DEEP_COMMON_H_

#include <cstdint>
#include <memory>
#include <string>

#include "core/neural_forecaster.h"
#include "data/crime_dataset.h"
#include "tensor/ops.h"
#include "util/obs/obs.h"

namespace sthsl {

/// Architecture knobs shared by the deep baselines. Kept deliberately small
/// so the whole Table III sweep stays affordable on one CPU core.
struct BaselineConfig {
  int64_t hidden = 16;       // latent feature width
  int64_t node_embed = 8;    // node-embedding width of adaptive-graph models
  int64_t graph_knn = 8;     // k of data-driven similarity graphs
  int64_t num_hyperedges = 32;  // ST-SHN hyperedge count
  TrainConfig train;
};

/// Base of every deep baseline: captures Z-score moments and grid geometry
/// at Prepare time, lazily builds the network, and de-normalizes outputs.
/// Subclasses implement BuildNet() and ForwardCore() on normalized input.
class DeepForecasterBase : public NeuralForecaster {
 public:
  DeepForecasterBase(std::string name, BaselineConfig config)
      : NeuralForecaster(config.train),
        name_(std::move(name)),
        config_(config) {}

  std::string Name() const override { return name_; }

 protected:
  void Prepare(const CrimeDataset& data, int64_t train_end) final {
    rows_ = data.rows();
    cols_ = data.cols();
    num_regions_ = data.num_regions();
    num_categories_ = data.num_categories();
    data.SliceDays(0, train_end).ComputeMoments(&mean_, &stddev_);
    BuildNet(data, train_end);
  }

  ForwardOutput Forward(const Tensor& window, int64_t day,
                        bool /*training*/) const final {
    STHSL_TRACE_SCOPE("baseline/forward");
    Tensor z = (window - mean_) * (1.0f / stddev_);
    Tensor out = ForwardCore(z, day);  // (R, C) in normalized space
    return {AddScalar(MulScalar(out, stddev_), mean_), {}};
  }

  /// Builds all modules; called once, after geometry/moments are known.
  virtual void BuildNet(const CrimeDataset& data, int64_t train_end) = 0;

  /// Normalized window (R, W, C) -> normalized prediction (R, C). `day` is
  /// the predicted day's absolute index, or -1 when unknown.
  virtual Tensor ForwardCore(const Tensor& z, int64_t day) const = 0;

  std::string name_;
  BaselineConfig config_;
  int64_t rows_ = 0;
  int64_t cols_ = 0;
  int64_t num_regions_ = 0;
  int64_t num_categories_ = 0;
  float mean_ = 0.0f;
  float stddev_ = 1.0f;
};

/// Mixes region features through an (R, R) operator: x may be (R, F) or
/// (R, W, F); the leading region dimension is multiplied by `adj`.
inline Tensor GraphMix(const Tensor& adj, const Tensor& x) {
  if (x.Dim() == 2) return MatMul(adj, x);
  const int64_t r = x.Size(0);
  const int64_t w = x.Size(1);
  const int64_t f = x.Size(2);
  return Reshape(MatMul(adj, Reshape(x, {r, w * f})), {r, w, f});
}

}  // namespace sthsl

#endif  // STHSL_BASELINES_DEEP_COMMON_H_
