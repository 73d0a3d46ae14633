#ifndef STHSL_BASELINES_ST_RESNET_H_
#define STHSL_BASELINES_ST_RESNET_H_

#include <memory>

#include "baselines/deep_common.h"
#include "nn/layers.h"

namespace sthsl {

/// ST-ResNet (Zhang et al., AAAI'17): grid-image convolutional network with
/// residual units over three temporal facets — closeness (recent days),
/// period (one week back) and trend (two weeks back) — fused by learned
/// per-facet weights.
class StResNetForecaster : public DeepForecasterBase {
 public:
  explicit StResNetForecaster(BaselineConfig config)
      : DeepForecasterBase("ST-ResNet", config) {}

 protected:
  void BuildNet(const CrimeDataset& data, int64_t train_end) override;
  Tensor ForwardCore(const Tensor& z, int64_t day) const override;
  Module* RootModule() const override;

 private:
  struct Net;
  std::shared_ptr<Net> net_;
};

}  // namespace sthsl

#endif  // STHSL_BASELINES_ST_RESNET_H_
