#ifndef STHSL_BASELINES_STSHN_H_
#define STHSL_BASELINES_STSHN_H_

#include <memory>

#include "baselines/deep_common.h"
#include "nn/layers.h"

namespace sthsl {

/// ST-SHN (Xia et al., IJCAI'21): spatial message passing over a
/// *stationary* region hypergraph (built once from historical similarity,
/// in contrast to ST-HSL's learnable structure) with two hypergraph
/// aggregation layers on top of a temporal convolution encoder.
class StshnForecaster : public DeepForecasterBase {
 public:
  explicit StshnForecaster(BaselineConfig config)
      : DeepForecasterBase("STSHN", config) {}

 protected:
  void BuildNet(const CrimeDataset& data, int64_t train_end) override;
  Tensor ForwardCore(const Tensor& z, int64_t day) const override;
  Module* RootModule() const override;

 private:
  struct Net;
  std::shared_ptr<Net> net_;
};

}  // namespace sthsl

#endif  // STHSL_BASELINES_STSHN_H_
