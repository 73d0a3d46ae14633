#ifndef STHSL_BASELINES_ATTENTION_MODELS_H_
#define STHSL_BASELINES_ATTENTION_MODELS_H_

#include <memory>

#include "baselines/deep_common.h"
#include "nn/layers.h"

namespace sthsl {

/// GMAN (Zheng et al., AAAI'20): parallel temporal self-attention (per
/// region, across the window) and spatial self-attention (per time step,
/// across regions) fused by a learned gate.
class GmanForecaster : public DeepForecasterBase {
 public:
  explicit GmanForecaster(BaselineConfig config)
      : DeepForecasterBase("GMAN", config) {}

 protected:
  void BuildNet(const CrimeDataset& data, int64_t train_end) override;
  Tensor ForwardCore(const Tensor& z, int64_t day) const override;
  Module* RootModule() const override;

 private:
  struct Net;
  std::shared_ptr<Net> net_;
};

/// STDN (Yao et al., AAAI'19): per-day local spatial convolution with a flow
/// gating mechanism (day-over-day change gates the features) and
/// periodically shifted attention over the recurrent states.
class StdnForecaster : public DeepForecasterBase {
 public:
  explicit StdnForecaster(BaselineConfig config)
      : DeepForecasterBase("STDN", config) {}

 protected:
  void BuildNet(const CrimeDataset& data, int64_t train_end) override;
  Tensor ForwardCore(const Tensor& z, int64_t day) const override;
  Module* RootModule() const override;

 private:
  struct Net;
  std::shared_ptr<Net> net_;
};

/// ST-MetaNet (Pan et al., KDD'19): region meta-knowledge embeddings
/// generate per-region FiLM modulation of the sequence encoder (the
/// meta-learned weights idea at reduced scale).
class StMetaNetForecaster : public DeepForecasterBase {
 public:
  explicit StMetaNetForecaster(BaselineConfig config)
      : DeepForecasterBase("ST-MetaNet", config) {}

 protected:
  void BuildNet(const CrimeDataset& data, int64_t train_end) override;
  Tensor ForwardCore(const Tensor& z, int64_t day) const override;
  Module* RootModule() const override;

 private:
  struct Net;
  std::shared_ptr<Net> net_;
};

/// DeepCrime (Huang et al., CIKM'18): category-aware recurrent encoder with
/// attention pooling over time — the representative attentive crime
/// predictor.
class DeepCrimeForecaster : public DeepForecasterBase {
 public:
  explicit DeepCrimeForecaster(BaselineConfig config)
      : DeepForecasterBase("DeepCrime", config) {}

 protected:
  void BuildNet(const CrimeDataset& data, int64_t train_end) override;
  Tensor ForwardCore(const Tensor& z, int64_t day) const override;
  Module* RootModule() const override;

 private:
  struct Net;
  std::shared_ptr<Net> net_;
};

/// STtrans (Wu et al., WWW'20): two stacked Transformer stages — temporal
/// self-attention per region followed by spatial self-attention across
/// regions — for sparse spatial event forecasting.
class SttransForecaster : public DeepForecasterBase {
 public:
  explicit SttransForecaster(BaselineConfig config)
      : DeepForecasterBase("STtrans", config) {}

 protected:
  void BuildNet(const CrimeDataset& data, int64_t train_end) override;
  Tensor ForwardCore(const Tensor& z, int64_t day) const override;
  Module* RootModule() const override;

 private:
  struct Net;
  std::shared_ptr<Net> net_;
};

}  // namespace sthsl

#endif  // STHSL_BASELINES_ATTENTION_MODELS_H_
