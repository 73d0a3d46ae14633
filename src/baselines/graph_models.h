#ifndef STHSL_BASELINES_GRAPH_MODELS_H_
#define STHSL_BASELINES_GRAPH_MODELS_H_

#include <memory>
#include <vector>

#include "baselines/deep_common.h"
#include "nn/layers.h"

namespace sthsl {

/// DCRNN (Li et al., ICLR'18): diffusion convolution over a predefined grid
/// graph feeding a recurrent (GRU) temporal encoder. This implementation
/// keeps the defining idea — 2-hop diffusion of inputs and 1-hop diffusion
/// of the hidden state on a fixed graph inside the recurrence — with a
/// single-step decoder.
class DcrnnForecaster : public DeepForecasterBase {
 public:
  explicit DcrnnForecaster(BaselineConfig config)
      : DeepForecasterBase("DCRNN", config) {}

 protected:
  void BuildNet(const CrimeDataset& data, int64_t train_end) override;
  Tensor ForwardCore(const Tensor& z, int64_t day) const override;
  Module* RootModule() const override;

 private:
  struct Net;
  std::shared_ptr<Net> net_;
};

/// STGCN (Yu et al., IJCAI'18): sandwich blocks of gated temporal
/// convolution / spectral-style graph convolution / temporal convolution on
/// a predefined grid graph.
class StgcnForecaster : public DeepForecasterBase {
 public:
  explicit StgcnForecaster(BaselineConfig config)
      : DeepForecasterBase("STGCN", config) {}

 protected:
  void BuildNet(const CrimeDataset& data, int64_t train_end) override;
  Tensor ForwardCore(const Tensor& z, int64_t day) const override;
  Module* RootModule() const override;

 private:
  struct Net;
  std::shared_ptr<Net> net_;
};

/// Graph WaveNet (Wu et al., IJCAI'19): self-adaptive adjacency matrix
/// (softmax(relu(E1 E2^T))) combined with a stack of temporal convolutions
/// and skip connections.
class GwnForecaster : public DeepForecasterBase {
 public:
  explicit GwnForecaster(BaselineConfig config)
      : DeepForecasterBase("GWN", config) {}

 protected:
  void BuildNet(const CrimeDataset& data, int64_t train_end) override;
  Tensor ForwardCore(const Tensor& z, int64_t day) const override;
  Module* RootModule() const override;

 private:
  struct Net;
  std::shared_ptr<Net> net_;
};

/// AGCRN (Bai et al., NeurIPS'20): recurrent network whose per-step input is
/// augmented by adaptive graph convolution derived from learned node
/// embeddings (no predefined graph).
class AgcrnForecaster : public DeepForecasterBase {
 public:
  explicit AgcrnForecaster(BaselineConfig config)
      : DeepForecasterBase("AGCRN", config) {}

 protected:
  void BuildNet(const CrimeDataset& data, int64_t train_end) override;
  Tensor ForwardCore(const Tensor& z, int64_t day) const override;
  Module* RootModule() const override;

 private:
  struct Net;
  std::shared_ptr<Net> net_;
};

/// MTGNN (Wu et al., KDD'20): uni-directional learned graph structure
/// (difference of two node-embedding products) with inception-style temporal
/// convolutions and mix-hop graph propagation.
class MtgnnForecaster : public DeepForecasterBase {
 public:
  explicit MtgnnForecaster(BaselineConfig config)
      : DeepForecasterBase("MTGNN", config) {}

 protected:
  void BuildNet(const CrimeDataset& data, int64_t train_end) override;
  Tensor ForwardCore(const Tensor& z, int64_t day) const override;
  Module* RootModule() const override;

 private:
  struct Net;
  std::shared_ptr<Net> net_;
};

/// DMSTGCN (Han et al., KDD'21): dynamic, time-aware adjacency built from
/// node embeddings modulated by a day-of-week embedding, followed by graph
/// and temporal convolutions.
class DmstgcnForecaster : public DeepForecasterBase {
 public:
  explicit DmstgcnForecaster(BaselineConfig config)
      : DeepForecasterBase("DMSTGCN", config) {}

 protected:
  void BuildNet(const CrimeDataset& data, int64_t train_end) override;
  Tensor ForwardCore(const Tensor& z, int64_t day) const override;
  Module* RootModule() const override;

 private:
  struct Net;
  std::shared_ptr<Net> net_;
};

}  // namespace sthsl

#endif  // STHSL_BASELINES_GRAPH_MODELS_H_
