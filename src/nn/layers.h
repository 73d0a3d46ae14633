#ifndef STHSL_NN_LAYERS_H_
#define STHSL_NN_LAYERS_H_

#include <cstdint>

#include "nn/module.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace sthsl {

/// Fully-connected layer: y = x W + b. Accepts (..., in_features) inputs;
/// leading dims are flattened into the batch.
class Linear : public Module {
 public:
  Linear(int64_t in_features, int64_t out_features, Rng& rng,
         bool with_bias = true);

  Tensor Forward(const Tensor& x) const;

  int64_t in_features() const { return in_features_; }
  int64_t out_features() const { return out_features_; }

 private:
  int64_t in_features_;
  int64_t out_features_;
  Tensor weight_;  // (in, out)
  Tensor bias_;    // (out) or undefined
};

/// Stride-1 2-D convolution layer with same/valid padding.
class Conv2dLayer : public Module {
 public:
  /// `pad_h`/`pad_w` = -1 means "same" padding ((k-1)/2, odd kernels only).
  Conv2dLayer(int64_t in_channels, int64_t out_channels, int64_t kh,
              int64_t kw, Rng& rng, int64_t pad_h = -1, int64_t pad_w = -1,
              bool with_bias = true);

  /// input (N, Cin, H, W) -> (N, Cout, H', W').
  Tensor Forward(const Tensor& x) const;

 private:
  Tensor weight_;
  Tensor bias_;
  int64_t pad_h_;
  int64_t pad_w_;
};

/// Stride-1 1-D convolution layer.
class Conv1dLayer : public Module {
 public:
  Conv1dLayer(int64_t in_channels, int64_t out_channels, int64_t kernel,
              Rng& rng, int64_t pad = -1, bool with_bias = true);

  /// input (N, Cin, L) -> (N, Cout, L').
  Tensor Forward(const Tensor& x) const;

 private:
  Tensor weight_;
  Tensor bias_;
  int64_t pad_;
};

/// Dropout layer; the identity unless `training` is true.
class DropoutLayer : public Module {
 public:
  DropoutLayer(float p, Rng& rng) : p_(p), rng_(rng.Fork()) {}

  Tensor Forward(const Tensor& x, bool training) const;

 private:
  float p_;
  mutable Rng rng_;
};

/// Layer normalization over the last dimension with learnable gain/bias.
class LayerNorm : public Module {
 public:
  LayerNorm(int64_t features, float eps = 1e-5f);

  Tensor Forward(const Tensor& x) const;

 private:
  Tensor gain_;
  Tensor bias_;
  float eps_;
};

/// Gated recurrent unit cell.
class GruCell : public Module {
 public:
  GruCell(int64_t input_size, int64_t hidden_size, Rng& rng);

  /// x (B, input), h (B, hidden) -> next hidden (B, hidden).
  Tensor Forward(const Tensor& x, const Tensor& h) const;

  int64_t hidden_size() const { return hidden_size_; }

 private:
  int64_t hidden_size_;
  Linear input_proj_;   // x -> 3*hidden (r, z, n gates)
  Linear hidden_proj_;  // h -> 3*hidden
};

/// Unrolled GRU over a sequence.
class Gru : public Module {
 public:
  Gru(int64_t input_size, int64_t hidden_size, Rng& rng);

  /// x (B, T, input) -> hidden states (B, T, hidden). Initial state zero.
  Tensor Forward(const Tensor& x) const;

  /// Last hidden state only: (B, hidden).
  Tensor ForwardLast(const Tensor& x) const;

 private:
  GruCell cell_;
};

/// Scaled dot-product multi-head self-attention (no masking).
class MultiHeadSelfAttention : public Module {
 public:
  MultiHeadSelfAttention(int64_t dim, int64_t num_heads, Rng& rng);

  /// x (B, T, dim) -> (B, T, dim).
  Tensor Forward(const Tensor& x) const;

 private:
  int64_t dim_;
  int64_t num_heads_;
  Linear query_proj_;
  Linear key_proj_;
  Linear value_proj_;
  Linear out_proj_;
};

}  // namespace sthsl

#endif  // STHSL_NN_LAYERS_H_
