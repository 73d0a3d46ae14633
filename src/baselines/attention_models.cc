#include "baselines/attention_models.h"

#include "util/check.h"

namespace sthsl {

// ---------------------------------------------------------------------------
// GMAN
// ---------------------------------------------------------------------------

struct GmanForecaster::Net : Module {
  Net(int64_t cats, int64_t hidden, Rng& rng)
      : embed(cats, hidden, rng),
        temporal_attn(hidden, 2, rng),
        spatial_attn(hidden, 2, rng),
        gate_temporal(hidden, hidden, rng),
        gate_spatial(hidden, hidden, rng),
        head(hidden, cats, rng) {
    RegisterModule("embed", &embed);
    RegisterModule("temporal_attn", &temporal_attn);
    RegisterModule("spatial_attn", &spatial_attn);
    RegisterModule("gate_temporal", &gate_temporal);
    RegisterModule("gate_spatial", &gate_spatial);
    RegisterModule("head", &head);
  }

  Linear embed;
  MultiHeadSelfAttention temporal_attn;
  MultiHeadSelfAttention spatial_attn;
  Linear gate_temporal;
  Linear gate_spatial;
  Linear head;
};

void GmanForecaster::BuildNet(const CrimeDataset& data, int64_t train_end) {
  net_ = std::make_shared<Net>(num_categories_, config_.hidden, rng_);
}

Tensor GmanForecaster::ForwardCore(const Tensor& z, int64_t day) const {
  Tensor x = net_->embed.Forward(z);  // (R, W, F)
  // Temporal attention: regions are the batch, the window is the sequence.
  Tensor ht = net_->temporal_attn.Forward(x);
  // Spatial attention: time steps are the batch, regions are the sequence.
  Tensor hs = Permute(net_->spatial_attn.Forward(Permute(x, {1, 0, 2})),
                      {1, 0, 2});
  // Gated fusion (GMAN's ST-block output).
  Tensor gate = Sigmoid(Add(net_->gate_temporal.Forward(ht),
                            net_->gate_spatial.Forward(hs)));
  Tensor fused = Add(Mul(gate, ht), Mul(1.0f - gate, hs));
  return net_->head.Forward(Mean(fused, {1}));
}

// ---------------------------------------------------------------------------
// STDN
// ---------------------------------------------------------------------------

struct StdnForecaster::Net : Module {
  Net(int64_t cats, int64_t hidden, Rng& rng)
      : local_conv(cats, hidden, 3, 3, rng),
        flow_gate(2 * cats, hidden, rng),
        gru(hidden, hidden, rng),
        attn_query(hidden, hidden, rng),
        head(hidden, cats, rng) {
    RegisterModule("local_conv", &local_conv);
    RegisterModule("flow_gate", &flow_gate);
    RegisterModule("gru", &gru);
    RegisterModule("attn_query", &attn_query);
    RegisterModule("head", &head);
  }

  Conv2dLayer local_conv;
  Linear flow_gate;
  Gru gru;
  Linear attn_query;
  Linear head;
};

void StdnForecaster::BuildNet(const CrimeDataset& data, int64_t train_end) {
  net_ = std::make_shared<Net>(num_categories_, config_.hidden, rng_);
}

Tensor StdnForecaster::ForwardCore(const Tensor& z, int64_t day) const {
  const int64_t w = z.Size(1);
  const int64_t f = config_.hidden;
  // Per-day local spatial convolution over the grid.
  // (R, W, C) -> (W, C, I, J) images.
  Tensor images = Reshape(Permute(z, {1, 2, 0}),
                          {w, num_categories_, rows_, cols_});
  Tensor conv_out = LeakyRelu(net_->local_conv.Forward(images), 0.1f);
  // Back to (R, W, F): (W, F, R) -> permute.
  Tensor features =
      Permute(Reshape(conv_out, {w, f, num_regions_}), {2, 0, 1});

  // Flow gating: the day-over-day change modulates each day's features.
  Tensor prev = Cat({Narrow(z, 1, 0, 1), Narrow(z, 1, 0, w - 1)}, 1);
  Tensor gate = Sigmoid(net_->flow_gate.Forward(Cat({z, prev}, -1)));
  features = Mul(features, gate);

  // Recurrent encoding + attention pooling over the window (the
  // periodically-shifted attention, collapsed to a single shifted scale).
  Tensor states = net_->gru.Forward(features);           // (R, W, F)
  Tensor last = Squeeze(Narrow(states, 1, w - 1, 1), 1);  // (R, F)
  Tensor query = Unsqueeze(net_->attn_query.Forward(last), 1);  // (R, 1, F)
  Tensor scores = Softmax(Sum(Mul(states, query), {-1}), 1);    // (R, W)
  Tensor pooled = Sum(Mul(states, Unsqueeze(scores, -1)), {1});
  return net_->head.Forward(pooled);
}

// ---------------------------------------------------------------------------
// ST-MetaNet
// ---------------------------------------------------------------------------

struct StMetaNetForecaster::Net : Module {
  Net(int64_t regions, int64_t cats, int64_t hidden, int64_t meta_dim,
      Rng& rng)
      : embed(cats, hidden, rng),
        film(meta_dim, 2 * hidden, rng),
        gru(hidden, hidden, rng),
        head(hidden, cats, rng) {
    meta_embed = RegisterParameter(
        "meta_embed",
        Tensor::XavierUniform({regions, meta_dim}, rng, regions, meta_dim));
    RegisterModule("embed", &embed);
    RegisterModule("film", &film);
    RegisterModule("gru", &gru);
    RegisterModule("head", &head);
  }

  Tensor meta_embed;
  Linear embed;
  Linear film;  // meta-knowledge -> per-region (scale, shift)
  Gru gru;
  Linear head;
};

void StMetaNetForecaster::BuildNet(const CrimeDataset& data,
                                   int64_t train_end) {
  net_ = std::make_shared<Net>(num_regions_, num_categories_, config_.hidden,
                               config_.node_embed, rng_);
}

Tensor StMetaNetForecaster::ForwardCore(const Tensor& z, int64_t day) const {
  const int64_t f = config_.hidden;
  Tensor x = net_->embed.Forward(z);  // (R, W, F)
  // Meta-generated FiLM parameters: each region gets its own modulation of
  // the shared encoder — the reduced form of meta-learned weights.
  Tensor film = net_->film.Forward(net_->meta_embed);  // (R, 2F)
  Tensor scale = Unsqueeze(Narrow(film, 1, 0, f), 1);  // (R, 1, F)
  Tensor shift = Unsqueeze(Narrow(film, 1, f, f), 1);
  x = Add(Mul(x, AddScalar(scale, 1.0f)), shift);
  return net_->head.Forward(net_->gru.ForwardLast(x));
}

// ---------------------------------------------------------------------------
// DeepCrime
// ---------------------------------------------------------------------------

struct DeepCrimeForecaster::Net : Module {
  Net(int64_t cats, int64_t hidden, Rng& rng)
      : embed(cats, hidden, rng),
        gru(hidden, hidden, rng),
        attn(hidden, hidden, rng),
        head(hidden, cats, rng) {
    attn_context = RegisterParameter(
        "attn_context", Tensor::XavierUniform({hidden, 1}, rng, hidden, 1));
    RegisterModule("embed", &embed);
    RegisterModule("gru", &gru);
    RegisterModule("attn", &attn);
    RegisterModule("head", &head);
  }

  Linear embed;
  Gru gru;
  Linear attn;
  Tensor attn_context;
  Linear head;
};

void DeepCrimeForecaster::BuildNet(const CrimeDataset& data,
                                   int64_t train_end) {
  net_ = std::make_shared<Net>(num_categories_, config_.hidden, rng_);
}

Tensor DeepCrimeForecaster::ForwardCore(const Tensor& z, int64_t day) const {
  const int64_t w = z.Size(1);
  Tensor x = net_->embed.Forward(z);           // category-aware embedding
  Tensor states = net_->gru.Forward(x);        // (R, W, F)
  // Additive attention over time with a learned context vector.
  Tensor keys = Tanh(net_->attn.Forward(states));          // (R, W, F)
  Tensor flat = Reshape(keys, {num_regions_ * w, config_.hidden});
  Tensor scores = Reshape(MatMul(flat, net_->attn_context),
                          {num_regions_, w});
  Tensor weights = Softmax(scores, 1);
  Tensor pooled = Sum(Mul(states, Unsqueeze(weights, -1)), {1});
  return net_->head.Forward(pooled);
}

// ---------------------------------------------------------------------------
// STtrans
// ---------------------------------------------------------------------------

struct SttransForecaster::Net : Module {
  Net(int64_t cats, int64_t hidden, int64_t window, Rng& rng)
      : embed(cats, hidden, rng),
        temporal_attn1(hidden, 2, rng),
        temporal_attn2(hidden, 2, rng),
        spatial_attn(hidden, 2, rng),
        norm1(hidden),
        norm2(hidden),
        norm3(hidden),
        ffn1(hidden, hidden, rng),
        ffn2(hidden, hidden, rng),
        head(hidden, cats, rng) {
    position_embed = RegisterParameter(
        "position_embed",
        Tensor::XavierUniform({window, hidden}, rng, window, hidden));
    RegisterModule("embed", &embed);
    RegisterModule("temporal_attn1", &temporal_attn1);
    RegisterModule("temporal_attn2", &temporal_attn2);
    RegisterModule("spatial_attn", &spatial_attn);
    RegisterModule("norm1", &norm1);
    RegisterModule("norm2", &norm2);
    RegisterModule("norm3", &norm3);
    RegisterModule("ffn1", &ffn1);
    RegisterModule("ffn2", &ffn2);
    RegisterModule("head", &head);
  }

  Tensor position_embed;
  Linear embed;
  MultiHeadSelfAttention temporal_attn1;
  MultiHeadSelfAttention temporal_attn2;
  MultiHeadSelfAttention spatial_attn;
  LayerNorm norm1;
  LayerNorm norm2;
  LayerNorm norm3;
  Linear ffn1;
  Linear ffn2;
  Linear head;
};

void SttransForecaster::BuildNet(const CrimeDataset& data,
                                 int64_t train_end) {
  net_ = std::make_shared<Net>(num_categories_, config_.hidden,
                               train_config_.window, rng_);
}

Tensor SttransForecaster::ForwardCore(const Tensor& z, int64_t day) const {
  const int64_t w = z.Size(1);
  Tensor x = Add(net_->embed.Forward(z), net_->position_embed);  // (R, W, F)
  // Two stacked temporal Transformer layers (attention + FFN + LayerNorm).
  x = net_->norm1.Forward(Add(x, net_->temporal_attn1.Forward(x)));
  Tensor ffn = net_->ffn2.Forward(Relu(net_->ffn1.Forward(x)));
  x = net_->norm2.Forward(Add(x, ffn));
  x = Add(x, net_->temporal_attn2.Forward(x));
  // Spatial Transformer stage at the last time step: regions as sequence.
  Tensor last = Unsqueeze(Squeeze(Narrow(x, 1, w - 1, 1), 1), 0);  // (1,R,F)
  Tensor spatial = Squeeze(
      net_->norm3.Forward(Add(last, net_->spatial_attn.Forward(last))), 0);
  return net_->head.Forward(spatial);
}

Module* GmanForecaster::RootModule() const { return net_.get(); }
Module* StdnForecaster::RootModule() const { return net_.get(); }
Module* StMetaNetForecaster::RootModule() const { return net_.get(); }
Module* DeepCrimeForecaster::RootModule() const { return net_.get(); }
Module* SttransForecaster::RootModule() const { return net_.get(); }

}  // namespace sthsl
