#include "baselines/graph_models.h"

#include "baselines/graph_utils.h"
#include "util/check.h"

namespace sthsl {

// ---------------------------------------------------------------------------
// DCRNN
// ---------------------------------------------------------------------------

struct DcrnnForecaster::Net : Module {
  Net(int64_t regions, int64_t cats, int64_t hidden, Tensor adjacency,
      Rng& rng)
      : adj(std::move(adjacency)),
        cell(3 * cats, hidden, rng),
        head(hidden, cats, rng) {
    RegisterModule("cell", &cell);
    RegisterModule("head", &head);
  }

  Tensor adj;  // fixed, row-normalized (R, R)
  GruCell cell;
  Linear head;
};

void DcrnnForecaster::BuildNet(const CrimeDataset& data, int64_t train_end) {
  net_ = std::make_shared<Net>(num_regions_, num_categories_, config_.hidden,
                               GridAdjacency(rows_, cols_), rng_);
}

Tensor DcrnnForecaster::ForwardCore(const Tensor& z, int64_t day) const {
  const int64_t w = z.Size(1);
  Tensor h = Tensor::Zeros({num_regions_, config_.hidden});
  for (int64_t t = 0; t < w; ++t) {
    Tensor xt = Squeeze(Narrow(z, 1, t, 1), 1);  // (R, C)
    // 2-hop diffusion of the step input over the predefined graph.
    Tensor x1 = MatMul(net_->adj, xt);
    Tensor x2 = MatMul(net_->adj, x1);
    Tensor diffused = Cat({xt, x1, x2}, 1);  // (R, 3C)
    // 1-hop diffusion of the hidden state inside the recurrence.
    h = net_->cell.Forward(diffused, MatMul(net_->adj, h));
  }
  return net_->head.Forward(h);
}

// ---------------------------------------------------------------------------
// STGCN
// ---------------------------------------------------------------------------

struct StgcnForecaster::Net : Module {
  Net(int64_t cats, int64_t hidden, Tensor adjacency, Rng& rng)
      : adj(std::move(adjacency)),
        embed(cats, hidden, rng),
        temporal1(hidden, hidden, 3, rng),
        temporal2(hidden, hidden, 3, rng),
        temporal3(hidden, hidden, 3, rng),
        temporal4(hidden, hidden, 3, rng),
        spatial1(hidden, hidden, rng),
        spatial2(hidden, hidden, rng),
        head(hidden, cats, rng) {
    RegisterModule("embed", &embed);
    RegisterModule("temporal1", &temporal1);
    RegisterModule("temporal2", &temporal2);
    RegisterModule("temporal3", &temporal3);
    RegisterModule("temporal4", &temporal4);
    RegisterModule("spatial1", &spatial1);
    RegisterModule("spatial2", &spatial2);
    RegisterModule("head", &head);
  }

  Tensor adj;
  Linear embed;
  Conv1dLayer temporal1;
  Conv1dLayer temporal2;
  Conv1dLayer temporal3;
  Conv1dLayer temporal4;
  Linear spatial1;
  Linear spatial2;
  Linear head;
};

void StgcnForecaster::BuildNet(const CrimeDataset& data, int64_t train_end) {
  net_ = std::make_shared<Net>(num_categories_, config_.hidden,
                               GridAdjacency(rows_, cols_), rng_);
}

Tensor StgcnForecaster::ForwardCore(const Tensor& z, int64_t day) const {
  const int64_t f = config_.hidden;
  Tensor x = net_->embed.Forward(z);  // (R, W, F)

  auto temporal = [&](Conv1dLayer& conv, const Tensor& in) {
    // (R, W, F) -> (R, F, W) -> conv -> back, gated by LeakyReLU.
    Tensor seq = Permute(in, {0, 2, 1});
    Tensor out = LeakyRelu(conv.Forward(seq), 0.1f);
    return Permute(out, {0, 2, 1});
  };

  // Block 1: temporal - spatial - temporal (the STGCN sandwich).
  x = temporal(net_->temporal1, x);
  x = LeakyRelu(net_->spatial1.Forward(GraphMix(net_->adj, x)), 0.1f);
  x = temporal(net_->temporal2, x);
  // Block 2.
  x = temporal(net_->temporal3, x);
  x = LeakyRelu(net_->spatial2.Forward(GraphMix(net_->adj, x)), 0.1f);
  x = temporal(net_->temporal4, x);

  Tensor pooled = Mean(x, {1});  // (R, F)
  STHSL_CHECK_EQ(pooled.Size(1), f);
  return net_->head.Forward(pooled);
}

// ---------------------------------------------------------------------------
// Graph WaveNet
// ---------------------------------------------------------------------------

struct GwnForecaster::Net : Module {
  Net(int64_t regions, int64_t cats, int64_t hidden, int64_t embed_dim,
      Tensor grid_adj, Rng& rng)
      : adj(std::move(grid_adj)),
        embed(cats, hidden, rng),
        temporal1(hidden, hidden, 3, rng),
        temporal2(hidden, hidden, 3, rng),
        gcn1(2 * hidden, hidden, rng),
        gcn2(2 * hidden, hidden, rng),
        skip1(hidden, hidden, rng),
        skip2(hidden, hidden, rng),
        head(hidden, cats, rng) {
    source_embed = RegisterParameter(
        "source_embed",
        Tensor::XavierUniform({regions, embed_dim}, rng, regions, embed_dim));
    target_embed = RegisterParameter(
        "target_embed",
        Tensor::XavierUniform({regions, embed_dim}, rng, regions, embed_dim));
    RegisterModule("embed", &embed);
    RegisterModule("temporal1", &temporal1);
    RegisterModule("temporal2", &temporal2);
    RegisterModule("gcn1", &gcn1);
    RegisterModule("gcn2", &gcn2);
    RegisterModule("skip1", &skip1);
    RegisterModule("skip2", &skip2);
    RegisterModule("head", &head);
  }

  Tensor AdaptiveAdjacency() const {
    return Softmax(Relu(MatMul(source_embed, Transpose(target_embed, 0, 1))),
                   1);
  }

  Tensor adj;  // predefined support
  Tensor source_embed;
  Tensor target_embed;
  Linear embed;
  Conv1dLayer temporal1;
  Conv1dLayer temporal2;
  Linear gcn1;
  Linear gcn2;
  Linear skip1;
  Linear skip2;
  Linear head;
};

void GwnForecaster::BuildNet(const CrimeDataset& data, int64_t train_end) {
  net_ = std::make_shared<Net>(num_regions_, num_categories_, config_.hidden,
                               config_.node_embed,
                               GridAdjacency(rows_, cols_), rng_);
}

Tensor GwnForecaster::ForwardCore(const Tensor& z, int64_t day) const {
  Tensor adaptive = net_->AdaptiveAdjacency();
  Tensor x = net_->embed.Forward(z);  // (R, W, F)
  Tensor skip = Tensor();

  auto layer = [&](Conv1dLayer& temporal, Linear& gcn, Linear& skip_proj,
                   const Tensor& in) {
    Tensor seq = Permute(in, {0, 2, 1});
    Tensor t_out = Permute(Tanh(temporal.Forward(seq)), {0, 2, 1});
    // Dual-support graph convolution: predefined + adaptive adjacency.
    Tensor mixed =
        Cat({GraphMix(net_->adj, t_out), GraphMix(adaptive, t_out)}, -1);
    Tensor g_out = LeakyRelu(gcn.Forward(mixed), 0.1f);
    Tensor s = skip_proj.Forward(Mean(g_out, {1}));  // (R, F)
    skip = skip.Defined() ? Add(skip, s) : s;
    return Add(g_out, in);  // residual
  };

  x = layer(net_->temporal1, net_->gcn1, net_->skip1, x);
  x = layer(net_->temporal2, net_->gcn2, net_->skip2, x);
  return net_->head.Forward(Relu(skip));
}

// ---------------------------------------------------------------------------
// AGCRN
// ---------------------------------------------------------------------------

struct AgcrnForecaster::Net : Module {
  Net(int64_t regions, int64_t cats, int64_t hidden, int64_t embed_dim,
      Rng& rng)
      : cell(2 * cats, hidden, rng), head(hidden, cats, rng) {
    node_embed = RegisterParameter(
        "node_embed",
        Tensor::XavierUniform({regions, embed_dim}, rng, regions, embed_dim));
    RegisterModule("cell", &cell);
    RegisterModule("head", &head);
  }

  Tensor AdaptiveAdjacency() const {
    return Softmax(Relu(MatMul(node_embed, Transpose(node_embed, 0, 1))), 1);
  }

  Tensor node_embed;
  GruCell cell;
  Linear head;
};

void AgcrnForecaster::BuildNet(const CrimeDataset& data, int64_t train_end) {
  net_ = std::make_shared<Net>(num_regions_, num_categories_, config_.hidden,
                               config_.node_embed, rng_);
}

Tensor AgcrnForecaster::ForwardCore(const Tensor& z, int64_t day) const {
  const int64_t w = z.Size(1);
  Tensor adaptive = net_->AdaptiveAdjacency();
  Tensor h = Tensor::Zeros({num_regions_, config_.hidden});
  for (int64_t t = 0; t < w; ++t) {
    Tensor xt = Squeeze(Narrow(z, 1, t, 1), 1);
    Tensor mixed = Cat({xt, MatMul(adaptive, xt)}, 1);  // adaptive graph conv
    h = net_->cell.Forward(mixed, h);
  }
  return net_->head.Forward(h);
}

// ---------------------------------------------------------------------------
// MTGNN
// ---------------------------------------------------------------------------

struct MtgnnForecaster::Net : Module {
  Net(int64_t regions, int64_t cats, int64_t hidden, int64_t embed_dim,
      Rng& rng)
      : embed(cats, hidden, rng),
        inception3(hidden, hidden, 3, rng),
        inception5(hidden, hidden, 5, rng),
        mixhop1(2 * hidden, hidden, rng),
        mixhop2(2 * hidden, hidden, rng),
        head(hidden, cats, rng) {
    embed1 = RegisterParameter(
        "embed1",
        Tensor::XavierUniform({regions, embed_dim}, rng, regions, embed_dim));
    embed2 = RegisterParameter(
        "embed2",
        Tensor::XavierUniform({regions, embed_dim}, rng, regions, embed_dim));
    RegisterModule("embed", &embed);
    RegisterModule("inception3", &inception3);
    RegisterModule("inception5", &inception5);
    RegisterModule("mixhop1", &mixhop1);
    RegisterModule("mixhop2", &mixhop2);
    RegisterModule("head", &head);
  }

  // Uni-directional learned structure: relu(tanh(M1 M2^T - M2 M1^T)).
  Tensor LearnedAdjacency() const {
    Tensor m12 = MatMul(embed1, Transpose(embed2, 0, 1));
    Tensor m21 = MatMul(embed2, Transpose(embed1, 0, 1));
    return Softmax(Relu(Tanh(Sub(m12, m21))), 1);
  }

  Tensor embed1;
  Tensor embed2;
  Linear embed;
  Conv1dLayer inception3;
  Conv1dLayer inception5;
  Linear mixhop1;
  Linear mixhop2;
  Linear head;
};

void MtgnnForecaster::BuildNet(const CrimeDataset& data, int64_t train_end) {
  net_ = std::make_shared<Net>(num_regions_, num_categories_, config_.hidden,
                               config_.node_embed, rng_);
}

Tensor MtgnnForecaster::ForwardCore(const Tensor& z, int64_t day) const {
  Tensor adj = net_->LearnedAdjacency();
  Tensor x = net_->embed.Forward(z);  // (R, W, F)

  // Inception temporal convolution: parallel kernel sizes 3 and 5.
  Tensor seq = Permute(x, {0, 2, 1});
  Tensor t_out = Add(net_->inception3.Forward(seq),
                     net_->inception5.Forward(seq));
  x = Add(Permute(Tanh(t_out), {0, 2, 1}), x);

  // Two mix-hop graph propagation layers: combine 0-hop and 1-hop signals.
  for (Linear* hop : {&net_->mixhop1, &net_->mixhop2}) {
    Tensor mixed = Cat({x, GraphMix(adj, x)}, -1);
    x = Add(LeakyRelu(hop->Forward(mixed), 0.1f), x);
  }
  return net_->head.Forward(Mean(x, {1}));
}

// ---------------------------------------------------------------------------
// DMSTGCN
// ---------------------------------------------------------------------------

struct DmstgcnForecaster::Net : Module {
  Net(int64_t regions, int64_t cats, int64_t hidden, int64_t embed_dim,
      Rng& rng)
      : embed(cats, hidden, rng),
        temporal(hidden, hidden, 3, rng),
        gcn(hidden, hidden, rng),
        head(hidden, cats, rng) {
    source_embed = RegisterParameter(
        "source_embed",
        Tensor::XavierUniform({regions, embed_dim}, rng, regions, embed_dim));
    target_embed = RegisterParameter(
        "target_embed",
        Tensor::XavierUniform({regions, embed_dim}, rng, regions, embed_dim));
    dow_embed = RegisterParameter(
        "dow_embed", Tensor::XavierUniform({7, embed_dim}, rng, 7, embed_dim));
    RegisterModule("embed", &embed);
    RegisterModule("temporal", &temporal);
    RegisterModule("gcn", &gcn);
    RegisterModule("head", &head);
  }

  // Time-aware adjacency: node embeddings modulated by the day-of-week
  // factor before the product (the dynamic facet of DMSTGCN).
  Tensor DynamicAdjacency(int64_t day_of_week) const {
    Tensor dow = Narrow(dow_embed, 0, day_of_week, 1);  // (1, E)
    Tensor modulated = Mul(source_embed, dow);          // broadcast (R, E)
    return Softmax(Relu(MatMul(modulated, Transpose(target_embed, 0, 1))), 1);
  }

  Tensor source_embed;
  Tensor target_embed;
  Tensor dow_embed;
  Linear embed;
  Conv1dLayer temporal;
  Linear gcn;
  Linear head;
};

void DmstgcnForecaster::BuildNet(const CrimeDataset& data,
                                 int64_t train_end) {
  net_ = std::make_shared<Net>(num_regions_, num_categories_, config_.hidden,
                               config_.node_embed, rng_);
}

Tensor DmstgcnForecaster::ForwardCore(const Tensor& z, int64_t day) const {
  const int64_t dow = day >= 0 ? day % 7 : 0;
  Tensor adj = net_->DynamicAdjacency(dow);
  Tensor x = net_->embed.Forward(z);
  Tensor seq = Permute(x, {0, 2, 1});
  x = Add(Permute(Tanh(net_->temporal.Forward(seq)), {0, 2, 1}), x);
  x = Add(LeakyRelu(net_->gcn.Forward(GraphMix(adj, x)), 0.1f), x);
  return net_->head.Forward(Mean(x, {1}));
}

Module* DcrnnForecaster::RootModule() const { return net_.get(); }
Module* StgcnForecaster::RootModule() const { return net_.get(); }
Module* GwnForecaster::RootModule() const { return net_.get(); }
Module* AgcrnForecaster::RootModule() const { return net_.get(); }
Module* MtgnnForecaster::RootModule() const { return net_.get(); }
Module* DmstgcnForecaster::RootModule() const { return net_.get(); }

}  // namespace sthsl
