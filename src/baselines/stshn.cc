#include "baselines/stshn.h"

#include "baselines/graph_utils.h"
#include "util/check.h"

namespace sthsl {

struct StshnForecaster::Net : Module {
  Net(int64_t cats, int64_t hidden, Tensor incidence_matrix, Rng& rng)
      : incidence(std::move(incidence_matrix)),
        embed(cats, hidden, rng),
        temporal(hidden, hidden, 3, rng),
        to_edge1(hidden, hidden, rng),
        to_node1(hidden, hidden, rng),
        to_edge2(hidden, hidden, rng),
        to_node2(hidden, hidden, rng),
        head(hidden, cats, rng) {
    RegisterModule("embed", &embed);
    RegisterModule("temporal", &temporal);
    RegisterModule("to_edge1", &to_edge1);
    RegisterModule("to_node1", &to_node1);
    RegisterModule("to_edge2", &to_edge2);
    RegisterModule("to_node2", &to_node2);
    RegisterModule("head", &head);
  }

  Tensor incidence;  // fixed (E, R), built from training-data similarity
  Linear embed;
  Conv1dLayer temporal;
  Linear to_edge1;
  Linear to_node1;
  Linear to_edge2;
  Linear to_node2;
  Linear head;
};

void StshnForecaster::BuildNet(const CrimeDataset& data, int64_t train_end) {
  Tensor incidence = StaticHypergraph(data, train_end,
                                      config_.num_hyperedges,
                                      config_.graph_knn);
  net_ = std::make_shared<Net>(num_categories_, config_.hidden,
                               std::move(incidence), rng_);
}

Tensor StshnForecaster::ForwardCore(const Tensor& z, int64_t day) const {
  Tensor x = net_->embed.Forward(z);  // (R, W, F)
  // Temporal convolution encoder, then pool the window.
  Tensor seq = Permute(x, {0, 2, 1});
  x = Add(Permute(Tanh(net_->temporal.Forward(seq)), {0, 2, 1}), x);
  Tensor nodes = Mean(x, {1});  // (R, F)

  // Two rounds of hypergraph message passing on the stationary structure:
  // regions -> hyperedges -> regions, with residual connections.
  Tensor incidence_t = Transpose(net_->incidence, 0, 1);
  for (auto [to_edge, to_node] :
       {std::pair{&net_->to_edge1, &net_->to_node1},
        std::pair{&net_->to_edge2, &net_->to_node2}}) {
    Tensor edges = LeakyRelu(
        to_edge->Forward(MatMul(net_->incidence, nodes)), 0.1f);
    Tensor back = LeakyRelu(
        to_node->Forward(MatMul(incidence_t, edges)), 0.1f);
    nodes = Add(nodes, back);
  }
  return net_->head.Forward(nodes);
}

Module* StshnForecaster::RootModule() const { return net_.get(); }

}  // namespace sthsl
