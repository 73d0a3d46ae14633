#include "baselines/st_resnet.h"

#include "util/check.h"

namespace sthsl {

struct StResNetForecaster::Net : Module {
  Net(int64_t cats, int64_t hidden, int64_t closeness, Rng& rng)
      : close_in(closeness * cats, hidden, 3, 3, rng),
        period_in(cats, hidden, 3, 3, rng),
        trend_in(cats, hidden, 3, 3, rng),
        res1(hidden, hidden, 3, 3, rng),
        res2(hidden, hidden, 3, 3, rng),
        out(hidden, cats, 1, 1, rng) {
    facet_weights = RegisterParameter(
        "facet_weights", Tensor::Full({3}, 1.0f, /*requires_grad=*/true));
    RegisterModule("close_in", &close_in);
    RegisterModule("period_in", &period_in);
    RegisterModule("trend_in", &trend_in);
    RegisterModule("res1", &res1);
    RegisterModule("res2", &res2);
    RegisterModule("out", &out);
  }

  Tensor facet_weights;  // learned fusion of closeness/period/trend
  Conv2dLayer close_in;
  Conv2dLayer period_in;
  Conv2dLayer trend_in;
  Conv2dLayer res1;
  Conv2dLayer res2;
  Conv2dLayer out;
};

namespace {
constexpr int64_t kCloseness = 3;  // days of the closeness facet
}  // namespace

void StResNetForecaster::BuildNet(const CrimeDataset& data,
                                  int64_t train_end) {
  STHSL_CHECK_GE(train_config_.window, 14)
      << "ST-ResNet needs a window of at least 14 days for its trend facet";
  net_ = std::make_shared<Net>(num_categories_, config_.hidden, kCloseness,
                               rng_);
}

Tensor StResNetForecaster::ForwardCore(const Tensor& z, int64_t day) const {
  const int64_t w = z.Size(1);

  // Facet images (1, C*k, I, J) cut from the window: the last `kCloseness`
  // days, the day one week back, and the day two weeks back.
  auto facet_image = [&](int64_t start, int64_t days) {
    Tensor slab = Narrow(z, 1, start, days);  // (R, days, C)
    return Reshape(Permute(slab, {1, 2, 0}),
                   {1, days * num_categories_, rows_, cols_});
  };

  Tensor close = facet_image(w - kCloseness, kCloseness);
  Tensor period = facet_image(w - 7, 1);
  Tensor trend = facet_image(w - 14, 1);

  auto branch = [&](Conv2dLayer& input_conv, const Tensor& image) {
    Tensor x = LeakyRelu(input_conv.Forward(image), 0.1f);
    // Two residual units.
    x = Add(net_->res1.Forward(Relu(x)), x);
    x = Add(net_->res2.Forward(Relu(x)), x);
    return x;  // (1, F, I, J)
  };

  Tensor fused = Add(
      Add(Mul(branch(net_->close_in, close),
              Narrow(net_->facet_weights, 0, 0, 1)),
          Mul(branch(net_->period_in, period),
              Narrow(net_->facet_weights, 0, 1, 1))),
      Mul(branch(net_->trend_in, trend),
          Narrow(net_->facet_weights, 0, 2, 1)));

  Tensor out = net_->out.Forward(fused);  // (1, C, I, J)
  return Permute(Reshape(out, {num_categories_, num_regions_}), {1, 0});
}

Module* StResNetForecaster::RootModule() const { return net_.get(); }

}  // namespace sthsl
