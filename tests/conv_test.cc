// Parity tests for the conv kernels (tensor/conv.cc): the tap-strip forward
// and input gradient, and the per-row weight and bias gradients, must
// reproduce, bit for bit, the direct per-row loops they replaced. Those
// loops live on here as the reference: each output element is an ascending
// fma chain over its in-range taps only, in (ci, dy, dx) order for the
// forward and (co, dy, dx) order for the input gradient; the weight
// gradient sums a canonical dot per output row into fixed per-chunk
// partials combined in ascending chunk order.
//
// Coverage: kernels 1, 3 and 5 (square and 1 x k), every padding from 0 to
// k + 1, cin/cout in {1, 3, 4}, a plane larger than one scratch tile, the
// three ST-HSL conv shapes (several tiles per chunk), operands that
// hold +0, -0 and negatives (with the sign of zero outputs checked), 1, 2
// and 4 kernel threads, and the portable and dispatched kernel sets.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/exec.h"
#include "simd/simd.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace sthsl {
namespace {

using Values = std::vector<float>;

struct ConvShape {
  int64_t batch, cin, height, width, cout, kh, kw, pad_h, pad_w;

  int64_t out_h() const { return height + 2 * pad_h - kh + 1; }
  int64_t out_w() const { return width + 2 * pad_w - kw + 1; }
  std::string Name() const {
    return "n" + std::to_string(batch) + " cin" + std::to_string(cin) + " " +
           std::to_string(height) + "x" + std::to_string(width) + " cout" +
           std::to_string(cout) + " k" + std::to_string(kh) + "x" +
           std::to_string(kw) + " pad" + std::to_string(pad_h) + "," +
           std::to_string(pad_w);
  }
};

struct ConvResult {
  Values out, grad_input, grad_weight, grad_bias;
};

// -- Reference: the direct per-row loops the tap strips replaced -------------

void RefAxpy(int64_t n, float a, const float* x, float* y) {
  for (int64_t i = 0; i < n; ++i) y[i] = std::fma(a, x[i], y[i]);
}

ConvResult RefConv(const ConvShape& c, const Values& x, const Values& w,
                   const Values& b, const Values& g) {
  const auto& ks = simd::PortableKernels();
  const int64_t out_h = c.out_h();
  const int64_t out_w = c.out_w();
  const int64_t hw = c.height * c.width;
  const int64_t ohw = out_h * out_w;
  const int64_t kk = c.kh * c.kw;
  ConvResult r;
  r.out.assign(static_cast<size_t>(c.batch * c.cout * ohw), 0.0f);
  r.grad_input.assign(x.size(), 0.0f);
  const auto rows = [&](int64_t dy, int64_t dx, int64_t* oy_lo, int64_t* oy_hi,
                        int64_t* ox_lo, int64_t* ox_hi) {
    *oy_lo = std::max<int64_t>(0, c.pad_h - dy);
    *oy_hi = std::min<int64_t>(out_h, c.height + c.pad_h - dy);
    *ox_lo = std::max<int64_t>(0, c.pad_w - dx);
    *ox_hi = std::min<int64_t>(out_w, c.width + c.pad_w - dx);
  };
  for (int64_t s = 0; s < c.batch; ++s) {
    for (int64_t co = 0; co < c.cout; ++co) {
      float* out_plane = r.out.data() + (s * c.cout + co) * ohw;
      if (!b.empty()) std::fill(out_plane, out_plane + ohw, b[co]);
      const float* g_plane = g.data() + (s * c.cout + co) * ohw;
      for (int64_t ci = 0; ci < c.cin; ++ci) {
        const float* in_plane = x.data() + (s * c.cin + ci) * hw;
        float* dx_plane = r.grad_input.data() + (s * c.cin + ci) * hw;
        const float* w_plane = w.data() + (co * c.cin + ci) * kk;
        for (int64_t dy = 0; dy < c.kh; ++dy) {
          for (int64_t dx = 0; dx < c.kw; ++dx) {
            const float wv = w_plane[dy * c.kw + dx];
            int64_t oy_lo, oy_hi, ox_lo, ox_hi;
            rows(dy, dx, &oy_lo, &oy_hi, &ox_lo, &ox_hi);
            for (int64_t oy = oy_lo; oy < oy_hi; ++oy) {
              const int64_t iy = oy - c.pad_h + dy;
              const int64_t shift = iy * c.width - c.pad_w + dx;
              RefAxpy(ox_hi - ox_lo, wv, in_plane + shift + ox_lo,
                      out_plane + oy * out_w + ox_lo);
              RefAxpy(ox_hi - ox_lo, wv, g_plane + oy * out_w + ox_lo,
                      dx_plane + shift + ox_lo);
            }
          }
        }
      }
    }
  }
  // Weight and bias gradients: fixed batch chunks (the conv grain), each a
  // zeroed partial, combined in ascending chunk order.
  const int64_t sample_flops = c.cout * c.cin * kk * ohw * 2;
  const int64_t grain =
      std::max<int64_t>(1, (int64_t{1} << 17) / std::max<int64_t>(1, sample_flops));
  const int64_t dw_size = c.cout * c.cin * kk;
  r.grad_weight.assign(static_cast<size_t>(dw_size), 0.0f);
  if (!b.empty()) r.grad_bias.assign(static_cast<size_t>(c.cout), 0.0f);
  for (int64_t s0 = 0; s0 < c.batch; s0 += grain) {
    const int64_t s1 = std::min(c.batch, s0 + grain);
    Values dw(static_cast<size_t>(dw_size), 0.0f);
    Values db(static_cast<size_t>(c.cout), 0.0f);
    for (int64_t s = s0; s < s1; ++s) {
      for (int64_t co = 0; co < c.cout; ++co) {
        const float* g_plane = g.data() + (s * c.cout + co) * ohw;
        for (int64_t ci = 0; ci < c.cin; ++ci) {
          const float* in_plane = x.data() + (s * c.cin + ci) * hw;
          for (int64_t dy = 0; dy < c.kh; ++dy) {
            for (int64_t dx = 0; dx < c.kw; ++dx) {
              int64_t oy_lo, oy_hi, ox_lo, ox_hi;
              rows(dy, dx, &oy_lo, &oy_hi, &ox_lo, &ox_hi);
              float acc = 0.0f;
              for (int64_t oy = oy_lo; oy < oy_hi; ++oy) {
                const int64_t iy = oy - c.pad_h + dy;
                acc += ks.dot(ox_hi - ox_lo,
                              in_plane + iy * c.width - c.pad_w + dx + ox_lo,
                              g_plane + oy * out_w + ox_lo);
              }
              dw[static_cast<size_t>((co * c.cin + ci) * kk + dy * c.kw + dx)] +=
                  acc;
            }
          }
        }
        db[static_cast<size_t>(co)] += ks.reduce_sum(ohw, g_plane);
      }
    }
    for (int64_t t = 0; t < dw_size; ++t) {
      r.grad_weight[static_cast<size_t>(t)] += dw[static_cast<size_t>(t)];
    }
    for (size_t t = 0; t < r.grad_bias.size(); ++t) r.grad_bias[t] += db[t];
  }
  return r;
}

// -- The kernels under test ---------------------------------------------------

ConvResult RunConv(const ConvShape& c, const Values& x, const Values& w,
                   const Values& b, const Values& g) {
  Tensor input = Tensor::FromVector({c.batch, c.cin, c.height, c.width}, x);
  Tensor weight = Tensor::FromVector({c.cout, c.cin, c.kh, c.kw}, w);
  Tensor bias;
  input.SetRequiresGrad(true);
  weight.SetRequiresGrad(true);
  if (!b.empty()) {
    bias = Tensor::FromVector({c.cout}, b);
    bias.SetRequiresGrad(true);
  }
  Tensor out = Conv2d(input, weight, bias, c.pad_h, c.pad_w);
  ConvResult r;
  r.out = out.Data();
  std::vector<Tensor> grads =
      out.GradFn()->backward(Tensor::FromVector(out.Shape(), g));
  r.grad_input = grads[0].Data();
  r.grad_weight = grads[1].Data();
  if (!b.empty()) r.grad_bias = grads[2].Data();
  return r;
}

// Values in [-2, 2) with a share of exact +0 and -0.
Values Operand(int64_t n, uint64_t seed) {
  Rng rng(seed);
  Values v(static_cast<size_t>(n));
  for (auto& x : v) {
    const double u = rng.Uniform(0.0, 1.0);
    if (u < 0.1) {
      x = 0.0f;
    } else if (u < 0.2) {
      x = -0.0f;
    } else {
      x = static_cast<float>(rng.Uniform(-2.0, 2.0));
    }
  }
  return v;
}

void ExpectBitwise(const Values& got, const Values& want,
                   const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint32_t>(got[i]), std::bit_cast<uint32_t>(want[i]))
        << what << " at " << i << ": " << got[i] << " vs " << want[i];
  }
}

void ExpectMatchesReference(const ConvShape& c, const Values& x,
                            const Values& w, const Values& b, const Values& g,
                            const std::string& tag) {
  const ConvResult want = RefConv(c, x, w, b, g);
  const ConvResult got = RunConv(c, x, w, b, g);
  const std::string what = c.Name() + " " + tag;
  ExpectBitwise(got.out, want.out, "forward " + what);
  ExpectBitwise(got.grad_input, want.grad_input, "input grad " + what);
  ExpectBitwise(got.grad_weight, want.grad_weight, "weight grad " + what);
  ExpectBitwise(got.grad_bias, want.grad_bias, "bias grad " + what);
}

void CheckShape(const ConvShape& c, uint64_t seed, bool with_bias,
                const std::string& tag) {
  const Values x = Operand(c.batch * c.cin * c.height * c.width, seed);
  const Values w = Operand(c.cout * c.cin * c.kh * c.kw, seed + 1);
  const Values b = with_bias ? Operand(c.cout, seed + 2) : Values();
  const Values g = Operand(c.batch * c.cout * c.out_h() * c.out_w(), seed + 3);
  ExpectMatchesReference(c, x, w, b, g, tag);
}

class ConvGuard {
 public:
  ConvGuard() : threads_(exec::ThreadCount()) {}
  ~ConvGuard() {
    exec::SetThreadCount(threads_);
    simd::SetKernelsForTesting(nullptr);
  }

 private:
  int threads_;
};

// ---------------------------------------------------------------- sweeps ----

TEST(ConvParity, KernelsPadsAndChannelsMatchDirectLoops) {
  ConvGuard guard;
  exec::SetThreadCount(1);
  struct Kernel {
    int64_t kh, kw;
  };
  uint64_t seed = 1;
  for (const Kernel k : {Kernel{1, 1}, Kernel{3, 3}, Kernel{5, 5},
                         Kernel{1, 3}, Kernel{1, 5}}) {
    for (int64_t pad_h = 0; pad_h <= k.kh + 1; ++pad_h) {
      for (int64_t pad_w = 0; pad_w <= k.kw + 1; ++pad_w) {
        if (k.kh == k.kw && pad_h != pad_w) continue;
        for (int64_t cin : {1, 3, 4}) {
          for (int64_t cout : {1, 3, 4}) {
            const int64_t height = k.kh == 1 ? 1 : 5;
            const ConvShape c{3, cin, height, 7, cout, k.kh, k.kw, pad_h,
                              pad_w};
            if (c.out_h() <= 0 || c.out_w() <= 0) continue;
            CheckShape(c, seed, /*with_bias=*/(seed % 2) == 0, "sweep");
            seed += 4;
          }
        }
      }
    }
  }
  // A sample whose padded planes exceed one tile's scratch bound on their
  // own: one-sample tiles.
  CheckShape(ConvShape{3, 3, 40, 30, 4, 3, 3, 1, 1}, seed, true, "big plane");
}

// The ST-HSL shapes: spatial conv (W*d, C, I, J) with a 3x3 kernel, the
// temporal Conv1d (R*d, C, W) and the single-channel global temporal
// Conv1d (R*C*d, 1, W), both viewed as height-1 2-D convs.
std::vector<ConvShape> SthslShapes() {
  return {ConvShape{224, 4, 8, 8, 4, 3, 3, 1, 1},
          ConvShape{1024, 4, 1, 14, 4, 1, 3, 0, 1},
          ConvShape{4096, 1, 1, 14, 1, 1, 3, 0, 1}};
}

TEST(ConvParity, SthslShapesMatchAtEveryThreadCountAndKernelSet) {
  ConvGuard guard;
  uint64_t seed = 500;
  for (const ConvShape& c : SthslShapes()) {
    for (const simd::MicrokernelSet* set :
         {&simd::PortableKernels(), static_cast<const simd::MicrokernelSet*>(
                                        nullptr)}) {
      simd::SetKernelsForTesting(set);
      for (int threads : {1, 2, 4}) {
        exec::SetThreadCount(threads);
        CheckShape(c, seed, /*with_bias=*/true,
                   std::string(simd::Kernels().name) + " threads=" +
                       std::to_string(threads));
      }
    }
    seed += 4;
  }
}

// ------------------------------------------------------- signed zeros ----

// A padded tap adds an exact -0 whatever the sign of its weight, so an
// output whose real taps are all -0 products keeps its -0 bias even at the
// border, where the padding reads in.
TEST(ConvParity, SignedZeroOutputsSurviveThePadding) {
  ConvGuard guard;
  exec::SetThreadCount(1);
  const ConvShape c{2, 3, 5, 6, 2, 3, 3, 2, 2};
  const int64_t nx = c.batch * c.cin * c.height * c.width;
  const int64_t nw = c.cout * c.cin * c.kh * c.kw;
  const int64_t ng = c.batch * c.cout * c.out_h() * c.out_w();
  const Values neg_bias(static_cast<size_t>(c.cout), -0.0f);
  // Positive weights times -0 inputs, negative weights times +0 inputs:
  // every product is -0, so every output (and input gradient) is -0.
  for (float sign : {1.0f, -1.0f}) {
    Values w = Operand(nw, 77);
    for (float& v : w) v = sign * (std::fabs(v) + 0.25f);
    const Values x(static_cast<size_t>(nx), sign > 0 ? -0.0f : 0.0f);
    const Values g(static_cast<size_t>(ng), sign > 0 ? -0.0f : 0.0f);
    const ConvResult got = RunConv(c, x, w, neg_bias, g);
    for (float v : got.out) ASSERT_TRUE(v == 0.0f && std::signbit(v));
    ExpectMatchesReference(c, x, w, neg_bias, g,
                           sign > 0 ? "positive weights" : "negative weights");
  }
  // Mixed signs and zeros everywhere, every kernel set.
  for (const simd::MicrokernelSet* set :
       {&simd::PortableKernels(),
        static_cast<const simd::MicrokernelSet*>(nullptr)}) {
    simd::SetKernelsForTesting(set);
    Values w = Operand(nw, 91);
    w[0] = 0.0f;
    w[1] = -0.0f;
    ExpectMatchesReference(c, Operand(nx, 92), w, Operand(c.cout, 93),
                           Operand(ng, 94), "mixed zeros");
  }
}

}  // namespace
}  // namespace sthsl
