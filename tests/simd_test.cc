// Tests for the runtime-dispatched SIMD microkernel layer (src/simd) and the
// elementwise ops that sit beside it:
//
//  - dispatch: portable always present, unknown names rejected, the selected
//    set matches the detected CPU, the test override works;
//  - parity: every compiled variant reproduces the portable reference
//    BITWISE on every kernel, across non-multiple-of-vector-width tails
//    (1, 3, 7, 17, 63), and axpy_taps its ascending-fma spec across tap
//    counts 1-36 — the executable form of the simd.h contract;
//  - GEMM: the blocked driver matches a plain ascending-fma reference
//    bitwise, including K larger than the cache block;
//  - elementwise chains: forward and grads bitwise stable across thread
//    counts and kernel sets, at sizes on both sides of the parallel grain;
//  - thread invariance: softmax, conv tiles and elementwise chunks are
//    bitwise stable across thread counts.

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

// The issue's mandated tail sweep plus vector-width multiples.
const std::vector<int64_t>& TailSizes() {
  static const std::vector<int64_t> sizes = {1, 3, 7, 8, 16, 17, 63, 64, 200};
  return sizes;
}

std::vector<const simd::MicrokernelSet*> CompiledVariants() {
  std::vector<const simd::MicrokernelSet*> out;
  out.push_back(&simd::PortableKernels());
  if (const auto* ks = simd::KernelsByName("avx2")) out.push_back(ks);
  return out;
}

std::vector<float> RandomValues(int64_t n, uint64_t seed, float lo = -2.0f,
                                float hi = 2.0f) {
  Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.Uniform(lo, hi));
  // Exercise the sign-sensitive select paths.
  if (n > 0) v[0] = 0.0f;
  if (n > 1) v[1] = -0.0f;
  return v;
}

// Bitwise comparison: catches -0.0f vs +0.0f, which operator== cannot.
void ExpectBitwiseEq(const std::vector<float>& a, const std::vector<float>& b,
                     const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (!a.empty()) {
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
        << what;
  }
}

void ExpectBitwiseEq(float a, float b, const std::string& what) {
  EXPECT_EQ(std::bit_cast<uint32_t>(a), std::bit_cast<uint32_t>(b)) << what;
}

class ThreadCountGuard {
 public:
  ThreadCountGuard() : previous_(exec::ThreadCount()) {}
  ~ThreadCountGuard() { exec::SetThreadCount(previous_); }

 private:
  int previous_;
};

// Restores the default kernel set on scope exit.
class SimdOverrideGuard {
 public:
  ~SimdOverrideGuard() { simd::SetKernelsForTesting(nullptr); }
};

// ---------------------------------------------------------------- dispatch --

TEST(SimdDispatch, PortableAlwaysAvailable) {
  const auto* portable = simd::KernelsByName("portable");
  ASSERT_NE(portable, nullptr);
  EXPECT_STREQ(portable->name, "portable");
  EXPECT_EQ(portable, &simd::PortableKernels());
}

TEST(SimdDispatch, UnknownVariantIsNull) {
  EXPECT_EQ(simd::KernelsByName("sse9"), nullptr);
  EXPECT_EQ(simd::KernelsByName(""), nullptr);
}

TEST(SimdDispatch, SelectedSetMatchesCpuFeatures) {
  if (std::getenv("STHSL_SIMD") != nullptr) {
    GTEST_SKIP() << "STHSL_SIMD override active";
  }
  const simd::CpuFeatures feats = simd::DetectCpuFeatures();
  const char* selected = simd::Kernels().name;
  if (feats.avx2 && feats.fma && simd::KernelsByName("avx2") != nullptr) {
    EXPECT_STREQ(selected, "avx2");
  } else {
    EXPECT_STREQ(selected, "portable");
  }
}

TEST(SimdDispatch, FeatureStringNonEmpty) {
  const std::string feats = simd::CpuFeatureString();
  EXPECT_FALSE(feats.empty());
}

TEST(SimdDispatch, TestOverrideSwapsTheActiveSet) {
  SimdOverrideGuard guard;
  simd::SetKernelsForTesting(&simd::PortableKernels());
  EXPECT_STREQ(simd::Kernels().name, "portable");
  simd::SetKernelsForTesting(nullptr);
  EXPECT_NE(simd::Kernels().name, nullptr);
}

// ------------------------------------------------------------ kernel parity --

TEST(SimdParity, ElementwiseBitwiseAcrossVariantsAndTails) {
  const auto& ref = simd::PortableKernels();
  for (const auto* ks : CompiledVariants()) {
    for (int64_t n : TailSizes()) {
      const std::vector<float> x = RandomValues(n, 100 + n);
      const std::vector<float> y = RandomValues(n, 200 + n, 0.5f, 2.0f);
      const std::string tag =
          std::string(ks->name) + " n=" + std::to_string(n);

      std::vector<float> got(x.size());
      std::vector<float> want(x.size());
      ref.mul(n, x.data(), y.data(), want.data());
      ks->mul(n, x.data(), y.data(), got.data());
      ExpectBitwiseEq(got, want, "mul " + tag);
      ref.add_scalar(n, x.data(), 0.37f, want.data());
      ks->add_scalar(n, x.data(), 0.37f, got.data());
      ExpectBitwiseEq(got, want, "add_scalar " + tag);
      ref.div_scalar(n, x.data(), 3.0f, want.data());
      ks->div_scalar(n, x.data(), 3.0f, got.data());
      ExpectBitwiseEq(got, want, "div_scalar " + tag);

      // Aliased in-place form (out == x) must match the out-of-place result.
      std::vector<float> inplace = x;
      ks->mul(n, inplace.data(), y.data(), inplace.data());
      ref.mul(n, x.data(), y.data(), want.data());
      ExpectBitwiseEq(inplace, want, "mul aliased " + tag);
    }
  }
}

TEST(SimdParity, ReductionsBitwiseAcrossVariantsAndTails) {
  const auto& ref = simd::PortableKernels();
  for (const auto* ks : CompiledVariants()) {
    for (int64_t n : TailSizes()) {
      const std::vector<float> x = RandomValues(n, 300 + n);
      const std::vector<float> y = RandomValues(n, 400 + n);
      const std::string tag =
          std::string(ks->name) + " n=" + std::to_string(n);
      ExpectBitwiseEq(ks->dot(n, x.data(), y.data()),
                      ref.dot(n, x.data(), y.data()), "dot " + tag);
      ExpectBitwiseEq(ks->reduce_sum(n, x.data()),
                      ref.reduce_sum(n, x.data()), "reduce_sum " + tag);
      ExpectBitwiseEq(ks->reduce_max(n, x.data()),
                      ref.reduce_max(n, x.data()), "reduce_max " + tag);
    }
  }
}

// axpy_taps against its spec — y[i] = fma(w[t], x[t][i], y[i]) for t
// ascending — with taps that overlap (constant shifts of one buffer, the
// way conv uses them) and weights/values that include +0, -0 and negatives.
TEST(SimdParity, AxpyTapsBitwiseAcrossVariantsTailsAndTapCounts) {
  for (const auto* ks : CompiledVariants()) {
    for (int64_t n : {int64_t{1}, int64_t{7}, int64_t{8}, int64_t{31},
                      int64_t{33}, int64_t{257}}) {
      for (int64_t taps = 1; taps <= 36; ++taps) {
        const std::vector<float> src =
            RandomValues(n + taps, 1100 + n * 37 + taps);
        std::vector<float> w = RandomValues(taps, 1200 + taps);
        if (taps > 2) w[2] = -1.5f;
        std::vector<const float*> x(static_cast<size_t>(taps));
        for (int64_t t = 0; t < taps; ++t) {
          x[static_cast<size_t>(t)] = src.data() + (t * 5) % (taps + 1);
        }
        const std::vector<float> y0 = RandomValues(n, 1300 + n);
        std::vector<float> want = y0;
        for (int64_t i = 0; i < n; ++i) {
          for (int64_t t = 0; t < taps; ++t) {
            want[static_cast<size_t>(i)] =
                std::fma(w[static_cast<size_t>(t)],
                         x[static_cast<size_t>(t)][i],
                         want[static_cast<size_t>(i)]);
          }
        }
        std::vector<float> got = y0;
        ks->axpy_taps(n, taps, w.data(), x.data(), got.data());
        ExpectBitwiseEq(got, want,
                        std::string("axpy_taps ") + ks->name + " n=" +
                            std::to_string(n) + " taps=" +
                            std::to_string(taps));
      }
    }
  }
}

TEST(SimdParity, OptimizerStepsBitwiseAcrossVariantsAndTails) {
  const auto& ref = simd::PortableKernels();
  for (const auto* ks : CompiledVariants()) {
    for (int64_t n : TailSizes()) {
      const std::vector<float> g = RandomValues(n, 500 + n);
      const std::vector<float> x0 = RandomValues(n, 600 + n);
      const std::string tag =
          std::string(ks->name) + " n=" + std::to_string(n);

      std::vector<float> xa = x0;
      std::vector<float> xb = x0;
      ks->sgd_step(n, xa.data(), g.data(), 0.01f, 0.001f);
      ref.sgd_step(n, xb.data(), g.data(), 0.01f, 0.001f);
      ExpectBitwiseEq(xa, xb, "sgd_step " + tag);

      xa = x0;
      xb = x0;
      std::vector<float> va = RandomValues(n, 700 + n);
      std::vector<float> vb = va;
      ks->sgd_momentum_step(n, xa.data(), va.data(), g.data(), 0.01f, 0.9f,
                            0.001f);
      ref.sgd_momentum_step(n, xb.data(), vb.data(), g.data(), 0.01f, 0.9f,
                            0.001f);
      ExpectBitwiseEq(xa, xb, "sgd_momentum x " + tag);
      ExpectBitwiseEq(va, vb, "sgd_momentum v " + tag);

      xa = x0;
      xb = x0;
      std::vector<float> ma = RandomValues(n, 800 + n, -0.1f, 0.1f);
      std::vector<float> mb = ma;
      va = RandomValues(n, 900 + n, 0.0f, 0.1f);
      vb = va;
      ks->adam_step(n, xa.data(), ma.data(), va.data(), g.data(), 0.005f,
                    0.9f, 0.999f, 1e-8f, 0.001f, 0.271f, 0.0297f);
      ref.adam_step(n, xb.data(), mb.data(), vb.data(), g.data(), 0.005f,
                    0.9f, 0.999f, 1e-8f, 0.001f, 0.271f, 0.0297f);
      ExpectBitwiseEq(xa, xb, "adam x " + tag);
      ExpectBitwiseEq(ma, mb, "adam m " + tag);
      ExpectBitwiseEq(va, vb, "adam v " + tag);
    }
  }
}

TEST(SimdParity, GemmTileBitwiseAcrossVariantsAndEdges) {
  const auto& ref = simd::PortableKernels();
  for (const auto* ks : CompiledVariants()) {
    for (int64_t mr = 1; mr <= simd::kGemmTileRows; ++mr) {
      for (int64_t nr : {int64_t{1}, int64_t{3}, int64_t{7}, int64_t{15},
                         simd::kGemmTileCols}) {
        for (int64_t kc : {int64_t{1}, int64_t{5}, int64_t{17}}) {
          const std::vector<float> a =
              RandomValues(mr * kc, 1000 + mr * 31 + nr * 7 + kc);
          std::vector<float> b = RandomValues(kc * simd::kGemmTileCols,
                                              2000 + mr + nr * 13 + kc);
          const int64_t ldc = nr + 3;  // exercise a strided C
          const std::vector<float> c0 =
              RandomValues(mr * ldc, 3000 + mr + nr + kc);
          std::vector<float> got = c0;
          std::vector<float> want = c0;
          ks->gemm_tile(a.data(), b.data(), got.data(), ldc, mr, nr, kc);
          ref.gemm_tile(a.data(), b.data(), want.data(), ldc, mr, nr, kc);
          ExpectBitwiseEq(got, want,
                          std::string("gemm_tile ") + ks->name + " mr=" +
                              std::to_string(mr) + " nr=" +
                              std::to_string(nr) + " kc=" +
                              std::to_string(kc));
        }
      }
    }
  }
}

// ------------------------------------------------------------ blocked GEMM --

// The blocked driver must equal the plain ascending-fma reference bitwise:
// per output element, c_ij = fma(a_ip, b_pj, c_ij) for p ascending from 0.
TEST(GemmBitwise, MatMulMatchesAscendingFmaReference) {
  for (const auto& dims : std::vector<std::vector<int64_t>>{
           {5, 17, 7}, {48, 64, 33}, {3, 300, 19}}) {  // k=300 spans K blocks
    const int64_t m = dims[0];
    const int64_t k = dims[1];
    const int64_t n = dims[2];
    Rng rng(static_cast<uint64_t>(m * 10007 + k * 101 + n));
    Tensor a = Tensor::Rand({m, k}, rng, -1.0f, 1.0f);
    Tensor b = Tensor::Rand({k, n}, rng, -1.0f, 1.0f);
    Tensor c = MatMul(a, b);
    const auto& av = a.Data();
    const auto& bv = b.Data();
    const auto& cv = c.Data();
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        float acc = 0.0f;
        for (int64_t p = 0; p < k; ++p) {
          acc = std::fma(av[static_cast<size_t>(i * k + p)],
                         bv[static_cast<size_t>(p * n + j)], acc);
        }
        ASSERT_EQ(std::bit_cast<uint32_t>(cv[static_cast<size_t>(i * n + j)]),
                  std::bit_cast<uint32_t>(acc))
            << "m=" << m << " k=" << k << " n=" << n << " at (" << i << ","
            << j << ")";
      }
    }
  }
}

// Forward + backward of a MatMul-based objective (exercising the NN, NT and
// TN paths) must not change when the dispatched variant is swapped for the
// portable reference.
TEST(GemmBitwise, ForwardAndGradsIdenticalAcrossKernelSets) {
  SimdOverrideGuard guard;
  const auto run = [](const simd::MicrokernelSet* kernels) {
    simd::SetKernelsForTesting(kernels);
    Rng rng(77);
    Tensor a = Tensor::Randn({21, 37}, rng, 1.0f, /*requires_grad=*/true);
    Tensor b = Tensor::Randn({37, 13}, rng, 1.0f, /*requires_grad=*/true);
    Tensor loss = Sum(Square(MatMul(a, b)));
    loss.Backward();
    std::vector<float> out = {loss.Item()};
    out.insert(out.end(), a.Grad().begin(), a.Grad().end());
    out.insert(out.end(), b.Grad().begin(), b.Grad().end());
    return out;
  };
  const auto portable = run(&simd::PortableKernels());
  const auto dispatched = run(nullptr);
  ExpectBitwiseEq(portable, dispatched, "matmul fwd+bwd across kernel sets");
}

// ------------------------------------------------------ elementwise chain --

// A z-score -> bias -> activation -> mask pipeline of same-shape elementwise
// ops, forward and backward, on `numel` elements. Sizes straddle the
// 16384-element parallel grain so chunked and inline runs both appear.
std::vector<float> ChainForwardAndGrads(int threads, int64_t numel) {
  ThreadCountGuard thread_guard;
  exec::SetThreadCount(threads);
  Rng rng(static_cast<uint64_t>(13 + numel));
  Tensor a = Tensor::Randn({numel}, rng, 1.0f, /*requires_grad=*/true);
  Tensor b = Tensor::Randn({numel}, rng, 1.0f, /*requires_grad=*/true);
  Tensor mask = Tensor::Rand({numel}, rng, 0.5f, 1.5f);
  Tensor z = Mul(a, b);
  z = AddScalar(z, 0.25f);
  z = Tanh(z);
  z = Mul(z, mask);
  z = Sigmoid(z);
  z = MulScalar(z, 1.5f);
  z = Sub(z, b);
  z = Square(z);
  z = LeakyRelu(z, 0.01f);
  z = AddScalar(z, 0.125f);
  Tensor loss = Sum(z);
  loss.Backward();
  std::vector<float> out = {loss.Item()};
  out.insert(out.end(), a.Grad().begin(), a.Grad().end());
  out.insert(out.end(), b.Grad().begin(), b.Grad().end());
  return out;
}

const std::vector<int64_t>& ChainSizes() {
  // 3*7*17 (odd, far below the grain), one either side of it, 2+ chunks.
  static const std::vector<int64_t> sizes = {357, 16383, 16385, 40000};
  return sizes;
}

TEST(ElementwiseChain, BitwiseStableAcrossThreadCounts) {
  for (int64_t n : ChainSizes()) {
    const auto serial = ChainForwardAndGrads(1, n);
    ExpectBitwiseEq(ChainForwardAndGrads(4, n), serial,
                    "4 threads n=" + std::to_string(n));
    ExpectBitwiseEq(ChainForwardAndGrads(8, n), serial,
                    "8 threads n=" + std::to_string(n));
  }
}

TEST(ElementwiseChain, BitwiseEqualAcrossKernelSets) {
  SimdOverrideGuard guard;
  for (int64_t n : ChainSizes()) {
    simd::SetKernelsForTesting(&simd::PortableKernels());
    const auto portable = ChainForwardAndGrads(1, n);
    simd::SetKernelsForTesting(nullptr);
    const auto dispatched = ChainForwardAndGrads(1, n);
    ExpectBitwiseEq(portable, dispatched,
                    "kernel sets n=" + std::to_string(n));
  }
}

// ----------------------------------------------------- vectorized op paths --

std::vector<float> SoftmaxForwardAndGrad(int threads, int64_t rows,
                                         int64_t cols) {
  ThreadCountGuard guard;
  exec::SetThreadCount(threads);
  Rng rng(static_cast<uint64_t>(50 + rows + cols));
  Tensor a = Tensor::Randn({rows, cols}, rng, 1.0f, /*requires_grad=*/true);
  Tensor weights = Tensor::Rand({rows, cols}, rng, 0.1f, 1.0f);
  Tensor loss = Sum(Mul(Softmax(a, -1), weights));
  loss.Backward();
  std::vector<float> out = {loss.Item()};
  out.insert(out.end(), a.Grad().begin(), a.Grad().end());
  return out;
}

TEST(SimdOps, SoftmaxBitwiseAcrossKernelSetsThreadsAndTails) {
  SimdOverrideGuard guard;
  for (int64_t cols : {int64_t{1}, int64_t{3}, int64_t{7}, int64_t{17},
                       int64_t{63}}) {
    simd::SetKernelsForTesting(&simd::PortableKernels());
    const auto portable = SoftmaxForwardAndGrad(1, 9, cols);
    simd::SetKernelsForTesting(nullptr);
    const auto dispatched = SoftmaxForwardAndGrad(1, 9, cols);
    ExpectBitwiseEq(portable, dispatched,
                    "softmax kernels cols=" + std::to_string(cols));
    EXPECT_EQ(dispatched, SoftmaxForwardAndGrad(8, 9, cols))
        << "softmax threads cols=" << cols;
  }
}

std::vector<float> ConvForwardAndGrad(const simd::MicrokernelSet* kernels) {
  simd::SetKernelsForTesting(kernels);
  Rng rng(60);
  Tensor input =
      Tensor::Randn({2, 3, 9, 7}, rng, 1.0f, /*requires_grad=*/true);
  Tensor weight = Tensor::Randn({4, 3, 3, 3}, rng, 1.0f,
                                /*requires_grad=*/true);
  Tensor bias = Tensor::Randn({4}, rng, 1.0f, /*requires_grad=*/true);
  Tensor loss = Sum(Square(Conv2d(input, weight, bias, 1, 1)));
  loss.Backward();
  std::vector<float> out = {loss.Item()};
  out.insert(out.end(), input.Grad().begin(), input.Grad().end());
  out.insert(out.end(), weight.Grad().begin(), weight.Grad().end());
  out.insert(out.end(), bias.Grad().begin(), bias.Grad().end());
  return out;
}

TEST(SimdOps, ConvBitwiseAcrossKernelSets) {
  SimdOverrideGuard guard;
  const auto portable = ConvForwardAndGrad(&simd::PortableKernels());
  const auto dispatched = ConvForwardAndGrad(nullptr);
  ExpectBitwiseEq(portable, dispatched, "conv2d fwd+bwd across kernel sets");
}

// Conv tiles and elementwise chunks large enough to split across pool
// threads: bitwise equal to the serial run.
std::vector<float> ParallelConvAndChain(int threads) {
  ThreadCountGuard thread_guard;
  exec::SetThreadCount(threads);
  Rng rng(61);
  Tensor input =
      Tensor::Randn({96, 4, 8, 8}, rng, 1.0f, /*requires_grad=*/true);
  Tensor weight = Tensor::Randn({4, 4, 3, 3}, rng, 1.0f,
                                /*requires_grad=*/true);
  Tensor seq = Tensor::Randn({40000}, rng, 1.0f, /*requires_grad=*/true);
  Tensor conv_loss = Sum(Square(Conv2d(input, weight, Tensor(), 1, 1)));
  Tensor chain_loss = Sum(Mul(Tanh(seq), seq));
  Add(conv_loss, chain_loss).Backward();
  std::vector<float> out = {conv_loss.Item(), chain_loss.Item()};
  out.insert(out.end(), input.Grad().begin(), input.Grad().end());
  out.insert(out.end(), weight.Grad().begin(), weight.Grad().end());
  out.insert(out.end(), seq.Grad().begin(), seq.Grad().end());
  return out;
}

TEST(SimdOps, ConvTilesAndElementwiseChunksBitwiseAcrossThreadCounts) {
  SimdOverrideGuard guard;
  const auto serial = ParallelConvAndChain(1);
  ExpectBitwiseEq(ParallelConvAndChain(4), serial, "4 threads vs serial");
  ExpectBitwiseEq(ParallelConvAndChain(2), serial, "2 threads vs serial");
}

}  // namespace
}  // namespace sthsl
