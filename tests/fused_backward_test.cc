// Parity tests for the strip-mined backward of fused elementwise chains
// (tensor/fusion.cc): for every FusedOp, at every position of chains of
// length 1 to 8, the gradients must equal, bit for bit, the per-element
// scalar loop the strips replaced. That loop lives on here as the
// reference: per element, recompute the chain's values with the scalar
// forward formulas, then fold g through the local derivatives in reverse
// step order. Lengths straddle the 256-element strip and the 16384-element
// parallel grain, at 1 and 4 kernel threads, with and without gradients to
// the root and the rhs operands. NaNs (sqrt/pow of a negative value) are
// compared as NaN, not by payload.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/exec.h"
#include "simd/simd.h"
#include "tensor/fusion.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace sthsl {
namespace {

using Values = std::vector<float>;

// -- Reference: the scalar per-element fused backward -------------------------

float RefStep(const FusedStep& s, float x, float y) {
  switch (s.op) {
    case FusedOp::kAdd:
      return x + y;
    case FusedOp::kSub:
      return x - y;
    case FusedOp::kMul:
      return x * y;
    case FusedOp::kDiv:
      return x / y;
    case FusedOp::kAddScalar:
      return x + s.scalar;
    case FusedOp::kMulScalar:
      return x * s.scalar;
    case FusedOp::kNeg:
      return -x;
    case FusedOp::kExp:
      return std::exp(x);
    case FusedOp::kLog:
      return std::log(std::max(x, 1e-12f));
    case FusedOp::kSqrt:
      return std::sqrt(x);
    case FusedOp::kAbs:
      return std::fabs(x);
    case FusedOp::kSquare:
      return x * x;
    case FusedOp::kPowScalar:
      return std::pow(x, s.scalar);
    case FusedOp::kSigmoid:
      return 1.0f / (1.0f + std::exp(-x));
    case FusedOp::kTanh:
      return std::tanh(x);
    case FusedOp::kRelu:
      return x > 0.0f ? x : 0.0f;
    case FusedOp::kLeakyRelu:
      return x > 0.0f ? x : s.scalar * x;
    case FusedOp::kClampMin:
      return x > s.scalar ? x : s.scalar;
  }
  return 0.0f;
}

float RefStepDx(const FusedStep& s, float x, float fx, float y) {
  switch (s.op) {
    case FusedOp::kAdd:
    case FusedOp::kSub:
    case FusedOp::kAddScalar:
      return 1.0f;
    case FusedOp::kMul:
      return y;
    case FusedOp::kDiv:
      return 1.0f / y;
    case FusedOp::kMulScalar:
      return s.scalar;
    case FusedOp::kNeg:
      return -1.0f;
    case FusedOp::kExp:
      return fx;
    case FusedOp::kLog:
      return 1.0f / std::max(x, 1e-12f);
    case FusedOp::kSqrt:
      return 0.5f / std::max(fx, 1e-12f);
    case FusedOp::kAbs:
      return x >= 0.0f ? 1.0f : -1.0f;
    case FusedOp::kSquare:
      return 2.0f * x;
    case FusedOp::kPowScalar:
      return s.scalar * std::pow(x, s.scalar - 1.0f);
    case FusedOp::kSigmoid:
      return fx * (1.0f - fx);
    case FusedOp::kTanh:
      return 1.0f - fx * fx;
    case FusedOp::kRelu:
      return x > 0.0f ? 1.0f : 0.0f;
    case FusedOp::kLeakyRelu:
      return x > 0.0f ? 1.0f : s.scalar;
    case FusedOp::kClampMin:
      return x > s.scalar ? 1.0f : 0.0f;
  }
  return 0.0f;
}

float RefStepDy(const FusedStep& s, float x, float y) {
  switch (s.op) {
    case FusedOp::kAdd:
      return 1.0f;
    case FusedOp::kSub:
      return -1.0f;
    case FusedOp::kMul:
      return x;
    case FusedOp::kDiv:
      return -x / (y * y);
    default:
      return 0.0f;
  }
}

// Gradients in the node's input order: [root, rhs of each binary step...];
// an input that needs no gradient gets an empty vector.
std::vector<Values> RefBackward(const FusedChain& chain, const Values& g,
                                bool need_root,
                                const std::vector<bool>& need_rhs) {
  const auto& steps = chain.steps;
  const int64_t n = chain.root.Numel();
  const Values& root = chain.root.Data();
  std::vector<Values> rhs_g(steps.size());
  for (size_t k = 0; k < steps.size(); ++k) {
    if (need_rhs[k]) rhs_g[k].resize(static_cast<size_t>(n));
  }
  Values root_g(need_root ? static_cast<size_t>(n) : 0);
  for (int64_t i = 0; i < n; ++i) {
    const auto ii = static_cast<size_t>(i);
    float v[kMaxFusedSteps + 1];
    v[0] = root[ii];
    const auto rhs = [&](size_t k) {
      return FusedOpIsBinary(steps[k].op) ? steps[k].rhs.Data()[ii] : 0.0f;
    };
    for (size_t k = 0; k < steps.size(); ++k) {
      v[k + 1] = RefStep(steps[k], v[k], rhs(k));
    }
    float gcur = g[ii];
    for (size_t k = steps.size(); k-- > 0;) {
      if (!rhs_g[k].empty()) {
        rhs_g[k][ii] = gcur * RefStepDy(steps[k], v[k], rhs(k));
      }
      gcur = gcur * RefStepDx(steps[k], v[k], v[k + 1], rhs(k));
    }
    if (need_root) root_g[ii] = gcur;
  }
  std::vector<Values> grads = {root_g};
  for (size_t k = 0; k < steps.size(); ++k) {
    if (FusedOpIsBinary(steps[k].op)) grads.push_back(rhs_g[k]);
  }
  return grads;
}

// -- Chains under test --------------------------------------------------------

constexpr FusedOp kAllOps[] = {
    FusedOp::kAdd,       FusedOp::kSub,      FusedOp::kMul,
    FusedOp::kDiv,       FusedOp::kAddScalar, FusedOp::kMulScalar,
    FusedOp::kNeg,       FusedOp::kExp,      FusedOp::kLog,
    FusedOp::kSqrt,      FusedOp::kAbs,      FusedOp::kSquare,
    FusedOp::kPowScalar, FusedOp::kSigmoid,  FusedOp::kTanh,
    FusedOp::kRelu,      FusedOp::kLeakyRelu, FusedOp::kClampMin};

// Bounded steps that fill the rest of a chain around the op under test.
constexpr FusedOp kFillers[] = {
    FusedOp::kMulScalar, FusedOp::kAdd,  FusedOp::kTanh, FusedOp::kMul,
    FusedOp::kSigmoid,   FusedOp::kSub,  FusedOp::kAbs,  FusedOp::kDiv,
    FusedOp::kLeakyRelu, FusedOp::kAddScalar};

float ScalarFor(FusedOp op) {
  switch (op) {
    case FusedOp::kAddScalar:
      return 0.3f;
    case FusedOp::kMulScalar:
      return -0.6f;
    case FusedOp::kPowScalar:
      return 1.5f;
    case FusedOp::kLeakyRelu:
      return 0.1f;
    case FusedOp::kClampMin:
      return -0.2f;
    default:
      return 0.0f;
  }
}

// Values in [-2, 2) with a share of exact +0 and -0; `away_from_zero`
// moves them to +-[0.5, 2) for use as divisors.
Values Operand(int64_t n, uint64_t seed, bool away_from_zero) {
  Rng rng(seed);
  Values v(static_cast<size_t>(n));
  for (auto& x : v) {
    const double u = rng.Uniform(0.0, 1.0);
    if (away_from_zero) {
      const auto mag = static_cast<float>(rng.Uniform(0.5, 2.0));
      x = u < 0.5 ? -mag : mag;
    } else if (u < 0.05) {
      x = 0.0f;
    } else if (u < 0.1) {
      x = -0.0f;
    } else {
      x = static_cast<float>(rng.Uniform(-2.0, 2.0));
    }
  }
  return v;
}

// Builds `ops` as one pending chain of that length through the public
// fusion entry points. The chain only extends while its prefix carries no
// gradient, so the root and rhs operands are marked as requiring grad just
// before the last step.
Tensor BuildChain(const std::vector<FusedOp>& ops, int64_t n, uint64_t seed,
                  bool need_root, bool need_rhs, std::vector<Tensor>* rhs) {
  Tensor root = Tensor::FromVector({n}, Operand(n, seed, false));
  Tensor z = root;
  for (size_t k = 0; k < ops.size(); ++k) {
    const bool last = k + 1 == ops.size();
    Tensor b;
    if (FusedOpIsBinary(ops[k])) {
      b = Tensor::FromVector({n}, Operand(n, seed + 1 + k,
                                          ops[k] == FusedOp::kDiv));
      rhs->push_back(b);
    }
    if (last) {
      // Some input must carry a gradient for the chain to get a node.
      root.SetRequiresGrad(need_root || (!need_rhs || rhs->empty()));
      for (Tensor& t : *rhs) t.SetRequiresGrad(need_rhs);
    }
    z = FusedOpIsBinary(ops[k]) ? TryFuseBinary(ops[k], z, b)
                                : TryFuseUnary(ops[k], z, ScalarFor(ops[k]));
  }
  return z;
}

bool SameValue(float a, float b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  return std::bit_cast<uint32_t>(a) == std::bit_cast<uint32_t>(b);
}

void CheckChain(const std::vector<FusedOp>& ops, int64_t n, uint64_t seed,
                bool need_root, bool need_rhs, const std::string& tag) {
  std::vector<Tensor> rhs;
  Tensor z = BuildChain(ops, n, seed, need_root, need_rhs, &rhs);
  const auto impl = z.Impl();
  ASSERT_NE(impl->pending, nullptr) << tag;
  ASSERT_EQ(impl->pending->steps.size(), ops.size()) << tag;
  ASSERT_NE(z.GradFn(), nullptr) << tag;
  const FusedChain chain = *impl->pending;

  const Values g = Operand(n, seed + 100, false);
  std::vector<bool> need(chain.steps.size(), false);
  for (size_t k = 0; k < chain.steps.size(); ++k) {
    need[k] = FusedOpIsBinary(chain.steps[k].op) &&
              chain.steps[k].rhs.RequiresGrad();
  }
  const std::vector<Values> want =
      RefBackward(chain, g, chain.root.RequiresGrad(), need);
  const std::vector<Tensor> got =
      z.GradFn()->backward(Tensor::FromVector({n}, g));
  ASSERT_EQ(got.size(), want.size()) << tag;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].Defined(), !want[i].empty()) << tag << " input " << i;
    if (want[i].empty()) continue;
    const Values& gv = got[i].Data();
    ASSERT_EQ(gv.size(), want[i].size()) << tag;
    for (size_t e = 0; e < gv.size(); ++e) {
      ASSERT_TRUE(SameValue(gv[e], want[i][e]))
          << tag << " input " << i << " element " << e << ": " << gv[e]
          << " vs " << want[i][e];
    }
  }
}

class FusionGuard {
 public:
  FusionGuard() : threads_(exec::ThreadCount()) {
    SetFusionEnabledForTesting(1);
  }
  ~FusionGuard() {
    SetFusionEnabledForTesting(-1);
    simd::SetKernelsForTesting(nullptr);
    exec::SetThreadCount(threads_);
  }

 private:
  int threads_;
};

// Every op at every position of chains of length 1..8, on a strip-
// straddling length, with and without rhs gradients.
TEST(FusedBackwardParity, EveryOpAtEveryPositionOfEveryChainLength) {
  FusionGuard guard;
  exec::SetThreadCount(1);
  uint64_t seed = 1;
  for (const FusedOp op : kAllOps) {
    for (int64_t len = 1; len <= kMaxFusedSteps; ++len) {
      for (int64_t pos = 0; pos < len; ++pos) {
        std::vector<FusedOp> ops;
        for (int64_t k = 0; k < len; ++k) {
          ops.push_back(k == pos ? op
                                 : kFillers[static_cast<size_t>(
                                       (k + pos) % std::size(kFillers))]);
        }
        for (const bool need_rhs : {false, true}) {
          CheckChain(ops, 257, seed, /*need_root=*/true, need_rhs,
                     "op " + std::to_string(static_cast<int>(op)) + " len " +
                         std::to_string(len) + " pos " + std::to_string(pos) +
                         (need_rhs ? " rhs grads" : ""));
          if (HasFatalFailure()) return;
          seed += 16;
        }
      }
    }
  }
}

// Lengths around the strip (256) and the parallel grain (16384), at 1 and 4
// threads and under the portable and dispatched kernel sets; rhs-only
// gradients included.
TEST(FusedBackwardParity, LengthsStraddleStripAndGrainAcrossThreadsAndKernels) {
  FusionGuard guard;
  const std::vector<std::vector<FusedOp>> chains = {
      {FusedOp::kLeakyRelu},
      {FusedOp::kMul},
      {FusedOp::kDiv, FusedOp::kSigmoid, FusedOp::kSqrt},
      {FusedOp::kAbs, FusedOp::kLog, FusedOp::kPowScalar, FusedOp::kSub,
       FusedOp::kTanh, FusedOp::kExp, FusedOp::kClampMin, FusedOp::kMul}};
  uint64_t seed = 9000;
  for (const simd::MicrokernelSet* set :
       {&simd::PortableKernels(),
        static_cast<const simd::MicrokernelSet*>(nullptr)}) {
    simd::SetKernelsForTesting(set);
    for (int threads : {1, 4}) {
      exec::SetThreadCount(threads);
      for (int64_t n : {1, 255, 256, 257, 16383, 16384, 16385, 40000}) {
        for (const auto& ops : chains) {
          for (const bool need_root : {false, true}) {
            const std::string tag =
                std::string(simd::Kernels().name) + " threads " +
                std::to_string(threads) + " n " + std::to_string(n) +
                " len " + std::to_string(ops.size()) +
                (need_root ? " root" : " rhs only");
            CheckChain(ops, n, seed, need_root, /*need_rhs=*/true, tag);
            if (HasFatalFailure()) return;
            seed += 16;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace sthsl
