#include "tensor/fusion.h"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <string>

#include "exec/exec.h"
#include "simd/simd.h"
#include "tensor/debug_validator.h"
#include "util/check.h"
#include "util/obs/obs.h"

namespace sthsl {
namespace {

// Same elementwise grain as ops.cc (see docs/performance.md).
constexpr int64_t kFusedGrain = 16384;

std::atomic<int> g_fusion_override{-1};

bool NeedsGrad(const Tensor& t) {
  return t.Defined() && (t.RequiresGrad() || t.GradFn() != nullptr);
}

void EnsureMaterialized(const Tensor& t) {
  const auto impl = t.Impl();
  if (impl != nullptr && impl->pending != nullptr) MaterializePending(*impl);
}

// Scalar forward of one step — the formulas are copied verbatim from the
// unfused ops.cc lambdas, and the vectorized ApplyStep path below is
// lane-exact against them (IEEE ops via the simd kernels, scalar libm for
// transcendentals), so backward's recompute matches the materialized
// forward bitwise.
inline float EvalStep(const FusedStep& s, float x, float y) {
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

// Local derivative w.r.t. the chained value x, given x (input to the step)
// and fx (its output) — verbatim from the ops.cc dx/df lambdas.
inline float EvalStepDx(const FusedStep& s, float x, float fx, float y) {
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

// Local derivative w.r.t. the rhs of a binary step.
inline float EvalStepDy(const FusedStep& s, float x, float y) {
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

// Applies one step in place over a contiguous strip, through the simd
// kernels where one exists (all lane-exact), scalar libm otherwise.
void ApplyStep(const FusedStep& s, float* buf, const float* rhs, int64_t n) {
  const auto& ks = simd::Kernels();
  switch (s.op) {
    case FusedOp::kAdd:
      ks.add(n, buf, rhs, buf);
      return;
    case FusedOp::kSub:
      ks.sub(n, buf, rhs, buf);
      return;
    case FusedOp::kMul:
      ks.mul(n, buf, rhs, buf);
      return;
    case FusedOp::kDiv:
      ks.div(n, buf, rhs, buf);
      return;
    case FusedOp::kAddScalar:
      ks.add_scalar(n, buf, s.scalar, buf);
      return;
    case FusedOp::kMulScalar:
      ks.mul_scalar(n, buf, s.scalar, buf);
      return;
    case FusedOp::kSquare:
      ks.mul(n, buf, buf, buf);
      return;
    case FusedOp::kRelu:
      ks.relu(n, buf, buf);
      return;
    case FusedOp::kLeakyRelu:
      ks.leaky_relu(n, buf, s.scalar, buf);
      return;
    case FusedOp::kClampMin:
      ks.clamp_min(n, buf, s.scalar, buf);
      return;
    default:
      for (int64_t i = 0; i < n; ++i) buf[i] = EvalStep(s, buf[i], 0.0f);
      return;
  }
}

std::string FusedOpName(size_t nsteps) {
  return "fused_elemwise" + std::to_string(nsteps);
}

// Backward for a fused chain: per element, recompute the forward values
// from the root, then fold the gradient through the steps in reverse. The
// multiplication sequence (g · df_K) · df_{K-1} · ... is exactly what the
// unfused op-by-op backward performs, so fusion leaves gradients bitwise
// unchanged.
std::vector<Tensor> FusedBackward(const std::shared_ptr<FusedChain>& chain,
                                  const Tensor& g) {
  const Tensor& root = chain->root;
  const auto& steps = chain->steps;
  const int64_t nsteps = static_cast<int64_t>(steps.size());
  const int64_t n = root.Numel();
  const float* gv = g.Data().data();
  const float* rv = root.Data().data();

  const bool need_root = NeedsGrad(root);
  std::vector<float> root_g;
  if (need_root) root_g.resize(static_cast<size_t>(n));

  std::vector<const float*> rhs_ptr(steps.size(), nullptr);
  std::vector<std::vector<float>> rhs_g(steps.size());
  for (size_t k = 0; k < steps.size(); ++k) {
    if (!FusedOpIsBinary(steps[k].op)) continue;
    rhs_ptr[k] = steps[k].rhs.Data().data();
    if (NeedsGrad(steps[k].rhs)) rhs_g[k].resize(static_cast<size_t>(n));
  }

  exec::ParallelFor(
      0, n, kFusedGrain,
      [&](int64_t lo, int64_t hi) {
        float v[kMaxFusedSteps + 1];
        for (int64_t i = lo; i < hi; ++i) {
          v[0] = rv[i];
          for (int64_t k = 0; k < nsteps; ++k) {
            const float y = rhs_ptr[k] != nullptr ? rhs_ptr[k][i] : 0.0f;
            v[k + 1] = EvalStep(steps[static_cast<size_t>(k)], v[k], y);
          }
          float gcur = gv[i];
          for (int64_t k = nsteps - 1; k >= 0; --k) {
            const FusedStep& s = steps[static_cast<size_t>(k)];
            const float y = rhs_ptr[k] != nullptr ? rhs_ptr[k][i] : 0.0f;
            if (!rhs_g[static_cast<size_t>(k)].empty()) {
              rhs_g[static_cast<size_t>(k)][static_cast<size_t>(i)] =
                  gcur * EvalStepDy(s, v[k], y);
            }
            gcur = gcur * EvalStepDx(s, v[k], v[k + 1], y);
          }
          if (need_root) root_g[static_cast<size_t>(i)] = gcur;
        }
      },
      "exec/fused_elemwise_bwd");

  std::vector<Tensor> grads;
  grads.push_back(need_root ? Tensor::FromVector(root.Shape(),
                                                 std::move(root_g))
                            : Tensor());
  for (size_t k = 0; k < steps.size(); ++k) {
    if (!FusedOpIsBinary(steps[k].op)) continue;
    grads.push_back(rhs_g[k].empty()
                        ? Tensor()
                        : Tensor::FromVector(steps[k].rhs.Shape(),
                                             std::move(rhs_g[k])));
  }
  return grads;
}

// Wraps chain + steps into a pending tensor, wiring the autograd node
// (inputs = [root, rhs...]) exactly the way MakeResult does for eager ops.
Tensor MakePendingTensor(std::shared_ptr<FusedChain> chain) {
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = chain->root.Shape();
  impl->pending = chain;

  std::vector<Tensor> inputs;
  inputs.push_back(chain->root);
  for (const auto& s : chain->steps) {
    if (FusedOpIsBinary(s.op)) inputs.push_back(s.rhs);
  }
  bool any_requires = false;
  for (const auto& input : inputs) {
    if (NeedsGrad(input)) {
      any_requires = true;
      break;
    }
  }
  if (GradRecordingEnabled() && any_requires) {
    auto node = std::make_shared<GradNode>();
    node->op_name = FusedOpName(chain->steps.size());
    node->inputs = std::move(inputs);
    node->backward = [chain](const Tensor& g) {
      return FusedBackward(chain, g);
    };
    impl->grad_fn = std::move(node);
    impl->requires_grad = true;
  }
  return Tensor::FromImpl(std::move(impl));
}

// Starts a new chain from `a`, or copies and extends `a`'s pending chain
// when there is still room (the shorter pending prefix stays lazy — if
// nothing else reads it, it is never evaluated).
//
// Chains never extend through a tensor that participates in the gradient
// graph: if they did, every consumer of that intermediate would fold the
// prefix derivative into its own contribution (g1·f' + g2·f'), while the
// unfused graph sums all consumer gradients at the intermediate first and
// applies its local derivative once ((g1+g2)·f') — not bitwise-identical
// in float arithmetic. Splitting at autograd boundaries keeps the fused
// gradient graph topologically identical to the eager one, so deep chains
// form where gradients do not flow (inference, masks, constants) and
// grad-carrying ops become single-step fused loops.
std::shared_ptr<FusedChain> ChainFrom(const Tensor& a) {
  auto chain = std::make_shared<FusedChain>();
  const auto impl = a.Impl();
  const bool in_grad_graph = GradRecordingEnabled() && NeedsGrad(a);
  if (impl->pending != nullptr && !in_grad_graph &&
      static_cast<int64_t>(impl->pending->steps.size()) < kMaxFusedSteps) {
    chain->root = impl->pending->root;
    chain->steps = impl->pending->steps;
  } else {
    EnsureMaterialized(a);
    chain->root = a;
  }
  return chain;
}

}  // namespace

bool FusedOpIsBinary(FusedOp op) {
  return op == FusedOp::kAdd || op == FusedOp::kSub || op == FusedOp::kMul ||
         op == FusedOp::kDiv;
}

bool FusionEnabled() {
  const int forced = g_fusion_override.load(std::memory_order_acquire);
  if (forced != -1) return forced == 1;
  if (DebugChecksEnabled()) return false;
  static const bool env_off = [] {
    const char* e = std::getenv("STHSL_FUSION");
    return e != nullptr && std::string(e) == "0";
  }();
  return !env_off;
}

void SetFusionEnabledForTesting(int mode) {
  g_fusion_override.store(mode, std::memory_order_release);
}

Tensor TryFuseUnary(FusedOp op, const Tensor& a, float scalar) {
  if (!a.Defined() || !FusionEnabled()) return Tensor();
  auto chain = ChainFrom(a);
  chain->steps.push_back(FusedStep{op, scalar, Tensor()});
  return MakePendingTensor(std::move(chain));
}

Tensor TryFuseBinary(FusedOp op, const Tensor& a, const Tensor& b) {
  if (!a.Defined() || !b.Defined() || !FusionEnabled()) return Tensor();
  if (a.Shape() != b.Shape()) return Tensor();
  auto chain = ChainFrom(a);
  EnsureMaterialized(b);
  chain->steps.push_back(FusedStep{op, 0.0f, b});
  return MakePendingTensor(std::move(chain));
}

void MaterializePending(TensorImpl& impl) {
  if (impl.pending == nullptr) return;
  const std::shared_ptr<FusedChain> chain = std::move(impl.pending);
  impl.pending = nullptr;

  const bool obs_on = obs::TraceEnabled();
  const double obs_start_us = obs_on ? obs::TraceNowMicros() : 0.0;

  const auto& root_data = chain->root.Data();
  const int64_t n = static_cast<int64_t>(root_data.size());
  impl.storage = std::make_shared<TensorStorage>(
      std::vector<float>(static_cast<size_t>(n)));
  float* out = impl.storage->values.data();
  const float* rv = root_data.data();
  const auto& steps = chain->steps;

  std::vector<const float*> rhs_ptr(steps.size(), nullptr);
  int64_t binary_steps = 0;
  for (size_t k = 0; k < steps.size(); ++k) {
    if (!FusedOpIsBinary(steps[k].op)) continue;
    rhs_ptr[k] = steps[k].rhs.Data().data();
    ++binary_steps;
  }

  // One pass per chunk: seed with the root values, then apply every step in
  // place — no intermediate tensors exist at any point.
  exec::ParallelFor(
      0, n, kFusedGrain,
      [&](int64_t lo, int64_t hi) {
        std::copy(rv + lo, rv + hi, out + lo);
        for (size_t k = 0; k < steps.size(); ++k) {
          const float* rhs =
              rhs_ptr[k] != nullptr ? rhs_ptr[k] + lo : nullptr;
          ApplyStep(steps[k], out + lo, rhs, hi - lo);
        }
      },
      "exec/fused_elemwise");

  if (obs_on) {
    // Reads root + each rhs once, writes the output once.
    const int64_t bytes = 4 * n * (2 + binary_steps);
    const int64_t flops = static_cast<int64_t>(steps.size()) * n;
    const std::string name = FusedOpName(steps.size());
    obs::RecordKernelSample(name.c_str(),
                            obs::TraceNowMicros() - obs_start_us, bytes,
                            flops);
    if (!obs::InBackwardPass()) obs::RecordForwardOp(name, bytes, flops);
  }
}

}  // namespace sthsl
