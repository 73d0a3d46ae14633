#ifndef STHSL_TENSOR_FUSION_H_
#define STHSL_TENSOR_FUSION_H_

// Eager elementwise-chain fusion.
//
// Same-shape elementwise ops (add/sub/mul/div, scalar variants, and the
// unary activations) do not evaluate immediately: they return a *pending*
// tensor whose TensorImpl carries a FusedChain — a materialized root tensor
// plus up to kMaxFusedSteps ops to apply to it. Chaining another fusable op
// onto a pending tensor extends the chain instead of materializing it, so a
// z-score → add-bias → activation → dropout-mask pipeline becomes ONE loop
// nest over the data with zero intermediate tensor buffers. Any access to
// the values (Data, Item, At, Backward, ...) materializes the chain in a
// single pass over the simd microkernels.
//
// Autograd: a pending tensor's GradNode is "fused_elemwise<K>" with inputs
// [root, rhs...] (the rhs operands of the binary steps, in step order). Its
// backward runs in strips of 256 elements: it recomputes the strip's
// forward values through the same simd step kernels the forward uses
// (bitwise equal, since every fused op is a lane-exact IEEE operation or a
// scalar libm call; see simd/simd.h), evaluates each step's local
// derivative once per strip with the unfused ops' exact formulas, and folds
// the gradient through them in reverse step order with the simd multiply.
// The gradient each input receives is the same product sequence the unfused
// op chain would produce, so fusion changes no result bitwise: not
// gradients, not optimizer updates, not checkpoint bytes.
//
// Pending chains created while fusing an op onto a still-pending input share
// the root and copy the steps; the shorter prefix tensor stays pending and,
// if nothing else reads it, is simply never evaluated.
//
// Fusion is disabled under STHSL_DEBUG_CHECKS (the validator wants to see
// every intermediate) and via STHSL_FUSION=0.

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace sthsl {

/// Ops a chain step can apply. Binary ops consume a same-shape rhs tensor;
/// scalar ops carry an immediate operand.
enum class FusedOp {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kAddScalar,
  kMulScalar,
  kNeg,
  kExp,
  kLog,
  kSqrt,
  kAbs,
  kSquare,
  kPowScalar,
  kSigmoid,
  kTanh,
  kRelu,
  kLeakyRelu,
  kClampMin,
};

/// Returns true for the ops that take a same-shape rhs tensor.
bool FusedOpIsBinary(FusedOp op);

struct FusedStep {
  FusedOp op;
  float scalar = 0.0f;  // kAddScalar/kMulScalar/kPowScalar/kLeakyRelu/kClampMin
  Tensor rhs;           // defined for binary ops only; always materialized
};

/// Chain length cap: long enough for the model's activation pipelines,
/// short enough that backward's per-strip value buffers stay on the stack.
inline constexpr int64_t kMaxFusedSteps = 8;

struct FusedChain {
  Tensor root;  // materialized; the chain applies steps[0..] to its values
  std::vector<FusedStep> steps;
};

/// True when new elementwise ops should build pending chains. Off under
/// STHSL_DEBUG_CHECKS and STHSL_FUSION=0.
bool FusionEnabled();

/// Test hook: 1 forces fusion on, 0 forces it off, -1 restores the default.
void SetFusionEnabledForTesting(int mode);

/// Builds (or extends) a pending chain applying `op` to `a`. Returns an
/// undefined Tensor when fusion is disabled or `a` is not eligible — the
/// caller must then take the eager path.
Tensor TryFuseUnary(FusedOp op, const Tensor& a, float scalar = 0.0f);

/// Same for a binary op with rhs `b`; requires identical shapes (broadcasts
/// take the eager path).
Tensor TryFuseBinary(FusedOp op, const Tensor& a, const Tensor& b);

/// Evaluates `impl`'s pending chain into a new impl.storage and clears it.
/// No-op if the impl is not pending. Called by the Tensor accessors.
void MaterializePending(TensorImpl& impl);

}  // namespace sthsl

#endif  // STHSL_TENSOR_FUSION_H_
