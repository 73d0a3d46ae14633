#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <type_traits>

#include "exec/exec.h"
#include "simd/simd.h"
#include "tensor/debug_validator.h"
#include "tensor/strided.h"
#include "util/check.h"

namespace sthsl {
namespace {

bool NeedsGrad(const Tensor& t) {
  return t.Defined() && (t.RequiresGrad() || t.GradFn() != nullptr);
}

// Minimum elements per parallel chunk for elementwise / gather kernels;
// smaller tensors run inline on the caller (see docs/performance.md).
constexpr int64_t kElemGrain = 16384;

// Fixed chunk size for the global-sum reduction. This is a *determinism*
// constant, not a tuning knob: Sum(all) partials are per-chunk, so changing
// it changes the (documented) floating-point association.
constexpr int64_t kSumAllGrain = 32768;

// Strides of `shape` left-padded to `rank` dims, with 0 for broadcast dims.
std::vector<int64_t> BroadcastStrides(const std::vector<int64_t>& shape,
                                      const std::vector<int64_t>& out_shape) {
  const size_t rank = out_shape.size();
  const auto strides = StridesOf(shape);
  std::vector<int64_t> padded(rank, 0);
  const size_t offset = rank - shape.size();
  for (size_t i = 0; i < shape.size(); ++i) {
    padded[offset + i] = (shape[i] == 1 && out_shape[offset + i] != 1)
                             ? 0
                             : strides[i];
  }
  return padded;
}

// Sums `grad` (shaped like `out_shape`) down to `target_shape` (the inverse
// of broadcasting). Runs under NoGradGuard during backward.
Tensor ReduceGradTo(const Tensor& grad, const std::vector<int64_t>& target) {
  if (grad.Shape() == target) return grad;
  const auto& gshape = grad.Shape();
  const size_t rank = gshape.size();
  const size_t offset = rank - target.size();
  std::vector<int64_t> dims;
  for (size_t i = 0; i < rank; ++i) {
    if (i < offset) {
      dims.push_back(static_cast<int64_t>(i));
    } else if (target[i - offset] == 1 && gshape[i] != 1) {
      dims.push_back(static_cast<int64_t>(i));
    }
  }
  Tensor reduced = dims.empty() ? grad : Sum(grad, dims, /*keepdim=*/true);
  return Reshape(reduced, target);
}

// Generic broadcasting binary op. `fwd` computes the output value; `dx`/`dy`
// compute the local partial derivatives given (x, y). Forward and backward
// walk the output in strided runs (tensor/strided.h); same-shape operands
// coalesce into one contiguous run per chunk.
template <typename Fwd, typename Dx, typename Dy>
Tensor BroadcastBinary(const char* name, const Tensor& a, const Tensor& b,
                       Fwd fwd, Dx dx, Dy dy) {
  const auto out_shape = BroadcastShapes(a.Shape(), b.Shape());
  const StridedLayout<2> layout(
      out_shape, {BroadcastStrides(a.Shape(), out_shape),
                  BroadcastStrides(b.Shape(), out_shape)});
  const int64_t sa = layout.InnerStride(0);
  const int64_t sb = layout.InnerStride(1);
  const int64_t n = layout.Numel();
  std::vector<float> out(static_cast<size_t>(n));
  const float* av = a.Data().data();
  const float* bv = b.Data().data();
  exec::ParallelFor(
      0, n, kElemGrain,
      [&](int64_t lo, int64_t hi) {
        layout.ForEachRun(lo, hi, [&](int64_t i, int64_t len, const auto& off) {
          float* o = out.data() + i;
          ForEachStridedPair(av + off[0], sa, bv + off[1], sb, len,
                             [&](int64_t j, float x, float y) {
                               o[j] = fwd(x, y);
                             });
        });
      },
      "exec/elementwise");

  Tensor a_captured = a;
  Tensor b_captured = b;
  return MakeResult(
      out_shape, std::move(out), name, {a, b},
      [a_captured, b_captured, layout, out_shape, dx,
       dy](const Tensor& g) -> std::vector<Tensor> {
        const int64_t n = layout.Numel();
        const int64_t sa = layout.InnerStride(0);
        const int64_t sb = layout.InnerStride(1);
        const float* gv = g.Data().data();
        const float* av = a_captured.Data().data();
        const float* bv = b_captured.Data().data();
        const bool need_a = NeedsGrad(a_captured);
        const bool need_b = NeedsGrad(b_captured);

        std::vector<float> ga_full;
        std::vector<float> gb_full;
        if (need_a) ga_full.resize(static_cast<size_t>(n));
        if (need_b) gb_full.resize(static_cast<size_t>(n));

        exec::ParallelFor(
            0, n, kElemGrain,
            [&](int64_t lo, int64_t hi) {
              layout.ForEachRun(
                  lo, hi, [&](int64_t i, int64_t len, const auto& off) {
                    const float* gi = gv + i;
                    // One pass per gradient keeps each loop branch-free.
                    if (need_a) {
                      float* gai = ga_full.data() + i;
                      ForEachStridedPair(av + off[0], sa, bv + off[1], sb,
                                         len, [&](int64_t j, float x, float y) {
                                           gai[j] = gi[j] * dx(x, y);
                                         });
                    }
                    if (need_b) {
                      float* gbi = gb_full.data() + i;
                      ForEachStridedPair(av + off[0], sa, bv + off[1], sb,
                                         len, [&](int64_t j, float x, float y) {
                                           gbi[j] = gi[j] * dy(x, y);
                                         });
                    }
                  });
            },
            "exec/elementwise");
        Tensor ga;
        Tensor gb;
        if (need_a) {
          ga = ReduceGradTo(Tensor::FromVector(out_shape, std::move(ga_full)),
                            a_captured.Shape());
        }
        if (need_b) {
          gb = ReduceGradTo(Tensor::FromVector(out_shape, std::move(gb_full)),
                            b_captured.Shape());
        }
        return {ga, gb};
      });
}

// Materializes the row-major walk of `layout` over `src`: a permuted or
// broadcast copy, one strided run at a time.
std::vector<float> CopyLayout(const StridedLayout<1>& layout, const float* src,
                              const char* tag) {
  std::vector<float> out(static_cast<size_t>(layout.Numel()));
  const int64_t stride = layout.InnerStride(0);
  exec::ParallelFor(
      0, layout.Numel(), kElemGrain,
      [&](int64_t lo, int64_t hi) {
        layout.ForEachRun(lo, hi, [&](int64_t i, int64_t len, const auto& off) {
          CopyStridedRun(src + off[0], stride, len, out.data() + i);
        });
      },
      tag);
  return out;
}

// Generic elementwise unary op. `df` is the local derivative, called as
// `df(x)` or, for ops whose derivative is cheapest in terms of the output,
// `df(x, fx)`. The output is not kept for the backward: a two-argument `df`
// recomputes fx = fwd(x) there, which is bitwise the forward value, so an
// inference call (no backward) allocates one buffer, not two, and a
// one-argument `df` pays no recompute at all.
//
// The chunk loops copy the functors into locals: a captured scalar (a slope,
// a floor) read through a reference could alias the float output, which
// forces a reload per element and keeps the loop from vectorizing.
template <typename Fwd, typename Df>
Tensor UnaryOp(const char* name, const Tensor& a, Fwd fwd, Df df) {
  const int64_t n = a.Numel();
  std::vector<float> out(static_cast<size_t>(n));
  const float* av = a.Data().data();
  float* ov = out.data();
  exec::ParallelFor(
      0, n, kElemGrain,
      [&](int64_t lo, int64_t hi) {
        const Fwd f = fwd;
        for (int64_t i = lo; i < hi; ++i) ov[i] = f(av[i]);
      },
      "exec/elementwise");

  Tensor a_captured = a;
  return MakeResult(
      a.Shape(), std::move(out), name, {a},
      [a_captured, fwd, df](const Tensor& g) -> std::vector<Tensor> {
        const int64_t n = a_captured.Numel();
        const float* gv = g.Data().data();
        const float* av = a_captured.Data().data();
        std::vector<float> ga(static_cast<size_t>(n));
        float* gav = ga.data();
        exec::ParallelFor(
            0, n, kElemGrain,
            [&](int64_t lo, int64_t hi) {
              const Fwd f = fwd;
              const Df d = df;
              for (int64_t i = lo; i < hi; ++i) {
                if constexpr (std::is_invocable_v<Df, float, float>) {
                  gav[i] = gv[i] * d(av[i], f(av[i]));
                } else {
                  gav[i] = gv[i] * d(av[i]);
                }
              }
            },
            "exec/elementwise");
        return {Tensor::FromVector(a_captured.Shape(), std::move(ga))};
      });
}

}  // namespace

// -- Binary -------------------------------------------------------------------

Tensor Add(const Tensor& a, const Tensor& b) {
  return BroadcastBinary(
      "add", a, b, [](float x, float y) { return x + y; },
      [](float, float) { return 1.0f; }, [](float, float) { return 1.0f; });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return BroadcastBinary(
      "sub", a, b, [](float x, float y) { return x - y; },
      [](float, float) { return 1.0f; }, [](float, float) { return -1.0f; });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return BroadcastBinary(
      "mul", a, b, [](float x, float y) { return x * y; },
      [](float, float y) { return y; }, [](float x, float) { return x; });
}

Tensor Div(const Tensor& a, const Tensor& b) {
  if (DebugChecksEnabled()) {
    ValidateOpInput("div", "a", a);
    ValidateOpInput("div", "b", b);
  }
  return BroadcastBinary(
      "div", a, b, [](float x, float y) { return x / y; },
      [](float, float y) { return 1.0f / y; },
      [](float x, float y) { return -x / (y * y); });
}

Tensor AddScalar(const Tensor& a, float s) {
  return UnaryOp(
      "add_scalar", a, [s](float x) { return x + s; },
      [](float) { return 1.0f; });
}

Tensor MulScalar(const Tensor& a, float s) {
  return UnaryOp(
      "mul_scalar", a, [s](float x) { return x * s; },
      [s](float) { return s; });
}

// -- Unary --------------------------------------------------------------------

Tensor Neg(const Tensor& a) {
  return UnaryOp(
      "neg", a, [](float x) { return -x; },
      [](float) { return -1.0f; });
}

Tensor Exp(const Tensor& a) {
  return UnaryOp(
      "exp", a, [](float x) { return std::exp(x); },
      [](float, float fx) { return fx; });
}

Tensor Log(const Tensor& a) {
  if (DebugChecksEnabled()) ValidateOpInput("log", "a", a);
  return UnaryOp(
      "log", a, [](float x) { return std::log(std::max(x, 1e-12f)); },
      [](float x) { return 1.0f / std::max(x, 1e-12f); });
}

Tensor Sqrt(const Tensor& a) {
  if (DebugChecksEnabled()) ValidateOpInput("sqrt", "a", a);
  return UnaryOp(
      "sqrt", a, [](float x) { return std::sqrt(x); },
      [](float, float fx) { return 0.5f / std::max(fx, 1e-12f); });
}

Tensor Abs(const Tensor& a) {
  return UnaryOp(
      "abs", a, [](float x) { return std::fabs(x); },
      [](float x) { return x >= 0.0f ? 1.0f : -1.0f; });
}

Tensor PowScalar(const Tensor& a, float exponent) {
  return UnaryOp(
      "pow_scalar", a,
      [exponent](float x) { return std::pow(x, exponent); },
      [exponent](float x) {
        return exponent * std::pow(x, exponent - 1.0f);
      });
}

Tensor Square(const Tensor& a) {
  return UnaryOp(
      "square", a, [](float x) { return x * x; },
      [](float x) { return 2.0f * x; });
}

Tensor Sigmoid(const Tensor& a) {
  return UnaryOp(
      "sigmoid", a,
      [](float x) { return 1.0f / (1.0f + std::exp(-x)); },
      [](float, float fx) { return fx * (1.0f - fx); });
}

Tensor Tanh(const Tensor& a) {
  return UnaryOp(
      "tanh", a, [](float x) { return std::tanh(x); },
      [](float, float fx) { return 1.0f - fx * fx; });
}

Tensor Relu(const Tensor& a) {
  return UnaryOp(
      "relu", a, [](float x) { return x > 0.0f ? x : 0.0f; },
      [](float x) { return x > 0.0f ? 1.0f : 0.0f; });
}

Tensor LeakyRelu(const Tensor& a, float negative_slope) {
  return UnaryOp(
      "leaky_relu", a,
      [negative_slope](float x) {
        return x > 0.0f ? x : negative_slope * x;
      },
      [negative_slope](float x) {
        return x > 0.0f ? 1.0f : negative_slope;
      });
}

Tensor ClampMin(const Tensor& a, float floor) {
  return UnaryOp(
      "clamp_min", a,
      [floor](float x) { return x > floor ? x : floor; },
      [floor](float x) { return x > floor ? 1.0f : 0.0f; });
}

Tensor Dropout(const Tensor& a, float p, Rng& rng, bool training) {
  STHSL_CHECK(p >= 0.0f && p < 1.0f) << "invalid dropout probability " << p;
  if (!training || p == 0.0f) return a;
  const int64_t n = a.Numel();
  const float scale = 1.0f / (1.0f - p);
  std::vector<float> mask(static_cast<size_t>(n));
  for (auto& m : mask) m = rng.Bernoulli(p) ? 0.0f : scale;
  Tensor mask_tensor = Tensor::FromVector(a.Shape(), std::move(mask));
  return Mul(a, mask_tensor);
}

// -- Reductions -----------------------------------------------------------------

Tensor Sum(const Tensor& a) {
  const float* av = a.Data().data();
  // Per-chunk double partials combined in ascending chunk order: the result
  // depends on kSumAllGrain but not on the thread count, and tensors that
  // fit a single chunk reduce exactly like the plain serial loop.
  const double acc = exec::ParallelReduceDouble(
      0, a.Numel(), kSumAllGrain,
      [av](int64_t lo, int64_t hi) {
        double part = 0.0;
        for (int64_t i = lo; i < hi; ++i) part += av[i];
        return part;
      },
      "exec/sum_all");
  Tensor a_captured = a;
  return MakeResult(
      {}, {static_cast<float>(acc)}, "sum_all", {a},
      [a_captured](const Tensor& g) -> std::vector<Tensor> {
        return {Tensor::Full(a_captured.Shape(), g.Item())};
      });
}

Tensor Sum(const Tensor& a, std::vector<int64_t> dims, bool keepdim) {
  const auto& shape = a.Shape();
  const int64_t rank = static_cast<int64_t>(shape.size());
  std::vector<bool> reduce(static_cast<size_t>(rank), false);
  for (int64_t d : dims) {
    if (d < 0) d += rank;
    STHSL_CHECK(d >= 0 && d < rank) << "Sum dim out of range";
    reduce[static_cast<size_t>(d)] = true;
  }

  std::vector<int64_t> keep_shape(shape);
  for (size_t i = 0; i < keep_shape.size(); ++i) {
    if (reduce[i]) keep_shape[i] = 1;
  }
  std::vector<int64_t> out_shape;
  for (size_t i = 0; i < keep_shape.size(); ++i) {
    if (!reduce[i]) {
      out_shape.push_back(shape[i]);
    } else if (keepdim) {
      out_shape.push_back(1);
    }
  }

  // Gather formulation: each output element owns its accumulator and sums
  // its reduced coordinates in ascending input order — the exact addition
  // sequence of a serial scatter pass — so chunking the *output* range
  // keeps the result bitwise-identical at any thread count. Outputs walk
  // keep_shape over the input strides (reduced dims have extent 1 there and
  // drop out); each output's terms walk red_extents, where the kept dims
  // have extent 1.
  const auto in_strides = StridesOf(shape);
  std::vector<int64_t> red_extents(shape.size(), 1);
  for (size_t i = 0; i < shape.size(); ++i) {
    if (reduce[i]) red_extents[i] = shape[i];
  }
  const StridedLayout<1> keep_layout(keep_shape, {in_strides});
  const StridedLayout<1> red_layout(red_extents, {in_strides});
  const int64_t ks = keep_layout.InnerStride(0);
  const int64_t rs = red_layout.InnerStride(0);
  const int64_t red_count = red_layout.Numel();
  const int64_t out_n = NumelOf(keep_shape);
  std::vector<float> out(static_cast<size_t>(out_n), 0.0f);
  const float* av = a.Data().data();

  exec::ParallelFor(
      0, out_n,
      std::max<int64_t>(1, kElemGrain / std::max<int64_t>(1, red_count)),
      [&](int64_t lo, int64_t hi) {
        keep_layout.ForEachRun(lo, hi, [&](int64_t oi, int64_t len,
                                           const auto& base) {
          float* o = out.data() + oi;
          const float* a0 = av + base[0];
          if (ks == 1) {
            // The run's outputs are adjacent in the input: add whole input
            // rows into them, one reduced position at a time. Every output
            // still receives its terms in ascending input order.
            red_layout.ForEachRun(
                0, red_count, [&](int64_t, int64_t rlen, const auto& roff) {
                  for (int64_t r = 0; r < rlen; ++r) {
                    const float* row = a0 + roff[0] + r * rs;
                    for (int64_t j = 0; j < len; ++j) o[j] += row[j];
                  }
                });
            return;
          }
          for (int64_t j = 0; j < len; ++j) {
            const float* aj = a0 + j * ks;
            float acc = 0.0f;
            red_layout.ForEachRun(
                0, red_count, [&](int64_t, int64_t rlen, const auto& roff) {
                  const float* terms = aj + roff[0];
                  for (int64_t r = 0; r < rlen; ++r) acc += terms[r * rs];
                });
            o[j] = acc;
          }
        });
      },
      "exec/sum_dims");

  Tensor a_captured = a;
  return MakeResult(
      out_shape, std::move(out), "sum_dims", {a},
      [a_captured, keep_shape](const Tensor& g) -> std::vector<Tensor> {
        Tensor reshaped = Reshape(g, keep_shape);
        return {BroadcastTo(reshaped, a_captured.Shape())};
      });
}

Tensor Mean(const Tensor& a) {
  const int64_t n = a.Numel();
  STHSL_CHECK_GT(n, 0);
  return MulScalar(Sum(a), 1.0f / static_cast<float>(n));
}

Tensor Mean(const Tensor& a, std::vector<int64_t> dims, bool keepdim) {
  const auto& shape = a.Shape();
  const int64_t rank = static_cast<int64_t>(shape.size());
  int64_t count = 1;
  for (int64_t d : dims) {
    if (d < 0) d += rank;
    STHSL_CHECK(d >= 0 && d < rank) << "Mean dim out of range";
    count *= shape[static_cast<size_t>(d)];
  }
  STHSL_CHECK_GT(count, 0);
  return MulScalar(Sum(a, std::move(dims), keepdim),
                   1.0f / static_cast<float>(count));
}

Tensor MaxValues(const Tensor& a, int64_t dim, bool keepdim) {
  const auto& shape = a.Shape();
  const int64_t rank = static_cast<int64_t>(shape.size());
  if (dim < 0) dim += rank;
  STHSL_CHECK(dim >= 0 && dim < rank) << "MaxValues dim out of range";

  int64_t outer = 1;
  int64_t inner = 1;
  for (int64_t d = 0; d < dim; ++d) outer *= shape[static_cast<size_t>(d)];
  for (int64_t d = dim + 1; d < rank; ++d) {
    inner *= shape[static_cast<size_t>(d)];
  }
  const int64_t extent = shape[static_cast<size_t>(dim)];
  STHSL_CHECK_GT(extent, 0);

  std::vector<float> out(static_cast<size_t>(outer * inner));
  const auto& av = a.Data();
  for (int64_t o = 0; o < outer; ++o) {
    for (int64_t i = 0; i < inner; ++i) {
      float best = av[static_cast<size_t>(o * extent * inner + i)];
      for (int64_t e = 1; e < extent; ++e) {
        best = std::max(
            best, av[static_cast<size_t>((o * extent + e) * inner + i)]);
      }
      out[static_cast<size_t>(o * inner + i)] = best;
    }
  }
  std::vector<int64_t> out_shape(shape);
  if (keepdim) {
    out_shape[static_cast<size_t>(dim)] = 1;
  } else {
    out_shape.erase(out_shape.begin() + dim);
  }
  return Tensor::FromVector(std::move(out_shape), std::move(out));
}

// -- Shape ----------------------------------------------------------------------

Tensor Reshape(const Tensor& a, std::vector<int64_t> shape) {
  int64_t inferred_dim = -1;
  int64_t known = 1;
  for (size_t i = 0; i < shape.size(); ++i) {
    if (shape[i] == -1) {
      STHSL_CHECK_EQ(inferred_dim, -1) << "at most one -1 dim in Reshape";
      inferred_dim = static_cast<int64_t>(i);
    } else {
      known *= shape[i];
    }
  }
  if (inferred_dim >= 0) {
    STHSL_CHECK(known != 0 && a.Numel() % known == 0)
        << "cannot infer Reshape dim";
    shape[static_cast<size_t>(inferred_dim)] = a.Numel() / known;
  }
  STHSL_CHECK_EQ(NumelOf(shape), a.Numel()) << "Reshape numel mismatch";

  return MakeView(
      std::move(shape), a, "reshape",
      [a_shape = a.Shape()](const Tensor& g) -> std::vector<Tensor> {
        return {Reshape(g, a_shape)};
      });
}

Tensor Permute(const Tensor& a, std::vector<int64_t> dims) {
  const auto& shape = a.Shape();
  const size_t rank = shape.size();
  STHSL_CHECK_EQ(dims.size(), rank) << "Permute rank mismatch";
  std::vector<bool> seen(rank, false);
  std::vector<int64_t> out_shape(rank);
  for (size_t i = 0; i < rank; ++i) {
    int64_t d = dims[i];
    if (d < 0) d += static_cast<int64_t>(rank);
    STHSL_CHECK(d >= 0 && d < static_cast<int64_t>(rank) &&
                !seen[static_cast<size_t>(d)])
        << "invalid Permute dims";
    seen[static_cast<size_t>(d)] = true;
    dims[i] = d;
    out_shape[i] = shape[static_cast<size_t>(d)];
  }

  // Walk the output in order; the source advances by the input stride of
  // the dim each output dim came from.
  const auto in_strides = StridesOf(shape);
  std::vector<int64_t> src_strides(rank);
  for (size_t i = 0; i < rank; ++i) {
    src_strides[i] = in_strides[static_cast<size_t>(dims[i])];
  }
  std::vector<float> out =
      CopyLayout(StridedLayout<1>(out_shape, {src_strides}), a.Data().data(),
                 "exec/permute");

  std::vector<int64_t> inverse(rank);
  for (size_t i = 0; i < rank; ++i) {
    inverse[static_cast<size_t>(dims[i])] = static_cast<int64_t>(i);
  }
  return MakeResult(
      std::move(out_shape), std::move(out), "permute", {a},
      [inverse](const Tensor& g) -> std::vector<Tensor> {
        return {Permute(g, inverse)};
      });
}

Tensor Transpose(const Tensor& a, int64_t dim0, int64_t dim1) {
  const int64_t rank = a.Dim();
  if (dim0 < 0) dim0 += rank;
  if (dim1 < 0) dim1 += rank;
  std::vector<int64_t> dims(static_cast<size_t>(rank));
  for (int64_t i = 0; i < rank; ++i) dims[static_cast<size_t>(i)] = i;
  std::swap(dims[static_cast<size_t>(dim0)], dims[static_cast<size_t>(dim1)]);
  return Permute(a, std::move(dims));
}

Tensor Unsqueeze(const Tensor& a, int64_t dim) {
  auto shape = a.Shape();
  const int64_t rank = static_cast<int64_t>(shape.size());
  if (dim < 0) dim += rank + 1;
  STHSL_CHECK(dim >= 0 && dim <= rank) << "Unsqueeze dim out of range";
  shape.insert(shape.begin() + dim, 1);
  return Reshape(a, std::move(shape));
}

Tensor Squeeze(const Tensor& a, int64_t dim) {
  auto shape = a.Shape();
  const int64_t rank = static_cast<int64_t>(shape.size());
  if (dim < 0) dim += rank;
  STHSL_CHECK(dim >= 0 && dim < rank) << "Squeeze dim out of range";
  STHSL_CHECK_EQ(shape[static_cast<size_t>(dim)], 1)
      << "Squeeze on non-unit dim";
  shape.erase(shape.begin() + dim);
  return Reshape(a, std::move(shape));
}

Tensor Narrow(const Tensor& a, int64_t dim, int64_t start, int64_t length) {
  const auto& shape = a.Shape();
  const int64_t rank = static_cast<int64_t>(shape.size());
  if (dim < 0) dim += rank;
  STHSL_CHECK(dim >= 0 && dim < rank) << "Narrow dim out of range";
  const int64_t extent = shape[static_cast<size_t>(dim)];
  STHSL_CHECK(start >= 0 && length >= 0 && start + length <= extent)
      << "Narrow range [" << start << ", " << start + length
      << ") out of bounds for extent " << extent;

  int64_t outer = 1;
  int64_t inner = 1;
  for (int64_t d = 0; d < dim; ++d) outer *= shape[static_cast<size_t>(d)];
  for (int64_t d = dim + 1; d < rank; ++d) {
    inner *= shape[static_cast<size_t>(d)];
  }

  std::vector<int64_t> out_shape(shape);
  out_shape[static_cast<size_t>(dim)] = length;
  std::vector<float> out(static_cast<size_t>(outer * length * inner));
  const auto& av = a.Data();
  for (int64_t o = 0; o < outer; ++o) {
    const float* src = av.data() + (o * extent + start) * inner;
    float* dst = out.data() + o * length * inner;
    std::copy(src, src + length * inner, dst);
  }

  Tensor a_captured = a;
  return MakeResult(
      std::move(out_shape), std::move(out), "narrow", {a},
      [a_captured, dim, start, length, outer, inner,
       extent](const Tensor& g) -> std::vector<Tensor> {
        std::vector<float> ga(
            static_cast<size_t>(a_captured.Numel()), 0.0f);
        const auto& gv = g.Data();
        for (int64_t o = 0; o < outer; ++o) {
          const float* src = gv.data() + o * length * inner;
          float* dst = ga.data() + (o * extent + start) * inner;
          std::copy(src, src + length * inner, dst);
        }
        return {Tensor::FromVector(a_captured.Shape(), std::move(ga))};
      });
}

Tensor Cat(const std::vector<Tensor>& tensors, int64_t dim) {
  STHSL_CHECK(!tensors.empty()) << "Cat of zero tensors";
  const auto& first_shape = tensors[0].Shape();
  const int64_t rank = static_cast<int64_t>(first_shape.size());
  if (dim < 0) dim += rank;
  STHSL_CHECK(dim >= 0 && dim < rank) << "Cat dim out of range";

  int64_t total = 0;
  for (const auto& t : tensors) {
    STHSL_CHECK_EQ(t.Dim(), rank) << "Cat rank mismatch";
    for (int64_t d = 0; d < rank; ++d) {
      if (d != dim) {
        STHSL_CHECK_EQ(t.Size(d), first_shape[static_cast<size_t>(d)])
            << "Cat non-cat dim mismatch at dim " << d;
      }
    }
    total += t.Size(dim);
  }

  int64_t outer = 1;
  int64_t inner = 1;
  for (int64_t d = 0; d < dim; ++d) {
    outer *= first_shape[static_cast<size_t>(d)];
  }
  for (int64_t d = dim + 1; d < rank; ++d) {
    inner *= first_shape[static_cast<size_t>(d)];
  }

  std::vector<int64_t> out_shape(first_shape);
  out_shape[static_cast<size_t>(dim)] = total;
  std::vector<float> out(static_cast<size_t>(outer * total * inner));
  int64_t cursor = 0;
  for (const auto& t : tensors) {
    const int64_t extent = t.Size(dim);
    const auto& tv = t.Data();
    for (int64_t o = 0; o < outer; ++o) {
      const float* src = tv.data() + o * extent * inner;
      float* dst = out.data() + (o * total + cursor) * inner;
      std::copy(src, src + extent * inner, dst);
    }
    cursor += extent;
  }

  std::vector<int64_t> extents;
  extents.reserve(tensors.size());
  for (const auto& t : tensors) extents.push_back(t.Size(dim));

  return MakeResult(
      std::move(out_shape), std::move(out), "cat", tensors,
      [dim, extents](const Tensor& g) -> std::vector<Tensor> {
        std::vector<Tensor> grads;
        grads.reserve(extents.size());
        int64_t cursor = 0;
        for (int64_t extent : extents) {
          grads.push_back(Narrow(g, dim, cursor, extent));
          cursor += extent;
        }
        return grads;
      });
}

Tensor Stack(const std::vector<Tensor>& tensors, int64_t dim) {
  STHSL_CHECK(!tensors.empty()) << "Stack of zero tensors";
  std::vector<Tensor> expanded;
  expanded.reserve(tensors.size());
  for (const auto& t : tensors) expanded.push_back(Unsqueeze(t, dim));
  return Cat(expanded, dim);
}

Tensor IndexSelect(const Tensor& a, int64_t dim,
                   const std::vector<int64_t>& indices) {
  const auto& shape = a.Shape();
  const int64_t rank = static_cast<int64_t>(shape.size());
  if (dim < 0) dim += rank;
  STHSL_CHECK(dim >= 0 && dim < rank) << "IndexSelect dim out of range";
  const int64_t extent = shape[static_cast<size_t>(dim)];

  int64_t outer = 1;
  int64_t inner = 1;
  for (int64_t d = 0; d < dim; ++d) outer *= shape[static_cast<size_t>(d)];
  for (int64_t d = dim + 1; d < rank; ++d) {
    inner *= shape[static_cast<size_t>(d)];
  }

  const int64_t count = static_cast<int64_t>(indices.size());
  std::vector<int64_t> out_shape(shape);
  out_shape[static_cast<size_t>(dim)] = count;
  std::vector<float> out(static_cast<size_t>(outer * count * inner));
  const auto& av = a.Data();
  for (int64_t o = 0; o < outer; ++o) {
    for (int64_t j = 0; j < count; ++j) {
      const int64_t idx = indices[static_cast<size_t>(j)];
      STHSL_CHECK(idx >= 0 && idx < extent)
          << "IndexSelect index out of range: " << idx;
      const float* src = av.data() + (o * extent + idx) * inner;
      float* dst = out.data() + (o * count + j) * inner;
      std::copy(src, src + inner, dst);
    }
  }

  Tensor a_captured = a;
  std::vector<int64_t> idx_copy = indices;
  return MakeResult(
      std::move(out_shape), std::move(out), "index_select", {a},
      [a_captured, dim, idx_copy, outer, inner,
       extent](const Tensor& g) -> std::vector<Tensor> {
        std::vector<float> ga(static_cast<size_t>(a_captured.Numel()), 0.0f);
        const auto& gv = g.Data();
        const int64_t count = static_cast<int64_t>(idx_copy.size());
        for (int64_t o = 0; o < outer; ++o) {
          for (int64_t j = 0; j < count; ++j) {
            const int64_t idx = idx_copy[static_cast<size_t>(j)];
            const float* src = gv.data() + (o * count + j) * inner;
            float* dst = ga.data() + (o * extent + idx) * inner;
            for (int64_t i = 0; i < inner; ++i) dst[i] += src[i];
          }
        }
        return {Tensor::FromVector(a_captured.Shape(), std::move(ga))};
      });
}

Tensor BroadcastTo(const Tensor& a, std::vector<int64_t> shape) {
  if (a.Shape() == shape) return a;
  STHSL_CHECK(BroadcastShapes(a.Shape(), shape) == shape)
      << "BroadcastTo: shape does not broadcast to the target";
  std::vector<float> out =
      CopyLayout(StridedLayout<1>(shape, {BroadcastStrides(a.Shape(), shape)}),
                 a.Data().data(), "exec/broadcast_to");
  return MakeResult(
      std::move(shape), std::move(out), "broadcast_to", {a},
      [a_shape = a.Shape()](const Tensor& g) -> std::vector<Tensor> {
        return {ReduceGradTo(g, a_shape)};
      });
}

// -- Softmax --------------------------------------------------------------------

Tensor Softmax(const Tensor& a, int64_t dim) {
  const auto& shape = a.Shape();
  const int64_t rank = static_cast<int64_t>(shape.size());
  if (dim < 0) dim += rank;
  STHSL_CHECK(dim >= 0 && dim < rank) << "Softmax dim out of range";

  int64_t outer = 1;
  int64_t inner = 1;
  for (int64_t d = 0; d < dim; ++d) outer *= shape[static_cast<size_t>(d)];
  for (int64_t d = dim + 1; d < rank; ++d) {
    inner *= shape[static_cast<size_t>(d)];
  }
  const int64_t extent = shape[static_cast<size_t>(dim)];

  std::vector<float> out(static_cast<size_t>(a.Numel()));
  const auto& av = a.Data();
  // Each (outer, inner) lane is independent; parallel chunks own disjoint
  // lanes, so any thread count reproduces the serial result bitwise.
  const int64_t lane_grain =
      std::max<int64_t>(1, kElemGrain / std::max<int64_t>(1, extent));
  exec::ParallelFor(
      0, outer * inner, lane_grain,
      [&](int64_t lo, int64_t hi) {
        if (inner == 1) {
          // Contiguous lanes (the common last-dim case): canonical reduce_max
          // / reduce_sum and a vectorized normalize. exp stays scalar libm
          // per the simd.h transcendental rule.
          const auto& ks = simd::Kernels();
          for (int64_t o = lo; o < hi; ++o) {
            const float* row = av.data() + o * extent;
            float* out_row = out.data() + o * extent;
            const float max_val = ks.reduce_max(extent, row);
            for (int64_t e = 0; e < extent; ++e) {
              out_row[e] = std::exp(row[e] - max_val);
            }
            const float denom = ks.reduce_sum(extent, out_row);
            ks.div_scalar(extent, out_row, denom, out_row);
          }
          return;
        }
        for (int64_t l = lo; l < hi; ++l) {
          const int64_t o = l / inner;
          const int64_t i = l % inner;
          float max_val = -std::numeric_limits<float>::infinity();
          for (int64_t e = 0; e < extent; ++e) {
            max_val = std::max(
                max_val,
                av[static_cast<size_t>((o * extent + e) * inner + i)]);
          }
          float denom = 0.0f;
          for (int64_t e = 0; e < extent; ++e) {
            const size_t idx =
                static_cast<size_t>((o * extent + e) * inner + i);
            out[idx] = std::exp(av[idx] - max_val);
            denom += out[idx];
          }
          for (int64_t e = 0; e < extent; ++e) {
            out[static_cast<size_t>((o * extent + e) * inner + i)] /= denom;
          }
        }
      },
      "exec/softmax");

  Tensor y = Tensor::FromVector(shape, out);  // detached copy for backward
  return MakeResult(
      shape, std::move(out), "softmax", {a},
      [y, outer, inner, extent,
       lane_grain](const Tensor& g) -> std::vector<Tensor> {
        const auto& yv = y.Data();
        const auto& gv = g.Data();
        std::vector<float> ga(yv.size());
        exec::ParallelFor(
            0, outer * inner, lane_grain,
            [&](int64_t lo, int64_t hi) {
              if (inner == 1) {
                // dx = y * (g - dot): canonical dot, then two vector strips
                // (g - dot written as g + (-dot), exact for all operands).
                const auto& ks = simd::Kernels();
                for (int64_t o = lo; o < hi; ++o) {
                  const float* g_row = gv.data() + o * extent;
                  const float* y_row = yv.data() + o * extent;
                  float* ga_row = ga.data() + o * extent;
                  const float dot = ks.dot(extent, g_row, y_row);
                  ks.add_scalar(extent, g_row, -dot, ga_row);
                  ks.mul(extent, y_row, ga_row, ga_row);
                }
                return;
              }
              for (int64_t l = lo; l < hi; ++l) {
                const int64_t o = l / inner;
                const int64_t i = l % inner;
                float dot = 0.0f;
                for (int64_t e = 0; e < extent; ++e) {
                  const size_t idx =
                      static_cast<size_t>((o * extent + e) * inner + i);
                  dot += gv[idx] * yv[idx];
                }
                for (int64_t e = 0; e < extent; ++e) {
                  const size_t idx =
                      static_cast<size_t>((o * extent + e) * inner + i);
                  ga[idx] = yv[idx] * (gv[idx] - dot);
                }
              }
            },
            "exec/softmax");
        return {Tensor::FromVector(y.Shape(), std::move(ga))};
      });
}

// -- Losses ---------------------------------------------------------------------

Tensor MseLoss(const Tensor& pred, const Tensor& target) {
  return Mean(Square(Sub(pred, target)));
}

Tensor SquaredErrorSum(const Tensor& pred, const Tensor& target) {
  return Sum(Square(Sub(pred, target)));
}

Tensor L2NormalizeRows(const Tensor& a, float eps) {
  Tensor norm = Sqrt(Sum(Square(a), {-1}, /*keepdim=*/true));
  return Div(a, AddScalar(norm, eps));
}

}  // namespace sthsl
