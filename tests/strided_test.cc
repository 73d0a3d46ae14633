// Parity tests for the strided-run layout kernels (tensor/strided.h): every
// op routed through the iterator must reproduce, bit for bit, the
// per-element div/mod index decomposition it replaced. Those formulas live
// on here as the reference. Shapes cover size-1 dims, empty tensors and
// tensors above the 16384-element parallel grain (so exec chunks start
// mid-row), at 1, 2 and 4 kernel threads.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "exec/exec.h"
#include "tensor/ops.h"
#include "tensor/strided.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace sthsl {
namespace {

using Shape = std::vector<int64_t>;
using Values = std::vector<float>;
using BinaryFn = std::function<float(float, float)>;

constexpr int kThreadCounts[] = {1, 2, 4};

// -- Reference: the div/mod formulas the layout kernels replaced -------------

Shape RefBroadcastStrides(const Shape& shape, const Shape& out_shape) {
  const size_t rank = out_shape.size();
  const auto strides = StridesOf(shape);
  Shape padded(rank, 0);
  const size_t offset = rank - shape.size();
  for (size_t i = 0; i < shape.size(); ++i) {
    padded[offset + i] =
        (shape[i] == 1 && out_shape[offset + i] != 1) ? 0 : strides[i];
  }
  return padded;
}

Values RefPermute(const Values& av, const Shape& shape, const Shape& dims) {
  const size_t rank = shape.size();
  Shape out_shape(rank);
  for (size_t i = 0; i < rank; ++i) out_shape[i] = shape[dims[i]];
  const auto in_strides = StridesOf(shape);
  const auto out_strides = StridesOf(out_shape);
  const int64_t n = NumelOf(shape);
  Values out(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    int64_t rem = i;
    int64_t src = 0;
    for (size_t d = 0; d < rank; ++d) {
      const int64_t coord = rem / out_strides[d];
      rem -= coord * out_strides[d];
      src += coord * in_strides[dims[d]];
    }
    out[i] = av[src];
  }
  return out;
}

// Calls fn(i, ia, ib) for every output index of a broadcast of a and b.
void RefBroadcastWalk(
    const Shape& a, const Shape& b, const Shape& out_shape,
    const std::function<void(int64_t, int64_t, int64_t)>& fn) {
  const auto sa = RefBroadcastStrides(a, out_shape);
  const auto sb = RefBroadcastStrides(b, out_shape);
  const auto so = StridesOf(out_shape);
  const int64_t n = NumelOf(out_shape);
  for (int64_t i = 0; i < n; ++i) {
    int64_t rem = i;
    int64_t ia = 0;
    int64_t ib = 0;
    for (size_t d = 0; d < out_shape.size(); ++d) {
      const int64_t coord = rem / so[d];
      rem -= coord * so[d];
      ia += coord * sa[d];
      ib += coord * sb[d];
    }
    fn(i, ia, ib);
  }
}

// Sum over `dims` with keepdim: per output, ascending input order.
Values RefSumDims(const Values& av, const Shape& shape, const Shape& dims) {
  const int64_t rank = static_cast<int64_t>(shape.size());
  std::vector<bool> reduce(shape.size(), false);
  for (int64_t d : dims) reduce[d] = true;
  Shape keep_shape(shape);
  for (size_t i = 0; i < shape.size(); ++i) {
    if (reduce[i]) keep_shape[i] = 1;
  }
  const auto in_strides = StridesOf(shape);
  const auto keep_strides = StridesOf(keep_shape);
  const int64_t out_n = NumelOf(keep_shape);
  Shape red_stride;
  Shape red_extent;
  int64_t red_count = 1;
  for (int64_t d = 0; d < rank; ++d) {
    if (reduce[d]) {
      red_stride.push_back(in_strides[d]);
      red_extent.push_back(shape[d]);
      red_count *= shape[d];
    }
  }
  Values out(static_cast<size_t>(out_n), 0.0f);
  for (int64_t oi = 0; oi < out_n; ++oi) {
    int64_t rem = oi;
    int64_t base = 0;
    for (int64_t d = 0; d < rank; ++d) {
      const int64_t c = rem / keep_strides[d];
      rem -= c * keep_strides[d];
      base += c * in_strides[d];
    }
    Shape coord(red_stride.size(), 0);
    float acc = 0.0f;
    int64_t off = 0;
    for (int64_t r = 0; r < red_count; ++r) {
      acc += av[base + off];
      for (size_t d = red_stride.size(); d-- > 0;) {
        off += red_stride[d];
        if (++coord[d] < red_extent[d]) break;
        off -= red_stride[d] * red_extent[d];
        coord[d] = 0;
      }
    }
    out[oi] = acc;
  }
  return out;
}

// Inverse of broadcasting `target` up to `gshape` (keepdim sums).
Values RefReduceTo(const Values& g, const Shape& gshape, const Shape& target) {
  if (gshape == target) return g;
  const size_t offset = gshape.size() - target.size();
  Shape dims;
  for (size_t i = 0; i < gshape.size(); ++i) {
    if (i < offset || (target[i - offset] == 1 && gshape[i] != 1)) {
      dims.push_back(static_cast<int64_t>(i));
    }
  }
  return dims.empty() ? g : RefSumDims(g, gshape, dims);
}

// -- Helpers ------------------------------------------------------------------

Values RandomValues(int64_t n, Rng& rng, float lo, float hi) {
  Values v(static_cast<size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.Uniform(lo, hi));
  return v;
}

void ExpectBitwiseEqual(const Values& got, const Values& want,
                        const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    uint32_t g = 0;
    uint32_t w = 0;
    std::memcpy(&g, &got[i], 4);
    std::memcpy(&w, &want[i], 4);
    ASSERT_EQ(g, w) << what << " differs at flat index " << i << ": "
                    << got[i] << " vs " << want[i];
  }
}

std::string ShapeString(const Shape& s) {
  std::string out = "(";
  for (size_t i = 0; i < s.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(s[i]);
  }
  return out + ")";
}

// Restores the kernel thread count on scope exit.
class KernelConfigGuard {
 public:
  KernelConfigGuard() : threads_(exec::ThreadCount()) {}
  ~KernelConfigGuard() { exec::SetThreadCount(threads_); }

 private:
  int threads_;
};

// -- StridedLayout ------------------------------------------------------------

TEST(StridedLayout, RunsCoverEveryIndexOnceInOrder) {
  // Offsets must match the div/mod decomposition for every sub-range,
  // including ranges starting and ending mid-row.
  const Shape extents = {3, 1, 5, 4};
  const Shape stride = {1, 7, 12, 3};
  const StridedLayout<1> layout(extents, {stride});
  const int64_t n = NumelOf(extents);
  const auto so = StridesOf(extents);
  for (int64_t lo = 0; lo <= n; ++lo) {
    for (int64_t hi = lo; hi <= n; hi += 7) {
      int64_t next = lo;
      layout.ForEachRun(lo, hi, [&](int64_t i, int64_t len, const auto& off) {
        ASSERT_EQ(i, next);
        ASSERT_GT(len, 0);
        for (int64_t j = 0; j < len; ++j) {
          int64_t rem = i + j;
          int64_t want = 0;
          for (size_t d = 0; d < extents.size(); ++d) {
            want += (rem / so[d]) * stride[d];
            rem %= so[d];
          }
          ASSERT_EQ(off[0] + j * layout.InnerStride(0), want);
        }
        next += len;
      });
      ASSERT_EQ(next, std::max(lo, hi));
    }
  }
}

TEST(StridedLayout, MergesContiguousDimsAndDropsUnitDims) {
  // A bias (1, C, 1, 1) broadcast over (N, C, H, W): H and W merge into one
  // run of H·W elements on which the bias is a repeated scalar.
  const Shape out = {2, 3, 4, 5};
  const StridedLayout<2> layout(
      out, {StridesOf(out), RefBroadcastStrides({1, 3, 1, 1}, out)});
  EXPECT_EQ(layout.InnerStride(0), 1);
  EXPECT_EQ(layout.InnerStride(1), 0);
  int64_t runs = 0;
  layout.ForEachRun(0, layout.Numel(), [&](int64_t, int64_t len, const auto&) {
    EXPECT_EQ(len, 20);
    ++runs;
  });
  EXPECT_EQ(runs, 6);

  const StridedLayout<1> scalar({}, {Shape{}});
  EXPECT_EQ(scalar.Numel(), 1);
  const StridedLayout<1> empty({3, 0, 2}, {Shape{0, 2, 1}});
  EXPECT_EQ(empty.Numel(), 0);
}

// -- Permute ------------------------------------------------------------------

void CheckAllPermutations(const Shape& shape, Rng& rng) {
  Shape dims(shape.size());
  std::iota(dims.begin(), dims.end(), 0);
  const Values av = RandomValues(NumelOf(shape), rng, -1.0f, 1.0f);
  const Tensor a = Tensor::FromVector(shape, av);
  do {
    const Tensor p = Permute(a, dims);
    ExpectBitwiseEqual(p.Data(), RefPermute(av, shape, dims),
                       "permute " + ShapeString(shape) + " by " +
                           ShapeString(dims));
  } while (std::next_permutation(dims.begin(), dims.end()));
}

TEST(StridedParity, PermuteEveryPermutation) {
  KernelConfigGuard guard;
  Rng rng(1);
  const std::vector<Shape> shapes = {
      {},           {7},           {0},          {4, 5},
      {1, 6},       {3, 0},        {2, 3, 4},    {5, 1, 3},
      {2, 3, 4, 5}, {3, 1, 4, 1},  {2, 0, 3, 4}, {3, 37, 11, 17},
      {2, 3, 1, 4, 5}, {3, 5, 7, 11, 13}};
  for (int threads : kThreadCounts) {
    exec::SetThreadCount(threads);
    for (const auto& shape : shapes) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      CheckAllPermutations(shape, rng);
    }
  }
}

TEST(StridedParity, PermuteBackwardIsInversePermute) {
  KernelConfigGuard guard;
  Rng rng(2);
  const Shape shape = {3, 37, 11, 17};
  const Shape dims = {2, 0, 3, 1};
  const Values gv = RandomValues(NumelOf(shape), rng, -1.0f, 1.0f);
  for (int threads : kThreadCounts) {
    exec::SetThreadCount(threads);
    Tensor a = Tensor::Zeros(shape, /*requires_grad=*/true);
    Tensor p = Permute(a, dims);
    const Values seed = RefPermute(gv, shape, dims);
    p.Backward(Tensor::FromVector(p.Shape(), seed));
    ExpectBitwiseEqual(a.Grad(), gv, "permute grad");
  }
}

// -- Broadcasting binary ops --------------------------------------------------

struct BinaryCase {
  const char* name;
  Tensor (*op)(const Tensor&, const Tensor&);
  BinaryFn fwd;
  BinaryFn dx;
  BinaryFn dy;
};

std::vector<BinaryCase> BinaryCases() {
  return {
      {"add", &Add, [](float x, float y) { return x + y; },
       [](float, float) { return 1.0f; }, [](float, float) { return 1.0f; }},
      {"sub", &Sub, [](float x, float y) { return x - y; },
       [](float, float) { return 1.0f; }, [](float, float) { return -1.0f; }},
      {"mul", &Mul, [](float x, float y) { return x * y; },
       [](float, float y) { return y; }, [](float x, float) { return x; }},
      {"div", &Div, [](float x, float y) { return x / y; },
       [](float, float y) { return 1.0f / y; },
       [](float x, float y) { return -x / (y * y); }},
  };
}

void CheckBinary(const BinaryCase& c, const Shape& sa, const Shape& sb,
                 Rng& rng) {
  const std::string what = std::string(c.name) + " " + ShapeString(sa) +
                           " x " + ShapeString(sb);
  const Values av = RandomValues(NumelOf(sa), rng, 0.5f, 2.0f);
  const Values bv = RandomValues(NumelOf(sb), rng, 0.5f, 2.0f);
  const Shape out_shape = BroadcastShapes(sa, sb);
  const Values gv = RandomValues(NumelOf(out_shape), rng, -1.0f, 1.0f);

  Values want(static_cast<size_t>(NumelOf(out_shape)));
  Values ga_full(want.size());
  Values gb_full(want.size());
  RefBroadcastWalk(sa, sb, out_shape, [&](int64_t i, int64_t ia, int64_t ib) {
    const float x = av[ia];
    const float y = bv[ib];
    want[i] = c.fwd(x, y);
    ga_full[i] = gv[i] * c.dx(x, y);
    gb_full[i] = gv[i] * c.dy(x, y);
  });

  Tensor a = Tensor::FromVector(sa, av, /*requires_grad=*/true);
  Tensor b = Tensor::FromVector(sb, bv, /*requires_grad=*/true);
  Tensor out = c.op(a, b);
  ASSERT_EQ(out.Shape(), out_shape) << what;
  ExpectBitwiseEqual(out.Data(), want, what + " forward");
  if (want.empty()) return;  // nothing to backpropagate
  out.Backward(Tensor::FromVector(out_shape, gv));
  ExpectBitwiseEqual(a.Grad(), RefReduceTo(ga_full, out_shape, sa),
                     what + " grad a");
  ExpectBitwiseEqual(b.Grad(), RefReduceTo(gb_full, out_shape, sb),
                     what + " grad b");
}

TEST(StridedParity, BroadcastBinaryForwardAndGradients) {
  KernelConfigGuard guard;
  Rng rng(3);
  const std::vector<std::pair<Shape, Shape>> pairs = {
      {{2, 3}, {3}},
      {{3}, {2, 3}},
      {{2, 3}, {}},
      {{}, {2, 3}},
      {{}, {}},
      {{4, 1, 5}, {1, 3, 1}},
      {{2, 1, 3}, {2, 4, 3}},
      {{3, 1}, {1, 4}},
      {{1, 1}, {1, 1}},
      {{0, 3}, {3}},
      {{2, 0}, {1, 1}},
      {{2, 3, 4}, {2, 3, 4}},
      {{37, 11, 53}, {11, 1}},
      {{5, 1, 67, 61}, {1, 7, 1, 61}},
      {{4, 8, 9, 64}, {1, 8, 1, 1}},
      {{19, 1031}, {19, 1031}},
  };
  for (int threads : kThreadCounts) {
    exec::SetThreadCount(threads);
    SCOPED_TRACE("threads " + std::to_string(threads));
    for (const auto& c : BinaryCases()) {
      for (const auto& [sa, sb] : pairs) CheckBinary(c, sa, sb, rng);
    }
  }
}

// -- Sum over dims ------------------------------------------------------------

void CheckSumSubsets(const Shape& shape, Rng& rng) {
  const int64_t rank = static_cast<int64_t>(shape.size());
  const Values av = RandomValues(NumelOf(shape), rng, -1.0f, 1.0f);
  for (int64_t mask = 1; mask < (int64_t{1} << rank); ++mask) {
    Shape dims;
    Shape keep_shape(shape);
    Shape out_shape;
    for (int64_t d = 0; d < rank; ++d) {
      if (mask & (int64_t{1} << d)) {
        dims.push_back(d);
        keep_shape[d] = 1;
      } else {
        out_shape.push_back(shape[d]);
      }
    }
    const std::string what =
        "sum " + ShapeString(shape) + " over " + ShapeString(dims);
    const Values want = RefSumDims(av, shape, dims);

    Tensor a = Tensor::FromVector(shape, av, /*requires_grad=*/true);
    Tensor kept = Sum(a, dims, /*keepdim=*/true);
    ASSERT_EQ(kept.Shape(), keep_shape) << what;
    ExpectBitwiseEqual(kept.Data(), want, what + " keepdim");
    Tensor squeezed = Sum(a, dims, /*keepdim=*/false);
    ASSERT_EQ(squeezed.Shape(), out_shape) << what;
    ExpectBitwiseEqual(squeezed.Data(), want, what);

    // Backward broadcasts the output gradient back over the reduced dims.
    if (want.empty()) continue;
    const Values gv = RandomValues(NumelOf(keep_shape), rng, -1.0f, 1.0f);
    kept.Backward(Tensor::FromVector(keep_shape, gv));
    Values ga(static_cast<size_t>(NumelOf(shape)));
    RefBroadcastWalk(shape, keep_shape, shape,
                     [&](int64_t i, int64_t, int64_t ig) { ga[i] = gv[ig]; });
    if (NumelOf(shape) > 0) ExpectBitwiseEqual(a.Grad(), ga, what + " grad");
  }
}

TEST(StridedParity, SumEveryDimSubset) {
  KernelConfigGuard guard;
  Rng rng(4);
  const std::vector<Shape> shapes = {
      {5},          {1},          {0},           {3, 4},
      {1, 7},       {4, 0},       {2, 3, 4},     {3, 1, 5},
      {2, 3, 4, 5}, {3, 1, 4, 1}, {2, 0, 3, 1},  {7, 37, 5, 19},
      {64, 3, 129}, {3, 5, 7, 11, 13}};
  for (int threads : kThreadCounts) {
    exec::SetThreadCount(threads);
    SCOPED_TRACE("threads " + std::to_string(threads));
    for (const auto& shape : shapes) CheckSumSubsets(shape, rng);
  }
}

// -- BroadcastTo --------------------------------------------------------------

TEST(StridedParity, BroadcastToForwardAndBackward) {
  KernelConfigGuard guard;
  Rng rng(5);
  const std::vector<std::pair<Shape, Shape>> pairs = {
      {{3}, {2, 3}},        {{}, {4, 2}},          {{2, 1}, {2, 5}},
      {{1, 3, 1}, {4, 3, 5}}, {{1}, {0, 3}},        {{3, 1}, {3, 0}},
      {{1, 11, 1}, {37, 11, 53}}, {{1, 7, 1, 61}, {5, 7, 67, 61}}};
  for (int threads : kThreadCounts) {
    exec::SetThreadCount(threads);
    SCOPED_TRACE("threads " + std::to_string(threads));
    for (const auto& [from, to] : pairs) {
      const std::string what =
          "broadcast_to " + ShapeString(from) + " -> " + ShapeString(to);
      const Values av = RandomValues(NumelOf(from), rng, -1.0f, 1.0f);
      const Values gv = RandomValues(NumelOf(to), rng, -1.0f, 1.0f);
      // The op it replaced: a * 1 through the broadcasting multiply.
      Values want(static_cast<size_t>(NumelOf(to)));
      Values g_full(want.size());
      RefBroadcastWalk(from, to, to, [&](int64_t i, int64_t ia, int64_t) {
        want[i] = av[ia] * 1.0f;
        g_full[i] = gv[i] * 1.0f;
      });
      Tensor a = Tensor::FromVector(from, av, /*requires_grad=*/true);
      Tensor b = BroadcastTo(a, to);
      ASSERT_EQ(b.Shape(), to) << what;
      ExpectBitwiseEqual(b.Data(), want, what);
      if (want.empty()) continue;
      b.Backward(Tensor::FromVector(to, gv));
      ExpectBitwiseEqual(a.Grad(), RefReduceTo(g_full, to, from),
                         what + " grad");
    }
  }
}

TEST(StridedParity, BroadcastToRejectsIncompatibleTarget) {
  Tensor a = Tensor::Zeros({2, 3});
  EXPECT_DEATH(BroadcastTo(a, {3}), "BroadcastTo");
}

}  // namespace
}  // namespace sthsl
