#ifndef STHSL_TENSOR_STRIDED_H_
#define STHSL_TENSOR_STRIDED_H_

// Strided-run iteration for the layout kernels (Permute, the broadcasting
// binary ops, BroadcastTo, Sum over dims).
//
// A StridedLayout<N> lays N operands over one row-major index space: the
// space's extents plus, per operand, one element stride per dim (0 for a
// broadcast dim). Construction drops size-1 dims and merges adjacent dims
// that every operand walks contiguously, so a bias broadcast over
// (N, C, H, W) becomes a rank-3 walk with H·W-long runs and a same-shape
// elementwise op becomes a single rank-1 run.
//
// ForEachRun visits a flat range [lo, hi) of the space. It decomposes `lo`
// into coordinates once — the only divisions — then advances an odometer
// and hands the kernel maximal runs along the innermost dim: the flat index
// of the run's first element, the run length, and each operand's element
// offset at that position. Within a run operand k advances by
// InnerStride(k) per element. A range that starts mid-row (an exec chunk
// boundary) yields a partial first run; every index in [lo, hi) is visited
// exactly once, in ascending order.

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.h"

namespace sthsl {

/// Rank cap after size-1 dims are dropped and contiguous dims merged.
inline constexpr size_t kMaxStridedRank = 16;

template <size_t N>
class StridedLayout {
 public:
  using Offsets = std::array<int64_t, N>;

  /// `strides[k]` holds operand k's element stride per dim of `extents`.
  StridedLayout(const std::vector<int64_t>& extents,
                const std::array<std::vector<int64_t>, N>& strides) {
    for (size_t d = 0; d < extents.size(); ++d) {
      numel_ *= extents[d];
      if (extents[d] == 1) continue;
      bool merge = rank_ > 0;
      for (size_t k = 0; k < N && merge; ++k) {
        merge = strides_[k][rank_ - 1] == strides[k][d] * extents[d];
      }
      if (merge) {
        extents_[rank_ - 1] *= extents[d];
        for (size_t k = 0; k < N; ++k) strides_[k][rank_ - 1] = strides[k][d];
        continue;
      }
      STHSL_CHECK_LT(rank_, kMaxStridedRank) << "StridedLayout rank cap";
      extents_[rank_] = extents[d];
      for (size_t k = 0; k < N; ++k) strides_[k][rank_] = strides[k][d];
      ++rank_;
    }
    if (rank_ == 0) {
      // Scalar space (or every dim of size 1): one run of one element.
      extents_[0] = 1;
      for (size_t k = 0; k < N; ++k) strides_[k][0] = 0;
      rank_ = 1;
    }
  }

  int64_t Numel() const { return numel_; }

  /// Per-element step of operand k inside a run.
  int64_t InnerStride(size_t k) const { return strides_[k][rank_ - 1]; }

  /// Calls fn(flat_index, run_length, offsets) for consecutive runs
  /// covering [lo, hi).
  template <typename Fn>
  void ForEachRun(int64_t lo, int64_t hi, Fn&& fn) const {
    if (lo >= hi) return;
    const size_t inner = rank_ - 1;
    std::array<int64_t, kMaxStridedRank> coord{};
    Offsets off{};
    int64_t rem = lo;
    for (size_t d = rank_; d-- > 0 && rem != 0;) {
      coord[d] = rem % extents_[d];
      rem /= extents_[d];
      for (size_t k = 0; k < N; ++k) off[k] += coord[d] * strides_[k][d];
    }
    int64_t i = lo;
    while (true) {
      const int64_t len = std::min(extents_[inner] - coord[inner], hi - i);
      fn(i, len, static_cast<const Offsets&>(off));
      i += len;
      if (i >= hi) return;
      // The run ended at the end of its row: rewind the inner dim and carry.
      for (size_t k = 0; k < N; ++k) {
        off[k] -= coord[inner] * strides_[k][inner];
      }
      coord[inner] = 0;
      for (size_t d = inner; d-- > 0;) {
        for (size_t k = 0; k < N; ++k) off[k] += strides_[k][d];
        if (++coord[d] < extents_[d]) break;
        for (size_t k = 0; k < N; ++k) off[k] -= strides_[k][d] * extents_[d];
        coord[d] = 0;
      }
    }
  }

 private:
  size_t rank_ = 0;
  int64_t numel_ = 1;
  std::array<int64_t, kMaxStridedRank> extents_{};
  std::array<std::array<int64_t, kMaxStridedRank>, N> strides_{};
};

/// dst[j] = src[j * stride] for j in [0, len): a copy, fill or gather.
inline void CopyStridedRun(const float* src, int64_t stride, int64_t len,
                           float* dst) {
  if (stride == 1) {
    std::copy(src, src + len, dst);
  } else if (stride == 0) {
    std::fill(dst, dst + len, *src);
  } else {
    for (int64_t j = 0; j < len; ++j) dst[j] = src[j * stride];
  }
}

/// Calls body(j, x, y) for j in [0, len) with x = pa[j * sa] and
/// y = pb[j * sb], specialized for the stride pairs broadcasting produces
/// (both contiguous, or one side a repeated scalar).
template <typename Body>
inline void ForEachStridedPair(const float* pa, int64_t sa, const float* pb,
                               int64_t sb, int64_t len, Body&& body) {
  if (sa == 1 && sb == 1) {
    for (int64_t j = 0; j < len; ++j) body(j, pa[j], pb[j]);
  } else if (sb == 0) {
    const float y = *pb;
    for (int64_t j = 0; j < len; ++j) body(j, pa[j * sa], y);
  } else if (sa == 0) {
    const float x = *pa;
    for (int64_t j = 0; j < len; ++j) body(j, x, pb[j * sb]);
  } else {
    for (int64_t j = 0; j < len; ++j) body(j, pa[j * sa], pb[j * sb]);
  }
}

}  // namespace sthsl

#endif  // STHSL_TENSOR_STRIDED_H_
