// AVX2+FMA microkernels. Compiled with -mavx2 -mfma -ffp-contract=off (see
// src/CMakeLists.txt); only ever executed after the dispatcher has confirmed
// the CPU supports both features.
//
// Bitwise equivalence with portable.cc rests on three facts: vfmadd performs
// the same single-rounding fma as std::fma; vector +,-,*,/,sqrt and the
// max/compare/blend selects are IEEE-754 lane operations identical to their
// scalar forms; and the horizontal folds below execute exactly the canonical
// 8-lane tree from the simd.h contract. Scalar tails use std::fma so the
// remainder elements see the same chain as in the portable kernels.

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <cmath>
#include <limits>

#include "simd/variants.h"

namespace sthsl::simd {
namespace {

// Full 6x16 register tile: 12 ymm accumulators, two B loads shared across
// all six rows per k step. Each element's chain is the same ascending-p fma
// sequence the portable kernel runs.
void GemmTile6x16(const float* a_panel, const float* b_panel, float* c,
                  int64_t ldc, int64_t kc) {
  __m256 acc[6][2];
  for (int i = 0; i < 6; ++i) {
    acc[i][0] = _mm256_loadu_ps(c + i * ldc);
    acc[i][1] = _mm256_loadu_ps(c + i * ldc + 8);
  }
  for (int64_t p = 0; p < kc; ++p) {
    const __m256 b0 = _mm256_loadu_ps(b_panel + p * kGemmTileCols);
    const __m256 b1 = _mm256_loadu_ps(b_panel + p * kGemmTileCols + 8);
    for (int i = 0; i < 6; ++i) {
      const __m256 a = _mm256_broadcast_ss(a_panel + i * kc + p);
      acc[i][0] = _mm256_fmadd_ps(a, b0, acc[i][0]);
      acc[i][1] = _mm256_fmadd_ps(a, b1, acc[i][1]);
    }
  }
  for (int i = 0; i < 6; ++i) {
    _mm256_storeu_ps(c + i * ldc, acc[i][0]);
    _mm256_storeu_ps(c + i * ldc + 8, acc[i][1]);
  }
}

void GemmTileAvx2(const float* a_panel, const float* b_panel, float* c,
                  int64_t ldc, int64_t mr, int64_t nr, int64_t kc) {
  if (mr == kGemmTileRows && nr == kGemmTileCols) {
    GemmTile6x16(a_panel, b_panel, c, ldc, kc);
    return;
  }
  // Edge tiles: vectorize full 8-wide column groups per row, finish the
  // column remainder with scalar fma.
  const int64_t nr8 = nr & ~int64_t{7};
  for (int64_t i = 0; i < mr; ++i) {
    const float* arow = a_panel + i * kc;
    float* crow = c + i * ldc;
    for (int64_t j = 0; j < nr8; j += 8) {
      __m256 acc = _mm256_loadu_ps(crow + j);
      for (int64_t p = 0; p < kc; ++p) {
        const __m256 a = _mm256_broadcast_ss(arow + p);
        const __m256 b = _mm256_loadu_ps(b_panel + p * kGemmTileCols + j);
        acc = _mm256_fmadd_ps(a, b, acc);
      }
      _mm256_storeu_ps(crow + j, acc);
    }
    for (int64_t j = nr8; j < nr; ++j) {
      float acc = crow[j];
      for (int64_t p = 0; p < kc; ++p) {
        acc = std::fma(arow[p], b_panel[p * kGemmTileCols + j], acc);
      }
      crow[j] = acc;
    }
  }
}

// Four independent 8-lane accumulators per pass hide the fma latency; each
// tap is one broadcast weight and one unaligned load per accumulator. The
// scalar tail runs the same ascending-tap fma chain per element.
void AxpyTapsAvx2(int64_t n, int64_t taps, const float* w,
                  const float* const* x, float* y) {
  const int64_t n32 = n & ~int64_t{31};
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t i = 0; i < n32; i += 32) {
    __m256 a0 = _mm256_loadu_ps(y + i);
    __m256 a1 = _mm256_loadu_ps(y + i + 8);
    __m256 a2 = _mm256_loadu_ps(y + i + 16);
    __m256 a3 = _mm256_loadu_ps(y + i + 24);
    for (int64_t t = 0; t < taps; ++t) {
      const __m256 wv = _mm256_broadcast_ss(w + t);
      const float* xt = x[t] + i;
      a0 = _mm256_fmadd_ps(wv, _mm256_loadu_ps(xt), a0);
      a1 = _mm256_fmadd_ps(wv, _mm256_loadu_ps(xt + 8), a1);
      a2 = _mm256_fmadd_ps(wv, _mm256_loadu_ps(xt + 16), a2);
      a3 = _mm256_fmadd_ps(wv, _mm256_loadu_ps(xt + 24), a3);
    }
    _mm256_storeu_ps(y + i, a0);
    _mm256_storeu_ps(y + i + 8, a1);
    _mm256_storeu_ps(y + i + 16, a2);
    _mm256_storeu_ps(y + i + 24, a3);
  }
  for (int64_t i = n32; i < n8; i += 8) {
    __m256 acc = _mm256_loadu_ps(y + i);
    for (int64_t t = 0; t < taps; ++t) {
      acc = _mm256_fmadd_ps(_mm256_broadcast_ss(w + t),
                            _mm256_loadu_ps(x[t] + i), acc);
    }
    _mm256_storeu_ps(y + i, acc);
  }
  for (int64_t i = n8; i < n; ++i) {
    float acc = y[i];
    for (int64_t t = 0; t < taps; ++t) acc = std::fma(w[t], x[t][i], acc);
    y[i] = acc;
  }
}

// Canonical lane fold: b = lo + hi, c = [b0+b2, b1+b3], result = c0 + c1.
inline float FoldAdd(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  const __m128 b = _mm_add_ps(lo, hi);
  const __m128 c = _mm_add_ps(b, _mm_movehl_ps(b, b));
  const __m128 s = _mm_add_ss(c, _mm_shuffle_ps(c, c, 0x1));
  return _mm_cvtss_f32(s);
}

float DotAvx2(int64_t n, const float* x, const float* y) {
  __m256 acc = _mm256_setzero_ps();
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t i = 0; i < n8; i += 8) {
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i),
                          acc);
  }
  float tail = 0.0f;
  for (int64_t i = n8; i < n; ++i) tail = std::fma(x[i], y[i], tail);
  return FoldAdd(acc) + tail;
}

float ReduceSumAvx2(int64_t n, const float* x) {
  __m256 acc = _mm256_setzero_ps();
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t i = 0; i < n8; i += 8) {
    acc = _mm256_add_ps(acc, _mm256_loadu_ps(x + i));
  }
  float tail = 0.0f;
  for (int64_t i = n8; i < n; ++i) tail += x[i];
  return FoldAdd(acc) + tail;
}

inline float MaxSelect(float a, float b) { return a > b ? a : b; }

float ReduceMaxAvx2(int64_t n, const float* x) {
  const float ninf = -std::numeric_limits<float>::infinity();
  // vmaxps(a, b) is exactly the select (a > b) ? a : b per lane.
  __m256 acc = _mm256_set1_ps(ninf);
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t i = 0; i < n8; i += 8) {
    acc = _mm256_max_ps(acc, _mm256_loadu_ps(x + i));
  }
  float tail = ninf;
  for (int64_t i = n8; i < n; ++i) tail = MaxSelect(tail, x[i]);
  const __m128 lo = _mm256_castps256_ps128(acc);
  const __m128 hi = _mm256_extractf128_ps(acc, 1);
  const __m128 b = _mm_max_ps(lo, hi);
  const __m128 c = _mm_max_ps(b, _mm_movehl_ps(b, b));
  const __m128 s = _mm_max_ss(c, _mm_shuffle_ps(c, c, 0x1));
  return MaxSelect(_mm_cvtss_f32(s), tail);
}

void AddAvx2(int64_t n, const float* x, const float* y, float* out) {
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t i = 0; i < n8; i += 8) {
    _mm256_storeu_ps(
        out + i, _mm256_add_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i)));
  }
  for (int64_t i = n8; i < n; ++i) out[i] = x[i] + y[i];
}

void SubAvx2(int64_t n, const float* x, const float* y, float* out) {
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t i = 0; i < n8; i += 8) {
    _mm256_storeu_ps(
        out + i, _mm256_sub_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i)));
  }
  for (int64_t i = n8; i < n; ++i) out[i] = x[i] - y[i];
}

void MulAvx2(int64_t n, const float* x, const float* y, float* out) {
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t i = 0; i < n8; i += 8) {
    _mm256_storeu_ps(
        out + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i)));
  }
  for (int64_t i = n8; i < n; ++i) out[i] = x[i] * y[i];
}

void DivAvx2(int64_t n, const float* x, const float* y, float* out) {
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t i = 0; i < n8; i += 8) {
    _mm256_storeu_ps(
        out + i, _mm256_div_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i)));
  }
  for (int64_t i = n8; i < n; ++i) out[i] = x[i] / y[i];
}

void AddScalarAvx2(int64_t n, const float* x, float s, float* out) {
  const __m256 sv = _mm256_set1_ps(s);
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t i = 0; i < n8; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_add_ps(_mm256_loadu_ps(x + i), sv));
  }
  for (int64_t i = n8; i < n; ++i) out[i] = x[i] + s;
}

void MulScalarAvx2(int64_t n, const float* x, float s, float* out) {
  const __m256 sv = _mm256_set1_ps(s);
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t i = 0; i < n8; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), sv));
  }
  for (int64_t i = n8; i < n; ++i) out[i] = x[i] * s;
}

void DivScalarAvx2(int64_t n, const float* x, float s, float* out) {
  const __m256 sv = _mm256_set1_ps(s);
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t i = 0; i < n8; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_div_ps(_mm256_loadu_ps(x + i), sv));
  }
  for (int64_t i = n8; i < n; ++i) out[i] = x[i] / s;
}

void ReluAvx2(int64_t n, const float* x, float* out) {
  // vmaxps(x, 0) == (x > 0) ? x : 0, including -0 -> +0 and NaN -> 0.
  const __m256 zero = _mm256_setzero_ps();
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t i = 0; i < n8; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_max_ps(_mm256_loadu_ps(x + i), zero));
  }
  for (int64_t i = n8; i < n; ++i) out[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void LeakyReluAvx2(int64_t n, const float* x, float slope, float* out) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 sv = _mm256_set1_ps(slope);
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t i = 0; i < n8; i += 8) {
    const __m256 xv = _mm256_loadu_ps(x + i);
    const __m256 neg = _mm256_mul_ps(sv, xv);
    const __m256 gt = _mm256_cmp_ps(xv, zero, _CMP_GT_OQ);
    _mm256_storeu_ps(out + i, _mm256_blendv_ps(neg, xv, gt));
  }
  for (int64_t i = n8; i < n; ++i) {
    out[i] = x[i] > 0.0f ? x[i] : slope * x[i];
  }
}

void ClampMinAvx2(int64_t n, const float* x, float floor, float* out) {
  const __m256 fv = _mm256_set1_ps(floor);
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t i = 0; i < n8; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_max_ps(_mm256_loadu_ps(x + i), fv));
  }
  for (int64_t i = n8; i < n; ++i) out[i] = x[i] > floor ? x[i] : floor;
}

void SgdStepAvx2(int64_t n, float* x, const float* g, float lr, float wd) {
  const __m256 wdv = _mm256_set1_ps(wd);
  const __m256 nlr = _mm256_set1_ps(-lr);
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t i = 0; i < n8; i += 8) {
    const __m256 xv = _mm256_loadu_ps(x + i);
    const __m256 grad = _mm256_fmadd_ps(wdv, xv, _mm256_loadu_ps(g + i));
    _mm256_storeu_ps(x + i, _mm256_fmadd_ps(nlr, grad, xv));
  }
  for (int64_t i = n8; i < n; ++i) {
    const float grad = std::fma(wd, x[i], g[i]);
    x[i] = std::fma(-lr, grad, x[i]);
  }
}

void SgdMomentumStepAvx2(int64_t n, float* x, float* v, const float* g,
                         float lr, float momentum, float wd) {
  const __m256 wdv = _mm256_set1_ps(wd);
  const __m256 mo = _mm256_set1_ps(momentum);
  const __m256 nlr = _mm256_set1_ps(-lr);
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t i = 0; i < n8; i += 8) {
    const __m256 xv = _mm256_loadu_ps(x + i);
    const __m256 grad = _mm256_fmadd_ps(wdv, xv, _mm256_loadu_ps(g + i));
    const __m256 vv = _mm256_fmadd_ps(mo, _mm256_loadu_ps(v + i), grad);
    _mm256_storeu_ps(v + i, vv);
    _mm256_storeu_ps(x + i, _mm256_fmadd_ps(nlr, vv, xv));
  }
  for (int64_t i = n8; i < n; ++i) {
    const float grad = std::fma(wd, x[i], g[i]);
    v[i] = std::fma(momentum, v[i], grad);
    x[i] = std::fma(-lr, v[i], x[i]);
  }
}

void AdamStepAvx2(int64_t n, float* x, float* m, float* v, const float* g,
                  float lr, float beta1, float beta2, float eps, float wd,
                  float bc1, float bc2) {
  const float om1 = 1.0f - beta1;
  const float om2 = 1.0f - beta2;
  const __m256 wdv = _mm256_set1_ps(wd);
  const __m256 b1v = _mm256_set1_ps(beta1);
  const __m256 b2v = _mm256_set1_ps(beta2);
  const __m256 om1v = _mm256_set1_ps(om1);
  const __m256 om2v = _mm256_set1_ps(om2);
  const __m256 bc1v = _mm256_set1_ps(bc1);
  const __m256 bc2v = _mm256_set1_ps(bc2);
  const __m256 lrv = _mm256_set1_ps(lr);
  const __m256 epsv = _mm256_set1_ps(eps);
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t i = 0; i < n8; i += 8) {
    const __m256 xv = _mm256_loadu_ps(x + i);
    const __m256 grad = _mm256_fmadd_ps(wdv, xv, _mm256_loadu_ps(g + i));
    const __m256 mv =
        _mm256_fmadd_ps(b1v, _mm256_loadu_ps(m + i), _mm256_mul_ps(om1v, grad));
    const __m256 vv =
        _mm256_fmadd_ps(b2v, _mm256_loadu_ps(v + i),
                        _mm256_mul_ps(om2v, _mm256_mul_ps(grad, grad)));
    _mm256_storeu_ps(m + i, mv);
    _mm256_storeu_ps(v + i, vv);
    const __m256 m_hat = _mm256_div_ps(mv, bc1v);
    const __m256 v_hat = _mm256_div_ps(vv, bc2v);
    const __m256 denom = _mm256_add_ps(_mm256_sqrt_ps(v_hat), epsv);
    const __m256 step = _mm256_div_ps(_mm256_mul_ps(lrv, m_hat), denom);
    _mm256_storeu_ps(x + i, _mm256_sub_ps(xv, step));
  }
  for (int64_t i = n8; i < n; ++i) {
    const float grad = std::fma(wd, x[i], g[i]);
    m[i] = std::fma(beta1, m[i], om1 * grad);
    v[i] = std::fma(beta2, v[i], om2 * (grad * grad));
    const float m_hat = m[i] / bc1;
    const float v_hat = v[i] / bc2;
    x[i] = x[i] - (lr * m_hat) / (std::sqrt(v_hat) + eps);
  }
}

}  // namespace

const MicrokernelSet* Avx2KernelsOrNull() {
  static const MicrokernelSet set = {
      "avx2",
      GemmTileAvx2,
      AxpyTapsAvx2,
      DotAvx2,
      ReduceSumAvx2,
      ReduceMaxAvx2,
      AddAvx2,
      SubAvx2,
      MulAvx2,
      DivAvx2,
      AddScalarAvx2,
      MulScalarAvx2,
      DivScalarAvx2,
      ReluAvx2,
      LeakyReluAvx2,
      ClampMinAvx2,
      SgdStepAvx2,
      SgdMomentumStepAvx2,
      AdamStepAvx2,
  };
  return &set;
}

}  // namespace sthsl::simd

#else  // !x86-64

#include "simd/variants.h"

namespace sthsl::simd {
const MicrokernelSet* Avx2KernelsOrNull() { return nullptr; }
}  // namespace sthsl::simd

#endif
