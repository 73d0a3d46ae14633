// Direct (stride-1) 1-D and 2-D convolution kernels with autograd.
//
// Forward and input gradient: both are one correlation pass, TapCorrelate.
// Each chunk of samples is copied, a tile at a time, into a channel-major,
// zero-padded, wide layout (planes of (rows + kh - 1) x (cols + kw - 1)).
// In that layout every tap (dy, dx) of the kernel is one constant shift of
// the padded source, so a single simd axpy_taps call applies all taps of
// one destination channel to the whole tile, in the tap order the direct
// loop used: (ci, dy, dx) for the forward, (co, dy, dx) for the input
// gradient. Each output element therefore sees exactly the fma chain the
// direct per-row loop gave it; the padding adds the taps that loop skipped.
//
// Padding and bitwise identity: a padded tap must leave the accumulator
// bitwise unchanged, so it has to add an exact -0 (acc + -0 == acc for
// every acc, including +0 and -0; acc + +0 turns -0 into +0). The product
// w * pad is -0 when pad is -0 and signbit(w) is 0, or pad is +0 and
// signbit(w) is 1, so each tap reads from a copy padded with -0.0 or +0.0
// by the sign of its weight. This holds for finite weights: an infinite or
// NaN weight turns its padded taps into NaN where the direct loop skipped
// them (the in-range outputs are non-finite either way).
//
// Scratch: the padded copies and the output strip are allocated per chunk,
// on the thread that runs it, and sized by tiling over samples, so each
// buffer stays within kTileFloats (8 KB) whenever one sample fits; a single
// sample larger than that gets a one-sample tile. They are freed with the
// chunk rather than leased from the exec scratch arena: retained leases
// measured about 0.5 MB more peak RSS on the serving benchmark.
//
// Execution: forward and the input-gradient pass parallelize over the batch
// dimension (each sample's planes are owned by exactly one chunk, and the
// per-element fma chain does not depend on the tiling, so any thread count
// reproduces the serial result bitwise). The weight- and bias-gradient
// passes reduce over the batch: they accumulate per-chunk partials — with
// chunk boundaries that depend only on the batch size, not the thread count
// — into a reusable scratch buffer leased from the exec layer, then combine
// the partials in ascending chunk order. The weight gradient is a canonical
// dot per output row (summed in ascending row order) and the bias gradient
// a canonical reduce_sum; that order is part of the checkpoint contract.
// Every kernel is bitwise-identical across ISA variants per the simd.h
// contract.

#include <algorithm>
#include <cmath>
#include <cstring>

#include "exec/exec.h"
#include "simd/simd.h"
#include "tensor/debug_validator.h"
#include "tensor/ops.h"
#include "util/check.h"

namespace sthsl {
namespace {

bool NeedsGrad(const Tensor& t) {
  return t.Defined() && (t.RequiresGrad() || t.GradFn() != nullptr);
}

// Target multiply-add count per parallel chunk (see docs/performance.md).
constexpr int64_t kConvGrainFlops = int64_t{1} << 17;

// Upper bound, in floats, of each scratch buffer of a TapCorrelate tile:
// 8 KB, so a tile's buffers stay in L1.
constexpr int64_t kTileFloats = 2048;

int64_t BatchGrain(int64_t flops_per_sample) {
  if (flops_per_sample < 1) flops_per_sample = 1;
  return std::max<int64_t>(1, kConvGrainFlops / flops_per_sample);
}

// One stride-1 correlation: for every sample s, destination channel cd and
// position (r, c) of the dst_h x dst_w destination plane,
//   dst[s][cd][r][c] = init[cd] (or +0), then for each tap t of cd in order
//   acc = fma(weight[t], padded_src[s][src[t]][r + ty][c + tx], acc)
// with shift[t] = ty * wd + tx, where the padded source plane is
// (dst_h + kh - 1) x (wd = dst_w + kw - 1), places source row 0 at row
// lead_h and column 0 at column lead_w (a negative lead crops) and reads
// zeros elsewhere.
struct TapPlan {
  int64_t src_channels = 0;
  int64_t src_h = 0;
  int64_t src_w = 0;
  int64_t dst_channels = 0;
  int64_t dst_h = 0;
  int64_t dst_w = 0;
  int64_t kh = 0;
  int64_t kw = 0;
  int64_t lead_h = 0;
  int64_t lead_w = 0;
  int64_t taps = 0;  // per destination channel
  // Per destination channel, `taps` entries in accumulation order.
  std::vector<int64_t> src;
  std::vector<int64_t> shift;
  std::vector<float> weight;
};

// Copies n >= kWidth floats in fixed-size kWidth-float blocks, which the
// compiler inlines; the last block overlaps its predecessor.
template <int64_t kWidth>
void CopyBlocks(const float* from, int64_t n, float* to) {
  constexpr size_t kBytes = kWidth * sizeof(float);
  for (int64_t i = 0; i + kWidth < n; i += kWidth) {
    std::memcpy(to + i, from + i, kBytes);
  }
  std::memcpy(to + n - kWidth, from + n - kWidth, kBytes);
}

// Copies a short row: the planes here are 8-16 floats wide (the ST-HSL
// grids), where a libc memcpy call per row would cost more than the copy.
void CopyRow(const float* from, int64_t n, float* to) {
  if (n >= 8) {
    CopyBlocks<8>(from, n, to);
  } else if (n >= 4) {
    CopyBlocks<4>(from, n, to);
  } else {
    for (int64_t i = 0; i < n; ++i) to[i] = from[i];
  }
}

// Fills n floats with v, 8-float blocks at a time (a plain fill loop stays
// scalar at -O2).
void FillRow(float* to, int64_t n, float v) {
  float block[8];
  std::fill(block, block + 8, v);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) std::memcpy(to + i, block, sizeof block);
  for (; i < n; ++i) to[i] = v;
}

// Writes samples [t0, t0 + ns) of `src` into `buf` in the padded,
// channel-major tile layout: channel c of tile sample s is the hd x wd plane
// at c * chan_stride + s * hd * wd, with source row sr on row sr + lead_h
// and source column sc on column sc + lead_w. Every other cell holds `pad`.
void PadTile(const TapPlan& plan, const float* src, int64_t t0, int64_t ns,
             int64_t hd, int64_t wd, int64_t chan_stride, float pad,
             float* buf) {
  const int64_t c_lo = std::clamp<int64_t>(plan.lead_w, 0, wd);
  const int64_t c_hi = std::clamp<int64_t>(plan.src_w + plan.lead_w, c_lo, wd);
  const int64_t r_lo = std::clamp<int64_t>(plan.lead_h, 0, hd);
  const int64_t r_hi = std::clamp<int64_t>(plan.src_h + plan.lead_h, r_lo, hd);
  const int64_t src_plane = plan.src_h * plan.src_w;
  for (int64_t c = 0; c < plan.src_channels; ++c) {
    for (int64_t s = 0; s < ns; ++s) {
      const float* from = src + ((t0 + s) * plan.src_channels + c) * src_plane +
                          (r_lo - plan.lead_h) * plan.src_w +
                          (c_lo - plan.lead_w);
      float* to = buf + c * chan_stride + s * hd * wd;
      FillRow(to, r_lo * wd, pad);
      for (int64_t r = r_lo; r < r_hi; ++r) {
        float* row = to + r * wd;
        for (int64_t i = 0; i < c_lo; ++i) row[i] = pad;
        CopyRow(from, c_hi - c_lo, row + c_lo);
        for (int64_t i = c_hi; i < wd; ++i) row[i] = pad;
        from += plan.src_w;
      }
      FillRow(to + r_hi * wd, (hd - r_hi) * wd, pad);
    }
  }
}

void TapCorrelate(const TapPlan& plan, const float* src, const float* init,
                  float* dst, int64_t batch, int64_t sample_flops,
                  const char* tag) {
  const int64_t hd = plan.dst_h + plan.kh - 1;
  const int64_t wd = plan.dst_w + plan.kw - 1;
  const int64_t plane = hd * wd;
  const int64_t dst_plane = plan.dst_h * plan.dst_w;
  const int64_t max_tile =
      std::max<int64_t>(1, kTileFloats / (plan.src_channels * plane));
  bool need_neg_pad = false;  // some weight has signbit 0
  bool need_pos_pad = false;  // some weight has signbit 1
  for (float w : plan.weight) {
    (std::signbit(w) ? need_pos_pad : need_neg_pad) = true;
  }
  exec::ParallelFor(
      0, batch, BatchGrain(sample_flops),
      [&](int64_t s0, int64_t s1) {
        const auto& ks = simd::Kernels();
        const int64_t tile = std::min(max_tile, s1 - s0);
        const int64_t chan_stride = tile * plane;
        const int64_t padded_size = plan.src_channels * chan_stride;
        std::vector<float> scratch(static_cast<size_t>(
            (need_neg_pad ? padded_size : 0) +
            (need_pos_pad ? padded_size : 0) + chan_stride));
        float* strip = scratch.data();
        float* neg = strip + chan_stride;
        float* pos = need_neg_pad ? neg + padded_size : neg;
        // Tap pointers are fixed for the chunk: the tile layout never moves.
        const int64_t ntaps = plan.dst_channels * plan.taps;
        std::vector<const float*> tap_ptr(static_cast<size_t>(ntaps));
        for (int64_t t = 0; t < ntaps; ++t) {
          const auto i = static_cast<size_t>(t);
          const float* base = std::signbit(plan.weight[i]) ? pos : neg;
          tap_ptr[i] = base + plan.src[i] * chan_stride + plan.shift[i];
        }
        for (int64_t t0 = s0; t0 < s1; t0 += tile) {
          const int64_t ns = std::min(tile, s1 - t0);
          if (need_neg_pad) {
            PadTile(plan, src, t0, ns, hd, wd, chan_stride, -0.0f, neg);
          }
          if (need_pos_pad) {
            PadTile(plan, src, t0, ns, hd, wd, chan_stride, 0.0f, pos);
          }
          // Wide strip: output (s, r, c) sits at s*plane + r*wd + c; the
          // columns past dst_w and the rows past dst_h are computed and
          // dropped. The strip ends at the last real output element, which
          // keeps every tap read inside its channel's tile block.
          const int64_t len =
              (ns - 1) * plane + (plan.dst_h - 1) * wd + plan.dst_w;
          for (int64_t cd = 0; cd < plan.dst_channels; ++cd) {
            FillRow(strip, len, init != nullptr ? init[cd] : 0.0f);
            const auto first = static_cast<size_t>(cd * plan.taps);
            ks.axpy_taps(len, plan.taps, plan.weight.data() + first,
                         tap_ptr.data() + first, strip);
            for (int64_t s = 0; s < ns; ++s) {
              float* to = dst + ((t0 + s) * plan.dst_channels + cd) * dst_plane;
              for (int64_t r = 0; r < plan.dst_h; ++r) {
                CopyRow(strip + s * plane + r * wd, plan.dst_w,
                        to + r * plan.dst_w);
              }
            }
          }
        }
      },
      tag);
}

// Forward plan: destination channel co takes taps (ci, dy, dx) ascending
// at shift (dy, dx) of the input padded by (pad_h, pad_w).
TapPlan ForwardPlan(const float* w, int64_t cin, int64_t height,
                    int64_t width, int64_t cout, int64_t kh, int64_t kw,
                    int64_t out_h, int64_t out_w, int64_t pad_h,
                    int64_t pad_w) {
  TapPlan plan{cin, height, width, cout, out_h, out_w, kh, kw,
               pad_h, pad_w, cin * kh * kw, {}, {}, {}};
  const int64_t wd = out_w + kw - 1;
  for (int64_t co = 0; co < cout; ++co) {
    for (int64_t ci = 0; ci < cin; ++ci) {
      for (int64_t dy = 0; dy < kh; ++dy) {
        for (int64_t dx = 0; dx < kw; ++dx) {
          plan.src.push_back(ci);
          plan.shift.push_back(dy * wd + dx);
          plan.weight.push_back(w[((co * cin + ci) * kh + dy) * kw + dx]);
        }
      }
    }
  }
  return plan;
}

// Input-gradient plan: input position (iy, ix) receives g at output
// (iy + pad_h - dy, ix + pad_w - dx) for taps (co, dy, dx) ascending. With
// g padded by kh-1-pad_h / kw-1-pad_w (negative: cropped), that is the
// constant shift (kh-1-dy, kw-1-dx).
TapPlan InputGradPlan(const float* w, int64_t cin, int64_t height,
                      int64_t width, int64_t cout, int64_t kh, int64_t kw,
                      int64_t out_h, int64_t out_w, int64_t pad_h,
                      int64_t pad_w) {
  TapPlan plan{cout, out_h, out_w, cin, height, width, kh, kw,
               kh - 1 - pad_h, kw - 1 - pad_w, cout * kh * kw, {}, {}, {}};
  const int64_t wd = width + kw - 1;
  for (int64_t ci = 0; ci < cin; ++ci) {
    for (int64_t co = 0; co < cout; ++co) {
      for (int64_t dy = 0; dy < kh; ++dy) {
        for (int64_t dx = 0; dx < kw; ++dx) {
          plan.src.push_back(co);
          plan.shift.push_back((kh - 1 - dy) * wd + (kw - 1 - dx));
          plan.weight.push_back(w[((co * cin + ci) * kh + dy) * kw + dx]);
        }
      }
    }
  }
  return plan;
}

}  // namespace

Tensor Conv2d(const Tensor& input, const Tensor& weight, const Tensor& bias,
              int64_t pad_h, int64_t pad_w) {
  if (DebugChecksEnabled()) {
    ValidateOpInput("conv2d", "input", input);
    ValidateOpInput("conv2d", "weight", weight);
    ValidateOpInput("conv2d", "bias", bias);
  }
  STHSL_CHECK_EQ(input.Dim(), 4) << "Conv2d input must be (N, Cin, H, W)";
  STHSL_CHECK_EQ(weight.Dim(), 4) << "Conv2d weight must be (Cout, Cin, KH, KW)";
  const int64_t batch = input.Size(0);
  const int64_t cin = input.Size(1);
  const int64_t height = input.Size(2);
  const int64_t width = input.Size(3);
  const int64_t cout = weight.Size(0);
  STHSL_CHECK_EQ(weight.Size(1), cin) << "Conv2d channel mismatch";
  const int64_t kh = weight.Size(2);
  const int64_t kw = weight.Size(3);
  const int64_t out_h = height + 2 * pad_h - kh + 1;
  const int64_t out_w = width + 2 * pad_w - kw + 1;
  STHSL_CHECK(out_h > 0 && out_w > 0) << "Conv2d kernel larger than input";
  if (bias.Defined()) {
    STHSL_CHECK_EQ(bias.Numel(), cout) << "Conv2d bias size mismatch";
  }

  const int64_t sample_flops = cout * cin * kh * kw * out_h * out_w * 2;
  std::vector<float> out(static_cast<size_t>(batch * cout * out_h * out_w));
  TapCorrelate(ForwardPlan(weight.Data().data(), cin, height, width, cout, kh,
                           kw, out_h, out_w, pad_h, pad_w),
               input.Data().data(),
               bias.Defined() ? bias.Data().data() : nullptr, out.data(),
               batch, sample_flops, "exec/conv2d_fwd");

  Tensor in_captured = input;
  Tensor w_captured = weight;
  Tensor b_captured = bias;
  std::vector<Tensor> inputs = {input, weight};
  if (bias.Defined()) inputs.push_back(bias);

  return MakeResult(
      {batch, cout, out_h, out_w}, std::move(out), "conv2d", inputs,
      [in_captured, w_captured, b_captured, batch, cin, cout, height, width,
       kh, kw, out_h, out_w, pad_h, pad_w,
       sample_flops](const Tensor& g) -> std::vector<Tensor> {
        const float* gv = g.Data().data();
        const float* x = in_captured.Data().data();
        const float* w = w_captured.Data().data();

        Tensor gi;
        Tensor gw;
        Tensor gb;

        if (NeedsGrad(in_captured)) {
          std::vector<float> dx_buf(static_cast<size_t>(in_captured.Numel()));
          TapCorrelate(InputGradPlan(w, cin, height, width, cout, kh, kw,
                                     out_h, out_w, pad_h, pad_w),
                       gv, nullptr, dx_buf.data(), batch, sample_flops,
                       "exec/conv2d_bwd_x");
          gi = Tensor::FromVector(in_captured.Shape(), std::move(dx_buf));
        }

        const bool need_w = NeedsGrad(w_captured);
        const bool need_b = b_captured.Defined() && NeedsGrad(b_captured);
        if (need_w || need_b) {
          const int64_t dw_size = need_w ? cout * cin * kh * kw : 0;
          const int64_t db_size = need_b ? cout : 0;
          const int64_t stride = dw_size + db_size;
          const int64_t grain = BatchGrain(sample_flops);
          const int64_t chunks = exec::FixedChunkCount(batch, grain);
          // Per-chunk partial gradients, leased from the exec layer's
          // reusable scratch arena instead of allocated per call.
          exec::ScratchLease scratch(static_cast<size_t>(chunks * stride));
          float* partials = scratch.data();
          exec::ParallelForFixedChunks(
              0, batch, grain,
              [=](int64_t c, int64_t s0, int64_t s1) {
                const auto& ks = simd::Kernels();
                float* dw_part = partials + c * stride;
                float* db_part = dw_part + dw_size;
                std::memset(dw_part, 0,
                            static_cast<size_t>(stride) * sizeof(float));
                for (int64_t s = s0; s < s1; ++s) {
                  for (int64_t co = 0; co < cout; ++co) {
                    const float* g_plane =
                        gv + (s * cout + co) * out_h * out_w;
                    if (need_w) {
                      for (int64_t ci = 0; ci < cin; ++ci) {
                        const float* in_plane =
                            x + (s * cin + ci) * height * width;
                        float* dw_plane = dw_part + (co * cin + ci) * kh * kw;
                        for (int64_t dy = 0; dy < kh; ++dy) {
                          for (int64_t dxk = 0; dxk < kw; ++dxk) {
                            const int64_t oy_lo =
                                std::max<int64_t>(0, pad_h - dy);
                            const int64_t oy_hi = std::min<int64_t>(
                                out_h, height + pad_h - dy);
                            const int64_t ox_lo =
                                std::max<int64_t>(0, pad_w - dxk);
                            const int64_t ox_hi =
                                std::min<int64_t>(out_w, width + pad_w - dxk);
                            // Canonical dot per output row, rows summed in
                            // ascending oy order.
                            float acc = 0.0f;
                            for (int64_t oy = oy_lo; oy < oy_hi; ++oy) {
                              const int64_t iy = oy - pad_h + dy;
                              const float* in_row =
                                  in_plane + iy * width - pad_w + dxk;
                              const float* g_row = g_plane + oy * out_w;
                              acc += ks.dot(ox_hi - ox_lo, in_row + ox_lo,
                                            g_row + ox_lo);
                            }
                            dw_plane[dy * kw + dxk] += acc;
                          }
                        }
                      }
                    }
                    if (need_b) {
                      db_part[co] += ks.reduce_sum(out_h * out_w, g_plane);
                    }
                  }
                }
              },
              "exec/conv2d_bwd_w");
          // Combine partials in ascending chunk order: deterministic at any
          // thread count, and identical to the serial loop when the batch
          // fits one chunk.
          if (need_w) {
            std::vector<float> dw_buf(static_cast<size_t>(dw_size), 0.0f);
            for (int64_t c = 0; c < chunks; ++c) {
              const float* dw_part = partials + c * stride;
              for (int64_t t = 0; t < dw_size; ++t) dw_buf[t] += dw_part[t];
            }
            gw = Tensor::FromVector(w_captured.Shape(), std::move(dw_buf));
          }
          if (need_b) {
            std::vector<float> db_buf(static_cast<size_t>(db_size), 0.0f);
            for (int64_t c = 0; c < chunks; ++c) {
              const float* db_part = partials + c * stride + dw_size;
              for (int64_t t = 0; t < db_size; ++t) db_buf[t] += db_part[t];
            }
            gb = Tensor::FromVector(b_captured.Shape(), std::move(db_buf));
          }
        }

        std::vector<Tensor> grads = {gi, gw};
        if (b_captured.Defined()) grads.push_back(gb);
        return grads;
      });
}

Tensor Conv1d(const Tensor& input, const Tensor& weight, const Tensor& bias,
              int64_t pad) {
  STHSL_CHECK_EQ(input.Dim(), 3) << "Conv1d input must be (N, Cin, L)";
  STHSL_CHECK_EQ(weight.Dim(), 3) << "Conv1d weight must be (Cout, Cin, K)";
  // Reuse the 2-D kernel by viewing length as width with height 1.
  Tensor input4 = Reshape(input, {input.Size(0), input.Size(1), 1,
                                  input.Size(2)});
  Tensor weight4 = Reshape(weight, {weight.Size(0), weight.Size(1), 1,
                                    weight.Size(2)});
  Tensor out = Conv2d(input4, weight4, bias, /*pad_h=*/0, /*pad_w=*/pad);
  return Reshape(out, {out.Size(0), out.Size(1), out.Size(3)});
}

}  // namespace sthsl
