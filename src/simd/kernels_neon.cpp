// NEON (aarch64) backend. Baseline on every aarch64 build, so no -m flags
// are needed; -ffp-contract=off (set project-wide) is what keeps the
// compiler from fusing the separate vmul/vadd intrinsics below into FMAs,
// which would break bit-parity with the scalar reference.
//
// aarch64 makes the rounding story simpler than AVX2: FCVTAS
// (vcvtaq_s64_f64) converts with ties away from zero — exactly
// std::llround — for every magnitude below 2^63, and the zfpr escape
// threshold (4.0e18) already bounds the domain, so no magic-number
// emulation or domain fallback is needed.
//
// The Lorenzo wavefronts (rank 2 and rank 3, quantize and reconstruct) and
// the Huffman pack stay on the shared scalar reference here: the pack's
// bit-offset merge is serial everywhere, and a 2-lane wavefront pays more
// in lane shuffling than it recovers.
#include "simd/kernels.h"
#include "simd/kernels_ref.h"

#if defined(__aarch64__)

#include <arm_neon.h>

#include <cmath>
#include <cstdint>

namespace fpsnr::simd {
namespace {

inline bool both_lanes(uint64x2_t mask) {
  return (vgetq_lane_u64(mask, 0) & vgetq_lane_u64(mask, 1)) ==
         ~std::uint64_t{0};
}

// --- Haar ------------------------------------------------------------------

void haar_fwd_pairs_neon(const double* line, double* approx, double* detail,
                         std::size_t pairs, double c) {
  const float64x2_t vc = vdupq_n_f64(c);
  std::size_t k = 0;
  for (; k + 2 <= pairs; k += 2) {
    const float64x2x2_t eo = vld2q_f64(line + 2 * k);  // val[0]=evens
    vst1q_f64(approx + k, vmulq_f64(vaddq_f64(eo.val[0], eo.val[1]), vc));
    vst1q_f64(detail + k, vmulq_f64(vsubq_f64(eo.val[0], eo.val[1]), vc));
  }
  if (k < pairs)
    haar_fwd_pairs_ref(line + 2 * k, approx + k, detail + k, pairs - k, c);
}

void haar_inv_pairs_neon(const double* approx, const double* detail,
                         double* line, std::size_t pairs, double c) {
  const float64x2_t vc = vdupq_n_f64(c);
  std::size_t k = 0;
  for (; k + 2 <= pairs; k += 2) {
    const float64x2_t a = vld1q_f64(approx + k);
    const float64x2_t d = vld1q_f64(detail + k);
    float64x2x2_t eo;
    eo.val[0] = vmulq_f64(vaddq_f64(a, d), vc);
    eo.val[1] = vmulq_f64(vsubq_f64(a, d), vc);
    vst2q_f64(line + 2 * k, eo);
  }
  if (k < pairs)
    haar_inv_pairs_ref(approx + k, detail + k, line + 2 * k, pairs - k, c);
}

// --- DCT -------------------------------------------------------------------

void dct2_line_neon(const double* x, double* y, std::size_t m,
                    const double* tab_jk, const double* tab_kj, double s0,
                    double sk) {
  std::size_t k = 0;
  for (; k + 2 <= m; k += 2) {
    const double* t = tab_jk + k;
    float64x2_t acc = vdupq_n_f64(0.0);
    for (std::size_t j = 0; j < m; ++j)
      acc = vaddq_f64(acc, vmulq_f64(vdupq_n_f64(x[j]), vld1q_f64(t + j * m)));
    float64x2_t scale = vdupq_n_f64(sk);
    if (k == 0) scale = vsetq_lane_f64(s0, scale, 0);
    vst1q_f64(y + k, vmulq_f64(scale, acc));
  }
  for (; k < m; ++k) {
    const double* col = tab_kj + k * m;
    double acc = 0.0;
    for (std::size_t j = 0; j < m; ++j) acc += x[j] * col[j];
    y[k] = (k == 0 ? s0 : sk) * acc;
  }
}

void dct3_line_neon(const double* y, double* x, std::size_t m,
                    const double* tab_jk, const double* tab_kj, double s0,
                    double sk) {
  std::size_t j = 0;
  for (; j + 2 <= m; j += 2) {
    const double* t = tab_kj + j;
    float64x2_t acc = vmulq_f64(vdupq_n_f64(s0), vdupq_n_f64(y[0]));
    for (std::size_t k = 1; k < m; ++k)
      acc = vaddq_f64(acc,
                      vmulq_f64(vdupq_n_f64(sk * y[k]), vld1q_f64(t + k * m)));
    vst1q_f64(x + j, acc);
  }
  for (; j < m; ++j) {
    const double* row = tab_jk + j * m;
    double acc = s0 * y[0];
    for (std::size_t k = 1; k < m; ++k) acc += (sk * y[k]) * row[k];
    x[j] = acc;
  }
}

// --- zfpr group quantization ----------------------------------------------

unsigned zfpr_quant_group_neon(const double* c, std::size_t n, double bin,
                               std::uint64_t* zz, double* recon) {
  const float64x2_t vbin = vdupq_n_f64(bin);
  const float64x2_t vlim = vdupq_n_f64(kZfprMaxIndexMagnitude);
  uint64x2_t or_zz = vdupq_n_u64(0);
  std::size_t j = 0;
  for (; j + 2 <= n; j += 2) {
    const float64x2_t t = vdivq_f64(vld1q_f64(c + j), vbin);
    if (!both_lanes(vcltq_f64(vabsq_f64(t), vlim))) return kZfprEscape;
    const int64x2_t k = vcvtaq_s64_f64(t);  // FCVTAS == llround here
    vst1q_f64(recon + j, vmulq_f64(vcvtq_f64_s64(k), vbin));
    const uint64x2_t z =
        veorq_u64(vreinterpretq_u64_s64(vshlq_n_s64(k, 1)),
                  vreinterpretq_u64_s64(vshrq_n_s64(k, 63)));
    vst1q_u64(zz + j, z);
    or_zz = vorrq_u64(or_zz, z);
  }
  std::uint64_t all = vgetq_lane_u64(or_zz, 0) | vgetq_lane_u64(or_zz, 1);
  for (; j < n; ++j) {
    const double v = c[j];
    if (!(std::abs(v) / bin < kZfprMaxIndexMagnitude)) return kZfprEscape;
    const std::int64_t k = std::llround(v / bin);
    recon[j] = static_cast<double>(k) * bin;
    zz[j] = zigzag_encode_ref(k);
    all |= zz[j];
  }
  return all == 0 ? 0u : static_cast<unsigned>(std::bit_width(all));
}

// --- SSE accumulators ------------------------------------------------------
// Two float64x2 accumulators reproduce the defined virtual-4-lane order:
// acc01 holds lanes 0,1 and acc23 lanes 2,3; folded (a0+a1)+(a2+a3).

double sse_f32_neon(const float* a, const float* b, std::size_t n) {
  float64x2_t acc01 = vdupq_n_f64(0.0);
  float64x2_t acc23 = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float64x2_t e01 = vsubq_f64(vcvt_f64_f32(vld1_f32(a + i)),
                                      vcvt_f64_f32(vld1_f32(b + i)));
    const float64x2_t e23 = vsubq_f64(vcvt_f64_f32(vld1_f32(a + i + 2)),
                                      vcvt_f64_f32(vld1_f32(b + i + 2)));
    acc01 = vaddq_f64(acc01, vmulq_f64(e01, e01));
    acc23 = vaddq_f64(acc23, vmulq_f64(e23, e23));
  }
  double total = (vgetq_lane_f64(acc01, 0) + vgetq_lane_f64(acc01, 1)) +
                 (vgetq_lane_f64(acc23, 0) + vgetq_lane_f64(acc23, 1));
  for (; i < n; ++i) {
    const double e = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    total += e * e;
  }
  return total;
}

double sse_f64_neon(const double* a, const double* b, std::size_t n) {
  float64x2_t acc01 = vdupq_n_f64(0.0);
  float64x2_t acc23 = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float64x2_t e01 = vsubq_f64(vld1q_f64(a + i), vld1q_f64(b + i));
    const float64x2_t e23 =
        vsubq_f64(vld1q_f64(a + i + 2), vld1q_f64(b + i + 2));
    acc01 = vaddq_f64(acc01, vmulq_f64(e01, e01));
    acc23 = vaddq_f64(acc23, vmulq_f64(e23, e23));
  }
  double total = (vgetq_lane_f64(acc01, 0) + vgetq_lane_f64(acc01, 1)) +
                 (vgetq_lane_f64(acc23, 0) + vgetq_lane_f64(acc23, 1));
  for (; i < n; ++i) {
    const double e = a[i] - b[i];
    total += e * e;
  }
  return total;
}

double sse_cast_f32_neon(const float* values, const double* recon,
                         std::size_t n) {
  float64x2_t acc01 = vdupq_n_f64(0.0);
  float64x2_t acc23 = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float64x2_t r01 =
        vcvt_f64_f32(vcvt_f32_f64(vld1q_f64(recon + i)));
    const float64x2_t r23 =
        vcvt_f64_f32(vcvt_f32_f64(vld1q_f64(recon + i + 2)));
    const float64x2_t e01 =
        vsubq_f64(vcvt_f64_f32(vld1_f32(values + i)), r01);
    const float64x2_t e23 =
        vsubq_f64(vcvt_f64_f32(vld1_f32(values + i + 2)), r23);
    acc01 = vaddq_f64(acc01, vmulq_f64(e01, e01));
    acc23 = vaddq_f64(acc23, vmulq_f64(e23, e23));
  }
  double total = (vgetq_lane_f64(acc01, 0) + vgetq_lane_f64(acc01, 1)) +
                 (vgetq_lane_f64(acc23, 0) + vgetq_lane_f64(acc23, 1));
  for (; i < n; ++i) {
    const double e = static_cast<double>(values[i]) -
                     static_cast<double>(static_cast<float>(recon[i]));
    total += e * e;
  }
  return total;
}

}  // namespace

const KernelTable* neon_kernel_table() {
  static const KernelTable table{
      "neon",
      &haar_fwd_pairs_neon,
      &haar_inv_pairs_neon,
      &dct2_line_neon,
      &dct3_line_neon,
      &zfpr_quant_group_neon,
      &huffman_pack_ref,
      &lorenzo2_quant_ref<float>,
      &lorenzo2_quant_ref<double>,
      &lorenzo3_quant_ref<float>,
      &lorenzo3_quant_ref<double>,
      &lorenzo2_recon_ref<float>,
      &lorenzo2_recon_ref<double>,
      &lorenzo3_recon_ref<float>,
      &lorenzo3_recon_ref<double>,
      &sse_f32_neon,
      &sse_f64_neon,
      &sse_cast_f32_neon,
  };
  return &table;
}

}  // namespace fpsnr::simd

#else  // !aarch64

namespace fpsnr::simd {
const KernelTable* neon_kernel_table() { return nullptr; }
}  // namespace fpsnr::simd

#endif
