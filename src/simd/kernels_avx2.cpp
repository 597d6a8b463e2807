// AVX2 backend. Compiled with -mavx2 -mno-fma (see CMakeLists.txt): FMA
// contraction would change results, and every kernel here must be
// bit-identical to the scalar reference in kernels_ref.h.
//
// Vectorization strategy per kernel:
//  * haar:    4 butterflies per iteration, in-register de/interleave.
//  * dct:     4 outputs per iteration; each lane's accumulation stays in
//             the reference's sequential index order.
//  * zfpr:    4 coefficients per iteration with an exact llround emulation;
//             magnitudes >= 2^50 replay the whole group through the
//             reference (the magic-number trick is only proven below that).
//  * lorenzo: 4 rows in a skewed anti-diagonal pipeline (rank 2 over the
//             field, rank 3 within each i0 plane), for quantize and for
//             reconstruct; each point's serial arithmetic is reproduced
//             exactly, lanes only ever span points whose dependencies
//             were produced in earlier steps.
//  * sse:     one vector accumulator IS the defined virtual-4-lane order.
//  * huffman: shared scalar pack (the bit-offset merge is inherently
//             serial); kept in the table for uniform dispatch.
#include "simd/kernels.h"
#include "simd/kernels_ref.h"

#if defined(__x86_64__) && defined(__AVX2__)

#include <immintrin.h>

#include <cmath>
#include <cstdint>

namespace fpsnr::simd {
namespace {

// 2^52 + 2^51: adding then subtracting forces round-to-nearest-even at
// integer granularity for |t| < 2^51 (the 2^51 offset keeps negatives in
// the same binade, making the integer readable from the low mantissa bits).
constexpr double kRoundMagic = 6755399441055744.0;
// Kernel-local domain guard: the emulation (and its tie fix-up) is used
// only for |t| < 2^50; larger magnitudes take the scalar reference.
constexpr double kRoundDomain = 1125899906842624.0;

inline __m256d abs_pd(__m256d v) {
  return _mm256_andnot_pd(_mm256_set1_pd(-0.0), v);
}

struct Rounded4 {
  __m256i k;  // llround-equivalent integer per lane
  __m256d r;  // double(k)
};

/// Round half away from zero, exactly matching std::round / std::llround
/// for |t| < 2^50. Computes round-to-nearest-even via the magic-number
/// trick, then fixes the two tie cases: frac == t - rne(t) is exact
/// (Sterbenz), frac == +0.5 means RNE rounded down (fix up iff t > 0),
/// frac == -0.5 means RNE rounded up (fix down iff t < 0).
inline Rounded4 round_half_away(__m256d t) {
  const __m256d magic = _mm256_set1_pd(kRoundMagic);
  const __m256i magic_bits = _mm256_castpd_si256(magic);
  const __m256d big = _mm256_add_pd(t, magic);
  __m256i k = _mm256_sub_epi64(_mm256_castpd_si256(big), magic_bits);
  const __m256d re = _mm256_sub_pd(big, magic);
  const __m256d frac = _mm256_sub_pd(t, re);
  const __m256d zero = _mm256_setzero_pd();
  const __m256i up = _mm256_castpd_si256(
      _mm256_and_pd(_mm256_cmp_pd(frac, _mm256_set1_pd(0.5), _CMP_EQ_OQ),
                    _mm256_cmp_pd(t, zero, _CMP_GT_OQ)));
  const __m256i dn = _mm256_castpd_si256(
      _mm256_and_pd(_mm256_cmp_pd(frac, _mm256_set1_pd(-0.5), _CMP_EQ_OQ),
                    _mm256_cmp_pd(t, zero, _CMP_LT_OQ)));
  // Masks are 0 or -1 per lane: subtracting -1 increments, adding -1
  // decrements.
  k = _mm256_sub_epi64(k, up);
  k = _mm256_add_epi64(k, dn);
  const __m256d r = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_add_epi64(k, magic_bits)), magic);
  return {k, r};
}

// --- Haar ------------------------------------------------------------------

void haar_fwd_pairs_avx2(const double* line, double* approx, double* detail,
                         std::size_t pairs, double c) {
  const __m256d vc = _mm256_set1_pd(c);
  std::size_t k = 0;
  for (; k + 4 <= pairs; k += 4) {
    const __m256d v0 = _mm256_loadu_pd(line + 2 * k);      // e0 o0 e1 o1
    const __m256d v1 = _mm256_loadu_pd(line + 2 * k + 4);  // e2 o2 e3 o3
    const __m256d p0 = _mm256_permute2f128_pd(v0, v1, 0x20);  // e0 o0 e2 o2
    const __m256d p1 = _mm256_permute2f128_pd(v0, v1, 0x31);  // e1 o1 e3 o3
    const __m256d even = _mm256_unpacklo_pd(p0, p1);
    const __m256d odd = _mm256_unpackhi_pd(p0, p1);
    _mm256_storeu_pd(approx + k,
                     _mm256_mul_pd(_mm256_add_pd(even, odd), vc));
    _mm256_storeu_pd(detail + k,
                     _mm256_mul_pd(_mm256_sub_pd(even, odd), vc));
  }
  if (k < pairs)
    haar_fwd_pairs_ref(line + 2 * k, approx + k, detail + k, pairs - k, c);
}

void haar_inv_pairs_avx2(const double* approx, const double* detail,
                         double* line, std::size_t pairs, double c) {
  const __m256d vc = _mm256_set1_pd(c);
  std::size_t k = 0;
  for (; k + 4 <= pairs; k += 4) {
    const __m256d a = _mm256_loadu_pd(approx + k);
    const __m256d d = _mm256_loadu_pd(detail + k);
    const __m256d even = _mm256_mul_pd(_mm256_add_pd(a, d), vc);
    const __m256d odd = _mm256_mul_pd(_mm256_sub_pd(a, d), vc);
    const __m256d lo = _mm256_unpacklo_pd(even, odd);  // e0 o0 e2 o2
    const __m256d hi = _mm256_unpackhi_pd(even, odd);  // e1 o1 e3 o3
    _mm256_storeu_pd(line + 2 * k, _mm256_permute2f128_pd(lo, hi, 0x20));
    _mm256_storeu_pd(line + 2 * k + 4, _mm256_permute2f128_pd(lo, hi, 0x31));
  }
  if (k < pairs)
    haar_inv_pairs_ref(approx + k, detail + k, line + 2 * k, pairs - k, c);
}

// --- DCT -------------------------------------------------------------------

void dct2_line_avx2(const double* x, double* y, std::size_t m,
                    const double* tab_jk, const double* tab_kj, double s0,
                    double sk) {
  std::size_t k = 0;
  for (; k + 4 <= m; k += 4) {
    // Lane l accumulates output k+l over ascending j — the exact scalar
    // order per output; tab_jk streams the four k entries contiguously.
    const double* t = tab_jk + k;
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t j = 0; j < m; ++j)
      acc = _mm256_add_pd(
          acc, _mm256_mul_pd(_mm256_set1_pd(x[j]), _mm256_loadu_pd(t + j * m)));
    __m256d scale = _mm256_set1_pd(sk);
    if (k == 0) scale = _mm256_set_pd(sk, sk, sk, s0);
    _mm256_storeu_pd(y + k, _mm256_mul_pd(scale, acc));
  }
  for (; k < m; ++k) {
    const double* col = tab_kj + k * m;
    double acc = 0.0;
    for (std::size_t j = 0; j < m; ++j) acc += x[j] * col[j];
    y[k] = (k == 0 ? s0 : sk) * acc;
  }
}

void dct3_line_avx2(const double* y, double* x, std::size_t m,
                    const double* tab_jk, const double* tab_kj, double s0,
                    double sk) {
  std::size_t j = 0;
  for (; j + 4 <= m; j += 4) {
    const double* t = tab_kj + j;
    __m256d acc = _mm256_mul_pd(_mm256_set1_pd(s0), _mm256_set1_pd(y[0]));
    for (std::size_t k = 1; k < m; ++k)
      acc = _mm256_add_pd(
          acc, _mm256_mul_pd(_mm256_set1_pd(sk * y[k]),
                             _mm256_loadu_pd(t + k * m)));
    _mm256_storeu_pd(x + j, acc);
  }
  for (; j < m; ++j) {
    const double* row = tab_jk + j * m;
    double acc = s0 * y[0];
    for (std::size_t k = 1; k < m; ++k) acc += (sk * y[k]) * row[k];
    x[j] = acc;
  }
}

// --- zfpr group quantization ----------------------------------------------

void zigzag_store4(__m256i k, std::uint64_t* zz, __m256i* or_zz) {
  // (k << 1) ^ (k >> 63); AVX2 has no 64-bit arithmetic shift, but the
  // sign-fill word is exactly cmpgt(0, k).
  const __m256i sgn = _mm256_cmpgt_epi64(_mm256_setzero_si256(), k);
  const __m256i z = _mm256_xor_si256(_mm256_slli_epi64(k, 1), sgn);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(zz), z);
  *or_zz = _mm256_or_si256(*or_zz, z);
}

unsigned zfpr_quant_group_avx2(const double* c, std::size_t n, double bin,
                               std::uint64_t* zz, double* recon) {
  const __m256d vbin = _mm256_set1_pd(bin);
  const __m256d vlim = _mm256_set1_pd(kZfprMaxIndexMagnitude);
  const __m256d vdom = _mm256_set1_pd(kRoundDomain);
  __m256i or_zz = _mm256_setzero_si256();
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d t = _mm256_div_pd(_mm256_loadu_pd(c + j), vbin);
    const __m256d at = abs_pd(t);
    // |c|/bin == |c/bin| (bin > 0), and NaN fails the ordered compare just
    // like the scalar !(x < lim) test.
    if (_mm256_movemask_pd(_mm256_cmp_pd(at, vlim, _CMP_LT_OQ)) != 0xF)
      return kZfprEscape;
    if (_mm256_movemask_pd(_mm256_cmp_pd(at, vdom, _CMP_LT_OQ)) != 0xF)
      return zfpr_quant_group_ref(c, n, bin, zz, recon);
    const Rounded4 rv = round_half_away(t);
    _mm256_storeu_pd(recon + j, _mm256_mul_pd(rv.r, vbin));
    zigzag_store4(rv.k, zz + j, &or_zz);
  }
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), or_zz);
  std::uint64_t all = (lanes[0] | lanes[1]) | (lanes[2] | lanes[3]);
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

// --- Lorenzo predict + quantize -------------------------------------------

/// Lane l gets lane l-1's value; lane 0 gets s.
inline __m256d shift_lanes_up(__m256d v, double s) {
  const __m256d rot = _mm256_permute4x64_pd(v, _MM_SHUFFLE(2, 1, 0, 0));
  return _mm256_blend_pd(rot, _mm256_set1_pd(s), 0x1);
}

/// row[col] widened, or 0.0 when the row is missing or col is past its end.
template <typename T>
inline double at_or_zero(const T* row, std::size_t col, std::size_t n) {
  return (row != nullptr && col < n) ? static_cast<double>(row[col]) : 0.0;
}

/// One block of 4 consecutive rows (ib..ib+3) of a plane with n1 columns,
/// as a skewed anti-diagonal pipeline: at step t, lane l handles column
/// t-l of row ib+l. west is the lane's own previous step, north/nw are
/// lane shifts of the previous two steps (lane 0 reads the finished row
/// ib-1 from memory), so every dependency is available the step it is
/// needed and each point's arithmetic matches the serial reference bit for
/// bit. Inactive fill and drain lanes compute garbage that provably never
/// feeds an active lane.
///
/// Rank 3 adds the finished previous i0 plane `prev` (nullptr for plane
/// 0, whose terms read 0.0). f100 is a per-lane load at the lane's own
/// point; f101, f110 and f111 are that load's previous step and lane
/// shifts of its previous two steps, the same pattern as west, north and
/// nw. The terms are summed in the reference's left-to-right order.
template <int Rank, typename T>
void lorenzo_block4(const T* values, const T* prev, std::size_t ib,
                    std::size_t n1, double eb, std::uint32_t bins,
                    std::uint32_t* codes, T* recon) {
  const std::uint32_t radius = bins / 2;
  const __m256d v_lo = _mm256_set1_pd(1.0 - static_cast<double>(radius));
  const __m256d v_hi = _mm256_set1_pd(static_cast<double>(bins - 1 - radius));
  const __m256d v_inv_bin = _mm256_set1_pd(2.0 * eb);
  const __m256d v_eb = _mm256_set1_pd(eb);
  const __m256d v_two = _mm256_set1_pd(2.0);
  const __m256d v_dom = _mm256_set1_pd(kRoundDomain);
  const __m256i v_radius = _mm256_set1_epi64x(static_cast<long long>(radius));
  // Masks that zero lane t (the lane whose column is 0 at step t).
  alignas(32) static constexpr std::uint64_t kKill[4][4] = {
      {0, ~0ull, ~0ull, ~0ull},
      {~0ull, 0, ~0ull, ~0ull},
      {~0ull, ~0ull, 0, ~0ull},
      {~0ull, ~0ull, ~0ull, 0}};
  const T* above = ib > 0 ? recon + (ib - 1) * n1 : nullptr;
  const T* prev_row = prev != nullptr ? prev + ib * n1 : nullptr;
  const T* prev_above = (prev != nullptr && ib > 0) ? prev_row - n1 : nullptr;
  __m256d rec_prev1 = _mm256_setzero_pd();
  __m256d rec_prev2 = _mm256_setzero_pd();
  __m256d f100_prev1 = _mm256_setzero_pd();
  __m256d f100_prev2 = _mm256_setzero_pd();
  for (std::size_t t = 0; t < n1 + 3; ++t) {
    const std::size_t l_min = t >= n1 ? t - n1 + 1 : 0;
    const std::size_t l_max = t < 3 ? t : 3;
    alignas(32) double o[4] = {0.0, 0.0, 0.0, 0.0};
    alignas(32) double p[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t l = l_min; l <= l_max; ++l) {
      o[l] = static_cast<double>(values[(ib + l) * n1 + (t - l)]);
      if (Rank == 3 && prev_row != nullptr)
        p[l] = static_cast<double>(prev_row[l * n1 + (t - l)]);
    }
    const __m256d orig = _mm256_load_pd(o);
    __m256d west = rec_prev1;
    const __m256d north = shift_lanes_up(rec_prev1, at_or_zero(above, t, n1));
    __m256d nw = shift_lanes_up(rec_prev2, t >= 1 ? at_or_zero(above, t - 1, n1)
                                                  : 0.0);
    if (t < 4) {
      // Column 0 lane: west and nw neighbours do not exist.
      const __m256d kill = _mm256_castsi256_pd(_mm256_load_si256(
          reinterpret_cast<const __m256i*>(kKill[t])));
      west = _mm256_and_pd(west, kill);
      nw = _mm256_and_pd(nw, kill);
    }
    __m256d pred;
    if constexpr (Rank == 2) {
      pred = _mm256_sub_pd(_mm256_add_pd(west, north), nw);
    } else {
      // Inactive lanes load f100 = 0.0, so the column-0 lane's f101 and
      // f111, taken from steps where its column was -1, are 0.0 unmasked.
      const __m256d f100 = _mm256_load_pd(p);
      const __m256d f110 =
          shift_lanes_up(f100_prev1, at_or_zero(prev_above, t, n1));
      const __m256d f101 = f100_prev1;
      const __m256d f111 = shift_lanes_up(
          f100_prev2, t >= 1 ? at_or_zero(prev_above, t - 1, n1) : 0.0);
      // f100 + f010 + f001 - f110 - f101 - f011 + f111, left to right.
      pred = _mm256_add_pd(f100, north);
      pred = _mm256_add_pd(pred, west);
      pred = _mm256_sub_pd(pred, f110);
      pred = _mm256_sub_pd(pred, f101);
      pred = _mm256_sub_pd(pred, nw);
      pred = _mm256_add_pd(pred, f111);
      f100_prev2 = f100_prev1;
      f100_prev1 = f100;
    }
    const __m256d scaled =
        _mm256_div_pd(_mm256_sub_pd(orig, pred), v_inv_bin);
    // One mask covers NaN, Inf and the >= 2^50 rounding domain: all of
    // them quantize to code 0 in the reference (anything that large is out
    // of the radius range anyway).
    const __m256d in_dom =
        _mm256_cmp_pd(abs_pd(scaled), v_dom, _CMP_LT_OQ);
    const Rounded4 rv = round_half_away(scaled);
    const __m256d in_range =
        _mm256_and_pd(_mm256_cmp_pd(rv.r, v_lo, _CMP_GE_OQ),
                      _mm256_cmp_pd(rv.r, v_hi, _CMP_LE_OQ));
    const __m256d code_ok = _mm256_and_pd(in_dom, in_range);
    const __m256d deq = _mm256_mul_pd(_mm256_mul_pd(rv.r, v_two), v_eb);
    __m256d rec_d = _mm256_add_pd(pred, deq);
    if constexpr (sizeof(T) == 4)
      rec_d = _mm256_cvtps_pd(_mm256_cvtpd_ps(rec_d));
    const __m256d guard_ok = _mm256_cmp_pd(
        abs_pd(_mm256_sub_pd(rec_d, orig)), v_eb, _CMP_LE_OQ);
    const __m256d ok = _mm256_and_pd(code_ok, guard_ok);
    const __m256d rec_next = _mm256_blendv_pd(orig, rec_d, ok);
    const __m256i code_i = _mm256_add_epi64(rv.k, v_radius);
    const int okm = _mm256_movemask_pd(ok);
    alignas(32) double rec_out[4];
    alignas(32) std::int64_t ki[4];
    _mm256_store_pd(rec_out, rec_next);
    _mm256_store_si256(reinterpret_cast<__m256i*>(ki), code_i);
    for (std::size_t l = l_min; l <= l_max; ++l) {
      const std::size_t idx = (ib + l) * n1 + (t - l);
      if ((okm >> l) & 1) {
        codes[idx] = static_cast<std::uint32_t>(ki[l]);
        recon[idx] = static_cast<T>(rec_out[l]);
      } else {
        codes[idx] = 0;
        recon[idx] = values[idx];
      }
    }
    rec_prev2 = rec_prev1;
    rec_prev1 = rec_next;
  }
}

template <typename T>
std::size_t lorenzo2_quant_avx2(const T* values, std::size_t n0,
                                std::size_t n1, double eb, std::uint32_t bins,
                                std::uint32_t* codes, T* recon, T* outliers) {
  if (n0 < 5 || n1 < 8)
    return lorenzo2_quant_ref(values, n0, n1, eb, bins, codes, recon,
                              outliers);
  const std::size_t blocks = n0 / 4;
  for (std::size_t b = 0; b < blocks; ++b)
    lorenzo_block4<2>(values, static_cast<const T*>(nullptr), b * 4, n1, eb,
                      bins, codes, recon);
  for (std::size_t i0 = blocks * 4; i0 < n0; ++i0)
    lorenzo2_row_ref(values, i0, n1, eb, bins, codes, recon);
  return lorenzo_collect_outliers(values, codes, n0 * n1, outliers);
}

/// Plane by plane: the 4-row wavefront over each i0 plane, then its
/// leftover rows serially.
template <typename T>
void lorenzo3_quant_avx2(const T* values, std::size_t n0, std::size_t n1,
                         std::size_t n2, double eb, std::uint32_t bins,
                         std::uint32_t* codes, T* recon) {
  if (n1 < 4 || n2 < 8)
    return lorenzo3_quant_ref(values, n0, n1, n2, eb, bins, codes, recon);
  const std::size_t plane = n1 * n2;
  const std::size_t blocks = n1 / 4;
  for (std::size_t i0 = 0; i0 < n0; ++i0) {
    const std::size_t off = i0 * plane;
    const T* prev = i0 > 0 ? recon + off - plane : nullptr;
    for (std::size_t b = 0; b < blocks; ++b)
      lorenzo_block4<3>(values + off, prev, b * 4, n2, eb, bins, codes + off,
                        recon + off);
    for (std::size_t i1 = blocks * 4; i1 < n1; ++i1)
      lorenzo3_row_ref(values, i0, i1, n1, n2, eb, bins, codes, recon);
  }
}

// --- Lorenzo reconstruct ---------------------------------------------------

/// The four codes of one wavefront step, lane 0 at p and the lanes s = n1 - 1
/// apart (one row down, one column left), built in registers.
inline __m128i load_code_lanes(const std::uint32_t* p, std::size_t s) {
  return _mm_set_epi32(static_cast<int>(p[3 * s]), static_cast<int>(p[2 * s]),
                       static_cast<int>(p[s]), static_cast<int>(p[0]));
}

/// The same four positions of a T buffer, widened, built in registers.
template <typename T>
inline __m256d load_lanes(const T* p, std::size_t s) {
  if constexpr (sizeof(T) == 8)
    return _mm256_set_pd(p[3 * s], p[2 * s], p[s], p[0]);
  else
    return _mm256_cvtps_pd(_mm_set_ps(p[3 * s], p[2 * s], p[s], p[0]));
}

/// load_lanes restricted to the lanes set in `lanes` (the others read 0.0
/// and are never touched in memory).
template <typename T>
inline __m256d load_lanes_masked(const T* p, std::size_t s, int lanes) {
  auto lane = [&](int l) {
    return (lanes >> l) & 1 ? static_cast<double>(p[l * s]) : 0.0;
  };
  return _mm256_set_pd(lane(3), lane(2), lane(1), lane(0));
}

/// Store the lanes set in `lanes` to p[l * s].
inline void store_lanes(double* p, std::size_t s, __m256d v, int lanes) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  if (lanes & 1) _mm_storel_pd(p, lo);
  if (lanes & 2) _mm_storeh_pd(p + s, lo);
  if (lanes & 4) _mm_storel_pd(p + 2 * s, hi);
  if (lanes & 8) _mm_storeh_pd(p + 3 * s, hi);
}

inline void store_lanes(float* p, std::size_t s, __m128 v, int lanes) {
  if (lanes & 1) _mm_store_ss(p, v);
  if (lanes & 2) _mm_store_ss(p + s, _mm_shuffle_ps(v, v, 1));
  if (lanes & 4) _mm_store_ss(p + 2 * s, _mm_shuffle_ps(v, v, 2));
  if (lanes & 8) _mm_store_ss(p + 3 * s, _mm_shuffle_ps(v, v, 3));
}

/// The decode-side lorenzo_block4: the same skewed wavefront over rows
/// ib..ib+3, with the same prediction arithmetic, turned around — each
/// lane adds its dequantized code to the prediction instead of
/// quantizing a value. In steps 4..n1-1 (all four lanes active, none in
/// column 0) the codes, the previous plane's f100 terms and the results
/// move straight between registers and their stride-(n1-1) positions; the
/// first four and the last three steps go through per-lane loops. A code-0
/// lane keeps the outlier the caller placed: it is read back into the
/// wavefront and never stored over.
template <int Rank, typename T>
void lorenzo_recon_block4(const std::uint32_t* codes, const T* prev,
                          std::size_t ib, std::size_t n1, double eb,
                          std::uint32_t bins, T* recon) {
  const std::uint32_t radius = bins / 2;
  // radius <= 2^31 - 1 and every code is < bins, so code - radius is an
  // exact int32 and its conversion equals double(code) - double(radius).
  const __m128i v_radius = _mm_set1_epi32(static_cast<int>(radius));
  const __m256d v_two = _mm256_set1_pd(2.0);
  const __m256d v_eb = _mm256_set1_pd(eb);
  alignas(32) static constexpr std::uint64_t kKill[4][4] = {
      {0, ~0ull, ~0ull, ~0ull},
      {~0ull, 0, ~0ull, ~0ull},
      {~0ull, ~0ull, 0, ~0ull},
      {~0ull, ~0ull, ~0ull, 0}};
  const std::size_t s = n1 - 1;  // lane stride
  const T* above = ib > 0 ? recon + (ib - 1) * n1 : nullptr;
  const T* prev_row = prev != nullptr ? prev + ib * n1 : nullptr;
  const T* prev_above = (prev != nullptr && ib > 0) ? prev_row - n1 : nullptr;
  __m256d rec_prev1 = _mm256_setzero_pd();
  __m256d rec_prev2 = _mm256_setzero_pd();
  __m256d f100_prev1 = _mm256_setzero_pd();
  __m256d f100_prev2 = _mm256_setzero_pd();

  // Step t: lane l rebuilds column t - l of row ib + l, storing the lanes
  // set in `active` that are not outliers.
  auto step = [&](std::size_t t, __m128i code, __m256d f100, int active) {
    T* const at = recon + ib * n1 + t;
    __m256d west = rec_prev1;
    const __m256d north = shift_lanes_up(rec_prev1, at_or_zero(above, t, n1));
    __m256d nw = shift_lanes_up(rec_prev2, t >= 1 ? at_or_zero(above, t - 1, n1)
                                                  : 0.0);
    if (t < 4) {
      const __m256d kill = _mm256_castsi256_pd(_mm256_load_si256(
          reinterpret_cast<const __m256i*>(kKill[t])));
      west = _mm256_and_pd(west, kill);
      nw = _mm256_and_pd(nw, kill);
    }
    __m256d pred;
    if constexpr (Rank == 2) {
      pred = _mm256_sub_pd(_mm256_add_pd(west, north), nw);
    } else {
      const __m256d f110 =
          shift_lanes_up(f100_prev1, at_or_zero(prev_above, t, n1));
      const __m256d f101 = f100_prev1;
      const __m256d f111 = shift_lanes_up(
          f100_prev2, t >= 1 ? at_or_zero(prev_above, t - 1, n1) : 0.0);
      pred = _mm256_add_pd(f100, north);
      pred = _mm256_add_pd(pred, west);
      pred = _mm256_sub_pd(pred, f110);
      pred = _mm256_sub_pd(pred, f101);
      pred = _mm256_sub_pd(pred, nw);
      pred = _mm256_add_pd(pred, f111);
      f100_prev2 = f100_prev1;
      f100_prev1 = f100;
    }
    const __m256d deq = _mm256_mul_pd(
        _mm256_mul_pd(_mm256_cvtepi32_pd(_mm_sub_epi32(code, v_radius)),
                      v_two),
        v_eb);
    __m256d rec = _mm256_add_pd(pred, deq);
    const __m128i is_outlier = _mm_cmpeq_epi32(code, _mm_setzero_si128());
    const int outliers = _mm_movemask_ps(_mm_castsi128_ps(is_outlier)) & active;
    if constexpr (sizeof(T) == 4) {
      const __m128 narrow = _mm256_cvtpd_ps(rec);
      rec = _mm256_cvtps_pd(narrow);
      store_lanes(at, s, narrow, active & ~outliers);
    } else {
      store_lanes(at, s, rec, active & ~outliers);
    }
    if (outliers != 0)
      rec = _mm256_blendv_pd(
          rec, load_lanes_masked(at, s, outliers),
          _mm256_castsi256_pd(_mm256_cvtepi32_epi64(is_outlier)));
    rec_prev2 = rec_prev1;
    rec_prev1 = rec;
  };

  // Fill and drain: inactive lanes get a code that dequantizes to 0 and
  // f100 = 0.0, so, as in lorenzo_block4, their garbage never reaches an
  // active lane.
  auto edge_step = [&](std::size_t t) {
    const std::size_t l_min = t >= n1 ? t - n1 + 1 : 0;
    const std::size_t l_max = t < 3 ? t : 3;
    alignas(16) std::uint32_t c[4] = {radius, radius, radius, radius};
    alignas(32) double p[4] = {0.0, 0.0, 0.0, 0.0};
    int active = 0;
    for (std::size_t l = l_min; l <= l_max; ++l) {
      c[l] = codes[(ib + l) * n1 + (t - l)];
      if (Rank == 3 && prev_row != nullptr)
        p[l] = static_cast<double>(prev_row[l * n1 + (t - l)]);
      active |= 1 << l;
    }
    step(t, _mm_load_si128(reinterpret_cast<const __m128i*>(c)),
         _mm256_load_pd(p), active);
  };

  std::size_t t = 0;
  for (; t < 4; ++t) edge_step(t);
  for (; t < n1; ++t) {
    const __m256d f100 = (Rank == 3 && prev_row != nullptr)
                             ? load_lanes(prev_row + t, s)
                             : _mm256_setzero_pd();
    step(t, load_code_lanes(codes + ib * n1 + t, s), f100, 0xF);
  }
  for (; t < n1 + 3; ++t) edge_step(t);
}

template <typename T>
void lorenzo2_recon_avx2(const std::uint32_t* codes, std::size_t n0,
                         std::size_t n1, double eb, std::uint32_t bins,
                         T* recon) {
  if (n0 < 5 || n1 < 8)
    return lorenzo2_recon_ref(codes, n0, n1, eb, bins, recon);
  const std::size_t blocks = n0 / 4;
  for (std::size_t b = 0; b < blocks; ++b)
    lorenzo_recon_block4<2>(codes, static_cast<const T*>(nullptr), b * 4, n1,
                            eb, bins, recon);
  for (std::size_t i0 = blocks * 4; i0 < n0; ++i0)
    lorenzo2_recon_row_ref(codes, i0, n1, eb, bins, recon);
}

/// Plane by plane, as lorenzo3_quant_avx2.
template <typename T>
void lorenzo3_recon_avx2(const std::uint32_t* codes, std::size_t n0,
                         std::size_t n1, std::size_t n2, double eb,
                         std::uint32_t bins, T* recon) {
  if (n1 < 4 || n2 < 8)
    return lorenzo3_recon_ref(codes, n0, n1, n2, eb, bins, recon);
  const std::size_t plane = n1 * n2;
  const std::size_t blocks = n1 / 4;
  for (std::size_t i0 = 0; i0 < n0; ++i0) {
    const std::size_t off = i0 * plane;
    const T* prev = i0 > 0 ? recon + off - plane : nullptr;
    for (std::size_t b = 0; b < blocks; ++b)
      lorenzo_recon_block4<3>(codes + off, prev, b * 4, n2, eb, bins,
                              recon + off);
    for (std::size_t i1 = blocks * 4; i1 < n1; ++i1)
      lorenzo3_recon_row_ref(codes, i0, i1, n1, n2, eb, bins, recon);
  }
}

// --- SSE accumulators ------------------------------------------------------

inline double fold_sse(__m256d vacc) {
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, vacc);
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

double sse_f32_avx2(const float* a, const float* b, std::size_t n) {
  __m256d vacc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d e = _mm256_sub_pd(_mm256_cvtps_pd(_mm_loadu_ps(a + i)),
                                    _mm256_cvtps_pd(_mm_loadu_ps(b + i)));
    vacc = _mm256_add_pd(vacc, _mm256_mul_pd(e, e));
  }
  double total = fold_sse(vacc);
  for (; i < n; ++i) {
    const double e = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    total += e * e;
  }
  return total;
}

double sse_f64_avx2(const double* a, const double* b, std::size_t n) {
  __m256d vacc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d e =
        _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    vacc = _mm256_add_pd(vacc, _mm256_mul_pd(e, e));
  }
  double total = fold_sse(vacc);
  for (; i < n; ++i) {
    const double e = a[i] - b[i];
    total += e * e;
  }
  return total;
}

double sse_cast_f32_avx2(const float* values, const double* recon,
                         std::size_t n) {
  __m256d vacc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d rec = _mm256_cvtps_pd(
        _mm256_cvtpd_ps(_mm256_loadu_pd(recon + i)));
    const __m256d e =
        _mm256_sub_pd(_mm256_cvtps_pd(_mm_loadu_ps(values + i)), rec);
    vacc = _mm256_add_pd(vacc, _mm256_mul_pd(e, e));
  }
  double total = fold_sse(vacc);
  for (; i < n; ++i) {
    const double e = static_cast<double>(values[i]) -
                     static_cast<double>(static_cast<float>(recon[i]));
    total += e * e;
  }
  return total;
}

}  // namespace

const KernelTable* avx2_kernel_table() {
  static const KernelTable table{
      "avx2",
      &haar_fwd_pairs_avx2,
      &haar_inv_pairs_avx2,
      &dct2_line_avx2,
      &dct3_line_avx2,
      &zfpr_quant_group_avx2,
      &huffman_pack_ref,
      &lorenzo2_quant_avx2<float>,
      &lorenzo2_quant_avx2<double>,
      &lorenzo3_quant_avx2<float>,
      &lorenzo3_quant_avx2<double>,
      &lorenzo2_recon_avx2<float>,
      &lorenzo2_recon_avx2<double>,
      &lorenzo3_recon_avx2<float>,
      &lorenzo3_recon_avx2<double>,
      &sse_f32_avx2,
      &sse_f64_avx2,
      &sse_cast_f32_avx2,
  };
  return &table;
}

}  // namespace fpsnr::simd

#else  // !(x86-64 with AVX2 enabled for this TU)

namespace fpsnr::simd {
const KernelTable* avx2_kernel_table() { return nullptr; }
}  // namespace fpsnr::simd

#endif
