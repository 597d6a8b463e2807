// Reference (scalar) kernel implementations shared by every backend TU.
//
// These are the bit-exactness ground truth: the scalar backend's table
// points straight at them, and the ISA backends call them for loop tails
// and domain fallbacks. They live in an ANONYMOUS namespace on purpose:
// each backend translation unit is compiled with different target flags
// (-mavx2 etc.), so the copies must have internal linkage — if they were
// ordinary inline functions the linker could merge them and hand the
// scalar dispatch a copy compiled with AVX2 codegen, crashing pre-AVX2
// hosts. Internal linkage keeps each TU's copy inside that TU.
//
// Every function reproduces the original scalar loop it replaced verbatim
// (same expressions, same evaluation order, same rounding); see the
// contracts in simd/kernels.h.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "simd/kernels.h"

namespace fpsnr::simd {
namespace {

// --- Haar ------------------------------------------------------------------

inline void haar_fwd_pairs_ref(const double* line, double* approx,
                               double* detail, std::size_t pairs, double c) {
  for (std::size_t k = 0; k < pairs; ++k) {
    approx[k] = (line[2 * k] + line[2 * k + 1]) * c;
    detail[k] = (line[2 * k] - line[2 * k + 1]) * c;
  }
}

inline void haar_inv_pairs_ref(const double* approx, const double* detail,
                               double* line, std::size_t pairs, double c) {
  for (std::size_t k = 0; k < pairs; ++k) {
    line[2 * k] = (approx[k] + detail[k]) * c;
    line[2 * k + 1] = (approx[k] - detail[k]) * c;
  }
}

// --- DCT -------------------------------------------------------------------

inline void dct2_line_ref(const double* x, double* y, std::size_t m,
                          const double* tab_jk, const double* tab_kj,
                          double s0, double sk) {
  (void)tab_jk;
  for (std::size_t k = 0; k < m; ++k) {
    const double* col = tab_kj + k * m;
    double acc = 0.0;
    for (std::size_t j = 0; j < m; ++j) acc += x[j] * col[j];
    y[k] = (k == 0 ? s0 : sk) * acc;
  }
}

inline void dct3_line_ref(const double* y, double* x, std::size_t m,
                          const double* tab_jk, const double* tab_kj,
                          double s0, double sk) {
  (void)tab_kj;
  for (std::size_t j = 0; j < m; ++j) {
    const double* row = tab_jk + j * m;
    double acc = s0 * y[0];
    for (std::size_t k = 1; k < m; ++k) acc += (sk * y[k]) * row[k];
    x[j] = acc;
  }
}

// --- zfpr group quantization ----------------------------------------------

inline std::uint64_t zigzag_encode_ref(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

inline unsigned zfpr_quant_group_ref(const double* c, std::size_t n,
                                     double bin, std::uint64_t* zz,
                                     double* recon) {
  std::uint64_t max_zz = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const double v = c[j];
    if (!(std::abs(v) / bin < kZfprMaxIndexMagnitude)) return kZfprEscape;
    const std::int64_t k = std::llround(v / bin);
    recon[j] = static_cast<double>(k) * bin;
    zz[j] = zigzag_encode_ref(k);
    max_zz = max_zz < zz[j] ? zz[j] : max_zz;
  }
  return max_zz == 0 ? 0u : static_cast<unsigned>(std::bit_width(max_zz));
}

// --- Huffman pack ----------------------------------------------------------

inline std::size_t huffman_pack_ref(const std::uint32_t* syms, std::size_t n,
                                    const std::uint64_t* entries,
                                    std::uint32_t base, std::size_t alphabet,
                                    std::uint64_t* words, std::uint64_t* carry,
                                    unsigned* carry_bits,
                                    std::size_t* bad_index) {
  std::uint64_t acc = *carry;
  unsigned bits = *carry_bits;
  std::size_t nw = 0;
  *bad_index = kNoBadSymbol;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t s = syms[i] - base;  // wraps for syms[i] < base
    if (s >= alphabet) { *bad_index = i; break; }
    const std::uint64_t e = entries[s];
    const unsigned len = static_cast<unsigned>(e >> 32);
    if (len == 0) { *bad_index = i; break; }
    const std::uint64_t code = e & 0xFFFFFFFFu;
    acc |= code << bits;  // bits < 64 by the flush below
    bits += len;
    if (bits >= 64) {
      words[nw++] = acc;
      bits -= 64;
      // bits < len here, so (len - bits) is a valid shift in [1, 32].
      acc = bits == 0 ? 0 : code >> (len - bits);
    }
  }
  *carry = acc;
  *carry_bits = bits;
  return nw;
}

// --- Lorenzo predict + quantize -------------------------------------------

/// The quantize step every Lorenzo kernel shares: LinearQuantizer on
/// value - pred, then the T-cast bound guard. Writes the code (0 = outlier)
/// and the reconstruction the decoder will rebuild (the value itself for an
/// outlier).
template <typename T>
inline void lorenzo_point_ref(T value, double pred, double eb,
                              std::uint32_t bins, std::uint32_t* code_out,
                              T* rec_out) {
  const std::uint32_t radius = bins / 2;
  const double orig = static_cast<double>(value);
  const double scaled = (orig - pred) / (2.0 * eb);
  if (std::isfinite(scaled)) {
    const double rounded = std::round(scaled);
    if (!(rounded < 1.0 - static_cast<double>(radius) ||
          rounded > static_cast<double>(bins - 1 - radius))) {
      const std::uint32_t code = static_cast<std::uint32_t>(
          static_cast<std::int64_t>(rounded) +
          static_cast<std::int64_t>(radius));
      const double deq =
          (static_cast<double>(code) - static_cast<double>(radius)) * 2.0 *
          eb;
      const T rec = static_cast<T>(pred + deq);
      if (std::abs(static_cast<double>(rec) - orig) <= eb) {
        *code_out = code;
        *rec_out = rec;
        return;
      }
    }
  }
  *code_out = 0;
  *rec_out = value;
}

/// code 0 <=> outlier, so one sweep recovers the scan-order outlier list
/// whatever order the points were visited in.
template <typename T>
inline std::size_t lorenzo_collect_outliers(const T* values,
                                            const std::uint32_t* codes,
                                            std::size_t n, T* outliers) {
  std::size_t n_out = 0;
  for (std::size_t idx = 0; idx < n; ++idx)
    if (codes[idx] == 0) outliers[n_out++] = values[idx];
  return n_out;
}

/// Visit row i0 of a rank-2 field in scan order, calling
/// point(idx, pred) with the LorenzoPredictor rank-2 prediction from
/// `recon` (missing neighbours read 0.0). Shared by the quantize and the
/// reconstruct pass, so both predict with the same arithmetic.
template <typename T, typename Point>
inline void lorenzo2_row_walk(const T* recon, std::size_t i0, std::size_t n1,
                              Point&& point) {
  std::size_t idx = i0 * n1;
  for (std::size_t i1 = 0; i1 < n1; ++i1, ++idx) {
    const double west = i1 > 0 ? static_cast<double>(recon[idx - 1]) : 0.0;
    const double north = i0 > 0 ? static_cast<double>(recon[idx - n1]) : 0.0;
    const double nw = (i0 > 0 && i1 > 0)
                          ? static_cast<double>(recon[idx - n1 - 1])
                          : 0.0;
    point(idx, west + north - nw);
  }
}

/// Row (i0, i1) of a rank-3 field, the rank-3 counterpart of
/// lorenzo2_row_walk (LorenzoPredictor rank 3, same left-to-right sum).
template <typename T, typename Point>
inline void lorenzo3_row_walk(const T* recon, std::size_t i0, std::size_t i1,
                              std::size_t n1, std::size_t n2, Point&& point) {
  const std::size_t sz = n1 * n2;  // stride along axis 0
  const std::size_t sy = n2;       // stride along axis 1
  const bool a = i0 > 0, b = i1 > 0;
  std::size_t idx = i0 * sz + i1 * sy;
  for (std::size_t i2 = 0; i2 < n2; ++i2, ++idx) {
    const bool c = i2 > 0;
    const double f100 = a ? static_cast<double>(recon[idx - sz]) : 0.0;
    const double f010 = b ? static_cast<double>(recon[idx - sy]) : 0.0;
    const double f001 = c ? static_cast<double>(recon[idx - 1]) : 0.0;
    const double f110 =
        (a && b) ? static_cast<double>(recon[idx - sz - sy]) : 0.0;
    const double f101 =
        (a && c) ? static_cast<double>(recon[idx - sz - 1]) : 0.0;
    const double f011 =
        (b && c) ? static_cast<double>(recon[idx - sy - 1]) : 0.0;
    const double f111 =
        (a && b && c) ? static_cast<double>(recon[idx - sz - sy - 1]) : 0.0;
    point(idx, f100 + f010 + f001 - f110 - f101 - f011 + f111);
  }
}

/// Row i0 of the rank-2 quantize pass.
template <typename T>
inline void lorenzo2_row_ref(const T* values, std::size_t i0, std::size_t n1,
                             double eb, std::uint32_t bins,
                             std::uint32_t* codes, T* recon) {
  lorenzo2_row_walk(recon, i0, n1, [&](std::size_t idx, double pred) {
    lorenzo_point_ref(values[idx], pred, eb, bins, codes + idx, recon + idx);
  });
}

/// Row (i0, i1) of the rank-3 quantize pass.
template <typename T>
inline void lorenzo3_row_ref(const T* values, std::size_t i0, std::size_t i1,
                             std::size_t n1, std::size_t n2, double eb,
                             std::uint32_t bins, std::uint32_t* codes,
                             T* recon) {
  lorenzo3_row_walk(recon, i0, i1, n1, n2, [&](std::size_t idx, double pred) {
    lorenzo_point_ref(values[idx], pred, eb, bins, codes + idx, recon + idx);
  });
}

/// Exact semantics of sz::quantize_pass + LorenzoPredictor rank 2 +
/// LinearQuantizer, fused into one rank-specialized pass.
template <typename T>
inline std::size_t lorenzo2_quant_ref(const T* values, std::size_t n0,
                                      std::size_t n1, double eb,
                                      std::uint32_t bins, std::uint32_t* codes,
                                      T* recon, T* outliers) {
  for (std::size_t i0 = 0; i0 < n0; ++i0)
    lorenzo2_row_ref(values, i0, n1, eb, bins, codes, recon);
  return lorenzo_collect_outliers(values, codes, n0 * n1, outliers);
}

/// The rank-3 counterpart of lorenzo2_quant_ref (outliers stay marked by
/// code 0; see kernels.h).
template <typename T>
inline void lorenzo3_quant_ref(const T* values, std::size_t n0,
                               std::size_t n1, std::size_t n2, double eb,
                               std::uint32_t bins, std::uint32_t* codes,
                               T* recon) {
  for (std::size_t i0 = 0; i0 < n0; ++i0)
    for (std::size_t i1 = 0; i1 < n1; ++i1)
      lorenzo3_row_ref(values, i0, i1, n1, n2, eb, bins, codes, recon);
}

// --- Lorenzo reconstruct ---------------------------------------------------

/// The decode of one nonzero code: LinearQuantizer::dequantize added to the
/// prediction, cast to T. Code 0 points keep the outlier already in place.
template <typename T>
inline void lorenzo_recon_point_ref(std::uint32_t code, double pred,
                                    double eb, std::uint32_t radius,
                                    T* rec_out) {
  if (code == 0) return;
  *rec_out = static_cast<T>(
      pred + (static_cast<double>(code) - static_cast<double>(radius)) * 2.0 *
                 eb);
}

/// Row i0 of the rank-2 reconstruct pass.
template <typename T>
inline void lorenzo2_recon_row_ref(const std::uint32_t* codes, std::size_t i0,
                                   std::size_t n1, double eb,
                                   std::uint32_t bins, T* recon) {
  lorenzo2_row_walk(recon, i0, n1, [&](std::size_t idx, double pred) {
    lorenzo_recon_point_ref(codes[idx], pred, eb, bins / 2, recon + idx);
  });
}

/// Row (i0, i1) of the rank-3 reconstruct pass.
template <typename T>
inline void lorenzo3_recon_row_ref(const std::uint32_t* codes, std::size_t i0,
                                   std::size_t i1, std::size_t n1,
                                   std::size_t n2, double eb,
                                   std::uint32_t bins, T* recon) {
  lorenzo3_row_walk(recon, i0, i1, n1, n2, [&](std::size_t idx, double pred) {
    lorenzo_recon_point_ref(codes[idx], pred, eb, bins / 2, recon + idx);
  });
}

/// Exact semantics of sz::reconstruct_pass + LorenzoPredictor rank 2 +
/// LinearQuantizer::dequantize, on validated codes with outliers placed.
template <typename T>
inline void lorenzo2_recon_ref(const std::uint32_t* codes, std::size_t n0,
                               std::size_t n1, double eb, std::uint32_t bins,
                               T* recon) {
  for (std::size_t i0 = 0; i0 < n0; ++i0)
    lorenzo2_recon_row_ref(codes, i0, n1, eb, bins, recon);
}

/// The rank-3 counterpart of lorenzo2_recon_ref.
template <typename T>
inline void lorenzo3_recon_ref(const std::uint32_t* codes, std::size_t n0,
                               std::size_t n1, std::size_t n2, double eb,
                               std::uint32_t bins, T* recon) {
  for (std::size_t i0 = 0; i0 < n0; ++i0)
    for (std::size_t i1 = 0; i1 < n1; ++i1)
      lorenzo3_recon_row_ref(codes, i0, i1, n1, n2, eb, bins, recon);
}

// --- SSE accumulators ------------------------------------------------------

inline double sse_f32_ref(const float* a, const float* b, std::size_t n) {
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double e0 = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    const double e1 =
        static_cast<double>(a[i + 1]) - static_cast<double>(b[i + 1]);
    const double e2 =
        static_cast<double>(a[i + 2]) - static_cast<double>(b[i + 2]);
    const double e3 =
        static_cast<double>(a[i + 3]) - static_cast<double>(b[i + 3]);
    a0 += e0 * e0;
    a1 += e1 * e1;
    a2 += e2 * e2;
    a3 += e3 * e3;
  }
  double total = (a0 + a1) + (a2 + a3);
  for (; i < n; ++i) {
    const double e = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    total += e * e;
  }
  return total;
}

inline double sse_f64_ref(const double* a, const double* b, std::size_t n) {
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double e0 = a[i] - b[i];
    const double e1 = a[i + 1] - b[i + 1];
    const double e2 = a[i + 2] - b[i + 2];
    const double e3 = a[i + 3] - b[i + 3];
    a0 += e0 * e0;
    a1 += e1 * e1;
    a2 += e2 * e2;
    a3 += e3 * e3;
  }
  double total = (a0 + a1) + (a2 + a3);
  for (; i < n; ++i) {
    const double e = a[i] - b[i];
    total += e * e;
  }
  return total;
}

inline double sse_cast_f32_ref(const float* values, const double* recon,
                               std::size_t n) {
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double e0 = static_cast<double>(values[i]) -
                      static_cast<double>(static_cast<float>(recon[i]));
    const double e1 = static_cast<double>(values[i + 1]) -
                      static_cast<double>(static_cast<float>(recon[i + 1]));
    const double e2 = static_cast<double>(values[i + 2]) -
                      static_cast<double>(static_cast<float>(recon[i + 2]));
    const double e3 = static_cast<double>(values[i + 3]) -
                      static_cast<double>(static_cast<float>(recon[i + 3]));
    a0 += e0 * e0;
    a1 += e1 * e1;
    a2 += e2 * e2;
    a3 += e3 * e3;
  }
  double total = (a0 + a1) + (a2 + a3);
  for (; i < n; ++i) {
    const double e = static_cast<double>(values[i]) -
                     static_cast<double>(static_cast<float>(recon[i]));
    total += e * e;
  }
  return total;
}

}  // namespace
}  // namespace fpsnr::simd
