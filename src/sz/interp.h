// SZ3-style multi-level interpolation predictor codec.
//
// Instead of Lorenzo's causal neighbour stencil, points are visited level
// by level over the C-order scan: index 0 is coded against a zero
// prediction, then for strides s = 2^k, ..., 2, 1 every odd multiple of s
// is predicted by *linear interpolation* of its already-reconstructed
// neighbours at distance s (falling back to the left neighbour at the
// array tail). Predictions always read the reconstruction buffer, so the
// decoder replays them bit for bit and the pointwise guarantee
// |x_i - x~_i| <= eb_abs holds exactly as in the Lorenzo codec — which is
// what lets the block pipeline reuse the same fixed-PSNR budget model
// (Eq. 6) unchanged.
//
// Residuals go through the standard back end: linear-scaling quantization
// (bin width 2*eb), canonical Huffman, lossless backend. Stream magic is
// "FPIN".
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "data/field.h"
#include "lossless/backend.h"
#include "sz/codec.h"

namespace fpsnr::sz {

struct InterpParams {
  double eb_abs = 1e-4;  ///< absolute pointwise error bound (> 0)
  std::uint32_t quantization_bins = 65536;
  lossless::Method backend = lossless::Method::Deflate;
};

struct InterpInfo {
  std::size_t value_count = 0;
  std::size_t outlier_count = 0;  ///< points stored exactly (code 0)
  std::size_t compressed_bytes = 0;
  /// Exact sum of squared reconstruction errors (original vs decode output).
  double achieved_sse = 0.0;
};

/// A non-empty `recon` (values.size() long) receives the values
/// interp_decompress() will return for the bytes, bit for bit.
template <typename T>
std::vector<std::uint8_t> interp_compress(std::span<const T> values,
                                          const data::Dims& dims,
                                          const InterpParams& params,
                                          InterpInfo* info = nullptr,
                                          std::span<T> recon = {});

template <typename T>
Decompressed<T> interp_decompress(std::span<const std::uint8_t> stream);

/// True if `stream` starts with the interpolation-codec magic "FPIN".
bool is_interp_stream(std::span<const std::uint8_t> stream);

extern template std::vector<std::uint8_t> interp_compress<float>(
    std::span<const float>, const data::Dims&, const InterpParams&, InterpInfo*,
    std::span<float>);
extern template std::vector<std::uint8_t> interp_compress<double>(
    std::span<const double>, const data::Dims&, const InterpParams&, InterpInfo*,
    std::span<double>);
extern template Decompressed<float> interp_decompress<float>(
    std::span<const std::uint8_t>);
extern template Decompressed<double> interp_decompress<double>(
    std::span<const std::uint8_t>);

}  // namespace fpsnr::sz
