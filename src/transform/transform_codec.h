// Orthogonal-transform-based lossy codec (the ZFP/SSEM-style baseline).
//
// Pipeline: orthonormal transform (multi-level Haar DWT or block DCT-II)
// -> uniform midpoint quantization of the coefficients with bin width
// delta -> canonical Huffman -> lossless backend. Because the transform is
// orthogonal, the L2 distortion added by coefficient quantization equals
// the L2 distortion of the reconstructed data (paper Theorem 2), so the
// same fixed-PSNR bin-width formula (Eq. 6) applies:
//     PSNR = 20 log10(vr / delta) + 10 log10(12).
//
// Unlike the SZ-style codec this gives no pointwise error bound — only
// the aggregate (PSNR) one, which is precisely the paper's point about
// transform coders.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "data/field.h"
#include "lossless/backend.h"

namespace fpsnr::transform {

enum class Kind : std::uint8_t {
  HaarMultiLevel = 0,
  BlockDct = 1,
};

struct Params {
  Kind kind = Kind::HaarMultiLevel;
  /// Quantization bin width delta applied to the transform coefficients.
  double bin_width = 1e-3;
  std::uint32_t quantization_bins = 65536;
  unsigned haar_levels = 4;        ///< clamped to max_haar_levels(dims)
  std::size_t dct_block = 8;
  lossless::Method backend = lossless::Method::Deflate;
};

struct Info {
  double bin_width = 0.0;
  double value_range = 0.0;
  std::size_t value_count = 0;
  std::size_t outlier_count = 0;   ///< coefficients stored exactly
  std::size_t compressed_bytes = 0;
  double compression_ratio = 0.0;
  double bit_rate = 0.0;
  /// Exact sum of squared reconstruction errors, measured by inverting the
  /// quantized coefficients and casting to the stored scalar type — i.e.
  /// against the values decompress will actually return, not the Theorem-2
  /// coefficient-domain estimate (which misses the final float cast).
  double achieved_sse = 0.0;
};

/// A non-empty `recon` (values.size() long) receives the values
/// decompress() will return for the bytes, bit for bit: the inverse
/// transform of the quantized coefficients, cast to T.
template <typename T>
std::vector<std::uint8_t> compress(std::span<const T> values, const data::Dims& dims,
                                   const Params& params, Info* info = nullptr,
                                   std::span<T> recon = {});

template <typename T>
struct Decompressed {
  data::Dims dims;
  std::vector<T> values;
};

template <typename T>
Decompressed<T> decompress(std::span<const std::uint8_t> stream);

/// What a flat FPTC stream's header records.
struct StreamHeader {
  std::uint8_t scalar = 0;  ///< 0 = float32, 1 = float64
  Kind kind = Kind::HaarMultiLevel;
  data::Dims dims;
  double bin_width = 0.0;
  double value_range = 0.0;
  std::uint32_t quant_bins = 0;
  unsigned haar_levels = 0;
  std::size_t dct_block = 8;
};

/// Parses and validates an FPTC header (no payload access). Throws
/// io::StreamError on bad magic, an unsupported version, or nonsensical
/// parameters.
StreamHeader inspect(std::span<const std::uint8_t> stream);

/// Theorem-2 instrumentation: forward-transform coefficients and their
/// quantized values from an actual pass (outlier coefficients repeated
/// exactly, i.e. zero coefficient-domain error).
struct CoefficientTrace {
  std::vector<double> coeffs;
  std::vector<double> coeffs_quantized;
};

template <typename T>
CoefficientTrace coefficient_trace(std::span<const T> values, const data::Dims& dims,
                                   const Params& params);

extern template std::vector<std::uint8_t> compress<float>(
    std::span<const float>, const data::Dims&, const Params&, Info*,
    std::span<float>);
extern template std::vector<std::uint8_t> compress<double>(
    std::span<const double>, const data::Dims&, const Params&, Info*,
    std::span<double>);
extern template Decompressed<float> decompress<float>(std::span<const std::uint8_t>);
extern template Decompressed<double> decompress<double>(std::span<const std::uint8_t>);
extern template CoefficientTrace coefficient_trace<float>(
    std::span<const float>, const data::Dims&, const Params&);
extern template CoefficientTrace coefficient_trace<double>(
    std::span<const double>, const data::Dims&, const Params&);

}  // namespace fpsnr::transform
