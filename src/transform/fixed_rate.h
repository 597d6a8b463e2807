// ZFP-style fixed-rate transform codec.
//
// Like the FPTC codec this decorrelates with the orthonormal block DCT and
// quantizes coefficients on a uniform grid of bin width 2*eb (Theorem 2:
// coefficient-domain L2 error equals data-domain L2 error, so the Eq. 6
// fixed-PSNR model applies unchanged). The entropy stage is different —
// and is the point: instead of a data-dependent Huffman code, quantized
// indices are zigzag-mapped and bit-packed with one shared bit width per
// fixed-size coefficient group (ZFP's "common exponent + fixed precision"
// idea on our uniform grid). The rate of a group is known from one byte,
// decode is branch-free bit unpacking, and a group whose indices would
// overflow is escaped to raw IEEE doubles (exact). Stream magic "FPZR".
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "data/field.h"
#include "transform/transform_codec.h"

namespace fpsnr::transform {

struct FixedRateParams {
  double eb_abs = 1e-4;   ///< per-coefficient absolute bound (bin width 2*eb)
  std::size_t dct_block = 8;
  std::size_t group = 64;  ///< coefficients per fixed-width group (1..4096)
};

struct FixedRateInfo {
  std::size_t value_count = 0;
  std::size_t escaped_groups = 0;  ///< groups stored as raw doubles
  std::size_t compressed_bytes = 0;
  double bit_rate = 0.0;  ///< compressed bits per value
  /// Exact sum of squared reconstruction errors (original vs decode output).
  double achieved_sse = 0.0;
};

/// A non-empty `recon` (values.size() long) receives the values
/// fixed_rate_decompress() will return for the bytes, bit for bit.
template <typename T>
std::vector<std::uint8_t> fixed_rate_compress(std::span<const T> values,
                                              const data::Dims& dims,
                                              const FixedRateParams& params,
                                              FixedRateInfo* info = nullptr,
                                              std::span<T> recon = {});

template <typename T>
Decompressed<T> fixed_rate_decompress(std::span<const std::uint8_t> stream);

/// True if `stream` starts with the fixed-rate-codec magic "FPZR".
bool is_fixed_rate_stream(std::span<const std::uint8_t> stream);

extern template std::vector<std::uint8_t> fixed_rate_compress<float>(
    std::span<const float>, const data::Dims&, const FixedRateParams&,
    FixedRateInfo*, std::span<float>);
extern template std::vector<std::uint8_t> fixed_rate_compress<double>(
    std::span<const double>, const data::Dims&, const FixedRateParams&,
    FixedRateInfo*, std::span<double>);
extern template Decompressed<float> fixed_rate_decompress<float>(
    std::span<const std::uint8_t>);
extern template Decompressed<double> fixed_rate_decompress<double>(
    std::span<const std::uint8_t>);

}  // namespace fpsnr::transform
