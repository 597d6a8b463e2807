// SZ-style prediction-based error-bounded lossy codec.
//
// Pipeline (compression):
//   1. Lorenzo prediction from *reconstructed* neighbours (src/sz/lorenzo.h)
//   2. error-controlled linear-scaling quantization (src/sz/quantizer.h);
//      unpredictable points stored exactly as IEEE bits ("outliers")
//   3. canonical Huffman coding of the quantization codes (src/huffman)
//   4. DEFLATE-like lossless pass over the entropy-coded bytes (src/lossless)
//
// Guarantees:
//   * Absolute / ValueRangeRelative modes: |x_i - x~_i| <= eb_abs for all i.
//   * PointwiseRelative mode: |x_i - x~_i| <= bound * |x_i| for all i
//     (implemented with a log2-domain transform; see codec.cpp).
//   * Theorem 1: ||X - X~||_2 equals the L2 distortion of the prediction
//     errors — exposed for verification via prediction_trace().
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "data/field.h"
#include "sz/error_mode.h"
#include "sz/stream_format.h"

namespace fpsnr::sz {

/// Compress `values` (C-order grid of `dims`). Optionally reports run
/// statistics through `info`. A non-empty `recon` (values.size() long)
/// receives the values decompress() will return for these bytes, bit for
/// bit — the buffer the quantize pass keeps for its predictions anyway.
template <typename T>
std::vector<std::uint8_t> compress(std::span<const T> values,
                                   const data::Dims& dims, const Params& params,
                                   CompressionInfo* info = nullptr,
                                   std::span<T> recon = {});

template <typename T>
struct Decompressed {
  data::Dims dims;
  std::vector<T> values;
};

/// Decompress a stream produced by compress<T>. Throws io::StreamError on
/// malformed input or scalar-type mismatch.
template <typename T>
Decompressed<T> decompress(std::span<const std::uint8_t> stream);

/// decompress() straight into `out`, which must hold exactly as many values
/// as the stream's header dims; a different size is an io::StreamError
/// raised before anything is decoded. decompress() is this routine with a
/// buffer sized from the header.
template <typename T>
void decompress_into(std::span<const std::uint8_t> stream, std::span<T> out);

/// Resolve a (mode, bound) pair to the absolute bound the quantizer will
/// use, given the data's value range. For PointwiseRelative this is the
/// log2-domain bound. Exposed because core/psnr_control reasons about it.
double resolve_absolute_bound(ErrorBoundMode mode, double bound, double value_range);

/// Instrumentation for Theorem 1 and Fig. 1: the per-point prediction
/// errors (pe) of an actual compression pass and their quantized
/// reconstructions (pe_recon). For outlier points pe_recon == pe, i.e.
/// zero quantization-stage error, matching their exact storage.
struct PredictionTrace {
  std::vector<double> pe;
  std::vector<double> pe_recon;
};

/// Run the quantization pass only (no entropy stage) and return the trace.
template <typename T>
PredictionTrace prediction_trace(std::span<const T> values, const data::Dims& dims,
                                 double eb_abs, std::uint32_t bins = 65536);

extern template std::vector<std::uint8_t> compress<float>(
    std::span<const float>, const data::Dims&, const Params&, CompressionInfo*,
    std::span<float>);
extern template std::vector<std::uint8_t> compress<double>(
    std::span<const double>, const data::Dims&, const Params&, CompressionInfo*,
    std::span<double>);
extern template Decompressed<float> decompress<float>(std::span<const std::uint8_t>);
extern template Decompressed<double> decompress<double>(std::span<const std::uint8_t>);
extern template void decompress_into<float>(std::span<const std::uint8_t>,
                                            std::span<float>);
extern template void decompress_into<double>(std::span<const std::uint8_t>,
                                             std::span<double>);
extern template PredictionTrace prediction_trace<float>(
    std::span<const float>, const data::Dims&, double, std::uint32_t);
extern template PredictionTrace prediction_trace<double>(
    std::span<const double>, const data::Dims&, double, std::uint32_t);

}  // namespace fpsnr::sz
