// Error-control modes and compression parameters for the SZ-style codec.
//
// The paper (§II-B) distinguishes: absolute error bound, pointwise relative
// error bound, and value-range-based relative error bound (SZ's three
// traditional modes). The fixed-PSNR mode of the paper — and a fixed-rate
// extension — live one layer up in src/core, which resolves both to a
// value-range relative bound before invoking this codec.
#pragma once

#include <cstdint>
#include <string_view>

#include "lossless/backend.h"

namespace fpsnr::sz {

enum class ErrorBoundMode : std::uint8_t {
  /// |x_i - x~_i| <= bound for every point.
  Absolute = 0,
  /// |x_i - x~_i| <= bound * (max(X) - min(X)).
  ValueRangeRelative = 1,
  /// |x_i - x~_i| <= bound * |x_i| for every point (log-domain transform).
  PointwiseRelative = 2,
};

std::string_view mode_name(ErrorBoundMode m);

/// Prediction scheme for step (1) of the pipeline.
enum class Predictor : std::uint8_t {
  /// Order-1 Lorenzo on reconstructed neighbours (SZ 1.4 — the paper).
  Lorenzo = 0,
  /// Per-block choice between Lorenzo and a transmitted linear-regression
  /// model (SZ 2.x evolution). Same error bound, same fixed-PSNR model
  /// (Theorem 1 holds for any predictor shared by both codec sides).
  HybridRegression = 1,
};

std::string_view predictor_name(Predictor p);

/// Parameters for one compression run.
struct Params {
  ErrorBoundMode mode = ErrorBoundMode::ValueRangeRelative;
  double bound = 1e-4;

  Predictor predictor = Predictor::Lorenzo;

  /// Number of quantization bins (2n in the paper's notation). Bin size is
  /// fixed at 2*eb_abs; more bins means fewer unpredictable points, not a
  /// different bin size. Must be >= 4 and even.
  std::uint32_t quantization_bins = 65536;

  /// Final lossless stage over the entropy-coded stream.
  lossless::Method backend = lossless::Method::Deflate;

  /// Magnitudes below this floor are stored exactly in PointwiseRelative
  /// mode (log2 transform needs |x| > 0 and tiny values would otherwise
  /// dominate the log-domain value range).
  double pwrel_zero_floor = 1e-30;
};

/// Per-run statistics reported back by the codec (see codec.h).
struct CompressionInfo {
  double eb_abs_used = 0.0;       ///< absolute bound applied to the coded data
  double value_range = 0.0;       ///< value range of the original input
  std::size_t value_count = 0;
  std::size_t outlier_count = 0;  ///< points stored exactly (code 0)
  std::size_t compressed_bytes = 0;
  double compression_ratio = 0.0;
  double bit_rate = 0.0;          ///< compressed bits per value
  /// Exact sum of squared reconstruction errors (original vs what
  /// decompress will produce, in the stored scalar type).
  double achieved_sse = 0.0;
};

}  // namespace fpsnr::sz
