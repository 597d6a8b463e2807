#include "core/search_baseline.h"

#include <cmath>

#include "core/pipeline.h"
#include "metrics/metrics.h"

namespace fpsnr::core {

namespace {

/// One full probe: compress at `rel_bound`, decompress, measure PSNR.
template <typename T>
double probe_psnr(std::span<const T> values, const data::Dims& dims,
                  double rel_bound, const CompressOptions& options,
                  CompressResult* out) {
  CompressResult r = compress_blocked(
      values, dims, ControlRequest::relative(rel_bound), options);
  const auto decoded =
      decompress<T>(std::span<const std::uint8_t>(r.stream));
  const metrics::ErrorReport rep =
      metrics::compare<T>(values, decoded.values);
  if (out) *out = std::move(r);
  return rep.psnr_db;
}

}  // namespace

template <typename T>
SearchResult search_fixed_psnr(std::span<const T> values, const data::Dims& dims,
                               double target_psnr_db, const SearchOptions& options) {
  SearchResult sr;
  // PSNR decreases monotonically (in expectation) as the bound grows, so we
  // first expand a bracket [lo_bound, hi_bound] around the target, then
  // bisect in log space (bounds span many decades).
  double lo = options.initial_rel_bound;  // small bound => high PSNR
  double hi = options.initial_rel_bound;

  CompressResult probe;
  double psnr = probe_psnr(values, dims, lo, options.compress, &probe);
  ++sr.compression_passes;
  if (std::abs(psnr - target_psnr_db) <= options.tolerance_db) {
    sr.result = std::move(probe);
    sr.achieved_psnr_db = psnr;
    sr.converged = true;
    return sr;
  }
  if (psnr < target_psnr_db) {
    // Need a tighter bound: shrink lo until PSNR exceeds the target.
    while (sr.compression_passes < options.max_iterations) {
      hi = lo;
      lo /= 16.0;
      psnr = probe_psnr(values, dims, lo, options.compress, &probe);
      ++sr.compression_passes;
      if (psnr >= target_psnr_db) break;
    }
  } else {
    // Bound can be loosened: grow hi until PSNR drops below the target.
    while (sr.compression_passes < options.max_iterations) {
      lo = hi;
      hi *= 16.0;
      psnr = probe_psnr(values, dims, hi, options.compress, &probe);
      ++sr.compression_passes;
      if (psnr <= target_psnr_db) break;
    }
  }

  // Bisect in log space.
  double best_gap = std::abs(psnr - target_psnr_db);
  sr.result = std::move(probe);
  sr.achieved_psnr_db = psnr;
  while (sr.compression_passes < options.max_iterations &&
         best_gap > options.tolerance_db) {
    const double mid = std::sqrt(lo * hi);
    CompressResult mid_probe;
    const double mid_psnr =
        probe_psnr(values, dims, mid, options.compress, &mid_probe);
    ++sr.compression_passes;
    const double gap = std::abs(mid_psnr - target_psnr_db);
    if (gap < best_gap) {
      best_gap = gap;
      sr.result = std::move(mid_probe);
      sr.achieved_psnr_db = mid_psnr;
    }
    if (mid_psnr > target_psnr_db)
      lo = mid;  // still too accurate; loosen
    else
      hi = mid;
  }
  sr.converged = best_gap <= options.tolerance_db;
  return sr;
}

template SearchResult search_fixed_psnr<float>(std::span<const float>,
                                               const data::Dims&, double,
                                               const SearchOptions&);
template SearchResult search_fixed_psnr<double>(std::span<const double>,
                                                const data::Dims&, double,
                                                const SearchOptions&);

}  // namespace fpsnr::core
