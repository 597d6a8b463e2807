// Search-based error-bound tuning — the *status quo ante* the paper
// replaces (Section I: "users have to run the lossy compressor multiple
// times each with different error-bound settings").
//
// Implements the tedious workflow as an honest baseline: bisection over
// the value-range relative bound, compressing and decompressing at every
// probe until the measured PSNR lands within a tolerance of the target.
// The overhead benchmark contrasts its k full passes against the
// fixed-PSNR mode's single pass.
//
// Fixed rate has no baseline here: it is a pipeline mode
// (ControlRequest::fixed_rate), whose plan step searches one bound for the
// whole field (core/pipeline.h).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/compressor.h"

namespace fpsnr::core {

struct SearchOptions {
  double tolerance_db = 0.5;     ///< |achieved - target| acceptance window
  std::size_t max_iterations = 40;
  double initial_rel_bound = 1e-2;
  CompressOptions compress = {};
};

struct SearchResult {
  CompressResult result;          ///< the accepted compression
  double achieved_psnr_db = 0.0;
  std::size_t compression_passes = 0;    ///< full compress+decompress probes
  bool converged = false;
};

/// Baseline: find a relative bound whose *measured* PSNR hits the target.
template <typename T>
SearchResult search_fixed_psnr(std::span<const T> values, const data::Dims& dims,
                               double target_psnr_db,
                               const SearchOptions& options = {});

extern template SearchResult search_fixed_psnr<float>(std::span<const float>,
                                                      const data::Dims&, double,
                                                      const SearchOptions&);
extern template SearchResult search_fixed_psnr<double>(std::span<const double>,
                                                       const data::Dims&, double,
                                                       const SearchOptions&);

}  // namespace fpsnr::core
