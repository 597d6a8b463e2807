// Tests for the search-based baseline (status quo the paper replaces) and
// the fixed-rate extension.
#include "core/search_baseline.h"

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "data/synth.h"

namespace core = fpsnr::core;
namespace data = fpsnr::data;

namespace {

std::vector<float> sample_field(const data::Dims& dims, std::uint64_t seed) {
  auto v = data::smoothed_noise(dims, seed, 2, 2);
  data::rescale(v, -1.0f, 1.0f);
  return v;
}

}  // namespace

TEST(SearchBaseline, ConvergesToTargetPsnr) {
  const data::Dims dims{48, 48};
  const auto values = sample_field(dims, 1);
  core::SearchOptions opts;
  opts.tolerance_db = 0.5;
  const auto sr = core::search_fixed_psnr<float>(values, dims, 70.0, opts);
  EXPECT_TRUE(sr.converged);
  EXPECT_NEAR(sr.achieved_psnr_db, 70.0, 0.5);
  EXPECT_GE(sr.compression_passes, 1u);
}

TEST(SearchBaseline, NeedsMultiplePassesGenerally) {
  // The whole point of the paper: the search burns several full passes
  // where fixed-PSNR needs exactly one.
  const data::Dims dims{48, 48};
  const auto values = sample_field(dims, 2);
  core::SearchOptions opts;
  opts.tolerance_db = 0.2;
  opts.initial_rel_bound = 1e-6;  // deliberately far from the answer
  const auto sr = core::search_fixed_psnr<float>(values, dims, 45.0, opts);
  EXPECT_TRUE(sr.converged);
  EXPECT_GT(sr.compression_passes, 3u);
}

TEST(SearchBaseline, SearchFromBothDirections) {
  const data::Dims dims{40, 40};
  const auto values = sample_field(dims, 3);
  core::SearchOptions opts;
  opts.tolerance_db = 0.75;
  // Start too tight (high PSNR) -> must loosen.
  opts.initial_rel_bound = 1e-7;
  auto sr = core::search_fixed_psnr<float>(values, dims, 50.0, opts);
  EXPECT_TRUE(sr.converged);
  // Start too loose (low PSNR) -> must tighten.
  opts.initial_rel_bound = 0.3;
  sr = core::search_fixed_psnr<float>(values, dims, 90.0, opts);
  EXPECT_TRUE(sr.converged);
  EXPECT_NEAR(sr.achieved_psnr_db, 90.0, 0.75);
}

TEST(SearchBaseline, PassBudgetRespected) {
  const data::Dims dims{32, 32};
  const auto values = sample_field(dims, 4);
  core::SearchOptions opts;
  opts.tolerance_db = 0.01;  // unreasonably tight
  opts.max_iterations = 5;
  const auto sr = core::search_fixed_psnr<float>(values, dims, 65.0, opts);
  EXPECT_LE(sr.compression_passes, 5u);
}

TEST(FixedRate, HitsRequestedBitRate) {
  // Fixed rate is a pipeline mode: one pass of the block pipeline, whose
  // plan searches the bound, lands the archive (header and index
  // included) within 0.5 bits/value of the request.
  const data::Dims dims{64, 64};
  const auto values = sample_field(dims, 5);
  for (double target_rate : {4.0, 8.0}) {
    const auto r = core::compress_blocked<float>(
        values, dims, core::ControlRequest::fixed_rate(target_rate));
    EXPECT_NEAR(r.info.bit_rate, target_rate, 0.5) << target_rate;
    EXPECT_NEAR(r.info.bit_rate, 8.0 * r.stream.size() / values.size(),
                1e-9);
  }
}

TEST(FixedRate, RateMonotoneInBound) {
  // Sanity for the bisection premise: looser bound => fewer bits.
  const data::Dims dims{64, 64};
  const auto values = sample_field(dims, 6);
  double prev_rate = 1e9;
  for (double eb : {1e-6, 1e-4, 1e-2}) {
    const auto r = core::compress_blocked<float>(
        values, dims, core::ControlRequest::relative(eb));
    EXPECT_LT(r.info.bit_rate, prev_rate);
    prev_rate = r.info.bit_rate;
  }
}
