// End-to-end integration tests: generate -> compress -> decompress ->
// measure across all three dataset stand-ins, all error modes, and both
// codec families, mirroring the paper's full evaluation loop at small scale.
#include <gtest/gtest.h>

#include <cmath>

#include "core/batch.h"
#include "core/pipeline.h"
#include "core/distortion_model.h"
#include "core/search_baseline.h"
#include "data/dataset.h"
#include "metrics/metrics.h"

namespace core = fpsnr::core;
namespace data = fpsnr::data;
namespace metrics = fpsnr::metrics;

namespace {

const data::DatasetConfig kSmall{0.4, 2026};

core::CompressResult compress_fixed_psnr(std::span<const float> values,
                                         const data::Dims& dims, double target) {
  return core::compress_blocked<float>(
      values, dims, core::ControlRequest::fixed_psnr(target));
}

metrics::ErrorReport verify_stream(std::span<const float> values,
                                   std::span<const std::uint8_t> stream) {
  const auto decoded = core::decompress<float>(stream);
  return metrics::compare<float>(values, decoded.values);
}

}  // namespace

TEST(Integration, AllDatasetsAllModesRoundTrip) {
  for (const auto& ds : data::make_all_datasets(kSmall)) {
    // One representative field per dataset keeps runtime in check.
    const auto& f = ds.fields.front();
    const double vr = metrics::value_range<float>(f.span());

    struct ModeCase {
      core::ControlRequest request;
      const char* name;
    };
    const ModeCase cases[] = {
        {core::ControlRequest::absolute(vr * 1e-3), "abs"},
        {core::ControlRequest::relative(1e-3), "rel"},
        {core::ControlRequest::fixed_psnr(70.0), "psnr"},
    };
    for (const auto& c : cases) {
      const auto r = core::compress_blocked<float>(f.span(), f.dims, c.request);
      const auto rep = verify_stream(f.span(), r.stream);
      EXPECT_LE(rep.max_abs_error, vr * 1e-3 * (1 + 1e-9))
          << ds.name << "/" << f.name << " mode " << c.name
          << " (all three cases bound by ~1e-3 vr)";
    }
  }
}

TEST(Integration, Table2ShapeAtModerateScale) {
  // Miniature Table II: for every dataset, AVG tracks the target and the
  // 80 dB row is much tighter than the 20 dB row (paper Section V).
  for (const auto& ds : data::make_all_datasets(kSmall)) {
    const auto r20 = core::run_fixed_psnr_batch(ds, 20.0);
    const auto r80 = core::run_fixed_psnr_batch(ds, 80.0);
    const auto s20 = r20.psnr_stats();
    const auto s80 = r80.psnr_stats();
    EXPECT_GE(s20.mean(), 19.0) << ds.name;          // never undershoots far
    EXPECT_NEAR(s80.mean(), 80.0, 1.5) << ds.name;   // tight at 80 dB
    EXPECT_LT(std::abs(s80.mean() - 80.0), std::abs(s20.mean() - 20.0) + 1.0)
        << ds.name;
  }
}

TEST(Integration, FixedPsnrSinglePassVsSearchManyPasses) {
  const auto ds = data::make_hurricane(kSmall);
  const auto& f = ds.field("U");
  // Fixed-PSNR: exactly one compression pass by construction.
  const auto fixed = compress_fixed_psnr(f.span(), f.dims, 75.0);
  const auto fixed_rep = verify_stream(f.span(), fixed.stream);
  // Search baseline from a bad starting point.
  core::SearchOptions opts;
  opts.tolerance_db = 0.5;
  opts.initial_rel_bound = 1e-7;
  const auto searched = core::search_fixed_psnr<float>(f.span(), f.dims, 75.0, opts);
  EXPECT_GT(searched.compression_passes, 1u);
  // Both land near the target; fixed-PSNR did it with 1/k of the work.
  EXPECT_NEAR(fixed_rep.psnr_db, 75.0, 1.5);
  EXPECT_NEAR(searched.achieved_psnr_db, 75.0, 1.0);
}

TEST(Integration, CompressionRatioOrderingAcrossTargets) {
  // Rate-distortion sanity on a full dataset: lower PSNR demand must give
  // strictly better average compression.
  const auto ds = data::make_nyx(kSmall);
  double prev_ratio = 0.0;
  for (double target : {120.0, 80.0, 40.0}) {
    const auto batch = core::run_fixed_psnr_batch(ds, target);
    double mean_ratio = 0.0;
    for (const auto& f : batch.fields) mean_ratio += f.compression_ratio;
    mean_ratio /= static_cast<double>(batch.fields.size());
    EXPECT_GT(mean_ratio, prev_ratio) << target;
    prev_ratio = mean_ratio;
  }
}

TEST(Integration, PredictedVsActualPsnrAcrossSweep) {
  // The analytical prediction (Eq. 7) should sit within a few dB of the
  // measured PSNR for moderate-to-high targets on every dataset.
  for (const auto& ds : data::make_all_datasets(kSmall)) {
    for (double target : {60.0, 90.0}) {
      const auto batch = core::run_fixed_psnr_batch(ds, target);
      for (const auto& f : batch.fields) {
        EXPECT_NEAR(f.predicted_psnr_db, target, 1e-9);
        // One-sided check: undershoot is bounded tightly; overshoot can be
        // large on sparse fields (their prediction errors concentrate far
        // inside the central bin — the paper's low-PSNR mechanism).
        EXPECT_GT(f.actual_psnr_db, target - 3.0)
            << ds.name << "/" << f.field_name << " @" << target;
        EXPECT_LT(f.actual_psnr_db, target + 30.0)
            << ds.name << "/" << f.field_name << " @" << target;
      }
    }
  }
}

TEST(Integration, StreamsAreSelfContained) {
  // Compress all hurricane fields, shuffle the streams, decompress from
  // bytes alone (no side data), verify each against its original by dims.
  const auto ds = data::make_hurricane(kSmall);
  std::vector<std::vector<std::uint8_t>> streams;
  for (const auto& f : ds.fields)
    streams.push_back(
        compress_fixed_psnr(f.span(), f.dims, 65.0).stream);
  for (std::size_t i = 0; i < streams.size(); ++i) {
    const auto out = core::decompress<float>(streams[i]);
    EXPECT_EQ(out.dims, ds.fields[i].dims);
    const auto rep = metrics::compare<float>(ds.fields[i].span(), out.values);
    EXPECT_GT(rep.psnr_db, 60.0);
  }
}
