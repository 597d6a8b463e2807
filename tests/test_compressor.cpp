// Tests for the engine entry points: core::compress_blocked under every
// control mode, and core::decompress's format dispatch.
#include "core/compressor.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/distortion_model.h"
#include "core/pipeline.h"
#include "data/synth.h"
#include "metrics/metrics.h"
#include "transform/transform_codec.h"

namespace core = fpsnr::core;
namespace data = fpsnr::data;
namespace metrics = fpsnr::metrics;

namespace {

std::vector<float> sample_field(const data::Dims& dims, std::uint64_t seed) {
  auto v = data::smoothed_noise(dims, seed, 3, 2);
  data::rescale(v, 200.0f, 320.0f);
  return v;
}

/// One whole-field block (tile {0}): the paper's single-stream setting.
core::CompressOptions whole_field() {
  core::CompressOptions opts;
  opts.parallel.tile = {0};
  return opts;
}

core::CompressResult compress_fixed_psnr(
    std::span<const float> values, const data::Dims& dims, double target,
    const core::CompressOptions& opts = whole_field()) {
  return core::compress_blocked<float>(
      values, dims, core::ControlRequest::fixed_psnr(target), opts);
}

metrics::ErrorReport verify_stream(std::span<const float> values,
                                   std::span<const std::uint8_t> stream) {
  const auto decoded = core::decompress<float>(stream);
  return metrics::compare<float>(values, decoded.values);
}

}  // namespace

TEST(Compressor, FixedPsnrMeetsTargetWithinTolerance) {
  const data::Dims dims{64, 96};
  const auto values = sample_field(dims, 1);
  for (double target : {40.0, 60.0, 80.0, 100.0}) {
    const auto r = compress_fixed_psnr(values, dims, target);
    const auto rep = verify_stream(values, r.stream);
    // Accuracy claim of the paper: deviation within a few dB, tight at
    // moderate/high targets.
    EXPECT_NEAR(rep.psnr_db, target, 3.0) << "target " << target;
    EXPECT_NEAR(r.predicted_psnr_db, target, 1e-9);
  }
}

TEST(Compressor, HigherTargetCostsMoreBits) {
  const data::Dims dims{64, 64};
  const auto values = sample_field(dims, 2);
  double prev_rate = 0.0;
  for (double target : {30.0, 60.0, 90.0, 120.0}) {
    const auto r = compress_fixed_psnr(values, dims, target);
    EXPECT_GT(r.info.bit_rate, prev_rate) << "target " << target;
    prev_rate = r.info.bit_rate;
  }
}

TEST(Compressor, AbsoluteModePredictionCompletedFromData) {
  const data::Dims dims{48, 48};
  const auto values = sample_field(dims, 3);
  const auto r = core::compress_blocked<float>(
      values, dims, core::ControlRequest::absolute(0.01), whole_field());
  EXPECT_FALSE(std::isnan(r.predicted_psnr_db));
  const auto rep = verify_stream(values, r.stream);
  EXPECT_LE(rep.max_abs_error, 0.01 * (1.0 + 1e-9));
  // Eq. (7) prediction should be within a couple of dB of reality here.
  EXPECT_NEAR(rep.psnr_db, r.predicted_psnr_db, 2.5);
}

TEST(Compressor, PointwiseModeThroughPipeline) {
  const data::Dims dims{32, 32};
  auto values = sample_field(dims, 4);
  const auto r = core::compress_blocked<float>(
      values, dims, core::ControlRequest::pointwise(0.02));
  const auto out = core::decompress<float>(r.stream);
  for (std::size_t i = 0; i < values.size(); ++i)
    ASSERT_LE(std::abs(static_cast<double>(out.values[i]) - values[i]),
              0.02 * std::abs(static_cast<double>(values[i])));
}

TEST(Compressor, TransformEnginesHitPsnrTargets) {
  const data::Dims dims{64, 64};
  const auto values = sample_field(dims, 5);
  for (auto engine : {core::kCodecTransformHaar, core::kCodecTransformDct}) {
    core::CompressOptions opts;
    opts.engine = engine;
    const auto r = compress_fixed_psnr(values, dims, 70.0, opts);
    const auto rep = verify_stream(values, r.stream);
    // Theorem 2: aggregate distortion control holds; actual may exceed target.
    EXPECT_GT(rep.psnr_db, 69.0);
  }
}

TEST(Compressor, SelfDescribingDecompressDispatch) {
  const data::Dims dims{32, 32};
  const auto values = sample_field(dims, 6);
  // Legacy flat FPSZ / FPTC streams (what older archives hold) next to
  // the FPBK container every compression now writes.
  fpsnr::sz::Params sp;
  sp.bound = 1e-3;
  const auto flat_sz = fpsnr::sz::compress<float>(values, dims, sp);
  fpsnr::transform::Params tp;
  tp.bin_width = 0.05;
  const auto flat_tc = fpsnr::transform::compress<float>(values, dims, tp);
  const auto fpbk = compress_fixed_psnr(values, dims, 60.0).stream;
  // Same entry point decompresses all three formats.
  for (const auto* stream : {&flat_sz, &flat_tc, &fpbk})
    EXPECT_EQ(core::decompress<float>(*stream).values.size(), values.size());
}

TEST(Compressor, TransformEngineRejectsPointwise) {
  const data::Dims dims{16, 16};
  const auto values = sample_field(dims, 7);
  core::CompressOptions opts;
  opts.engine = core::kCodecTransformDct;
  EXPECT_THROW(core::compress_blocked<float>(
                   values, dims, core::ControlRequest::pointwise(0.01), opts),
               std::invalid_argument);
}

TEST(Compressor, FixedRateResolvesOneBound) {
  // FixedRate resolves to one bound for the field in the plan, so the
  // report carries that bound and Eq. 7's prediction of it, as FixedPsnr's
  // does.
  const data::Dims dims{64, 64};
  const auto values = sample_field(dims, 8);
  const auto r = core::compress_blocked<float>(
      values, dims, core::ControlRequest::fixed_rate(8.0));
  EXPECT_TRUE(core::is_block_stream(r.stream));
  EXPECT_GT(r.info.eb_abs_used, 0.0);
  EXPECT_DOUBLE_EQ(r.predicted_psnr_db,
                   core::psnr_for_abs_bound(r.info.eb_abs_used,
                                            r.info.value_range));
  EXPECT_DOUBLE_EQ(r.rel_bound_used,
                   r.info.eb_abs_used / r.info.value_range);
  const auto d = core::decompress<float>(r.stream);
  EXPECT_EQ(d.values.size(), values.size());
  // Invalid budgets are still rejected.
  EXPECT_THROW(core::compress_blocked<float>(
                   values, dims, core::ControlRequest::fixed_rate(0.0)),
               std::invalid_argument);
  EXPECT_THROW(core::compress_blocked<float>(
                   values, dims, core::ControlRequest::fixed_rate(-4.0)),
               std::invalid_argument);
}

TEST(Compressor, ReportedInfoConsistent) {
  const data::Dims dims{64, 64};
  const auto values = sample_field(dims, 9);
  const auto r = compress_fixed_psnr(values, dims, 80.0);
  EXPECT_EQ(r.info.value_count, values.size());
  EXPECT_EQ(r.info.compressed_bytes, r.stream.size());
  EXPECT_NEAR(r.info.compression_ratio,
              static_cast<double>(values.size() * 4) / r.stream.size(), 1e-9);
  EXPECT_NEAR(r.info.bit_rate, 8.0 * r.stream.size() / values.size(), 1e-9);
  EXPECT_NEAR(r.rel_bound_used, std::sqrt(3.0) * 1e-4, 1e-12);
}
