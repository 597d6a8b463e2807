// Adaptive per-block budget allocation: the size win, the preserved
// fixed-PSNR guarantee, the exact-PSNR reporting chain, and the store
// auto-fallback for incompressible blocks.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "core/pipeline.h"
#include "data/synth.h"
#include "metrics/metrics.h"

namespace core = fpsnr::core;
namespace data = fpsnr::data;
namespace metrics = fpsnr::metrics;

namespace {

core::CompressOptions opts_with(core::CodecId engine, core::BudgetMode budget,
                                std::size_t slab_rows) {
  core::CompressOptions opts;
  opts.engine = engine;
  opts.budget = budget;
  opts.parallel.tile = {slab_rows};
  return opts;
}

/// Smooth synthetic field with heterogeneous information content: most of
/// the domain is flat (a masked/ocean region, the donor blocks) and the
/// rest carries correlated texture (the receiver blocks). This is the
/// CESM-like shape the adaptive planner is built for.
std::vector<float> donor_receiver_field(const data::Dims& dims,
                                        std::size_t flat_rows) {
  const std::size_t row = dims.count() / dims[0];
  std::vector<float> v(dims.count(), 1.5f);
  std::mt19937_64 rng(99);
  std::uniform_real_distribution<float> u(-1.0f, 1.0f);
  float prev = 0.0f;
  for (std::size_t r = flat_rows; r < dims[0]; ++r)
    for (std::size_t c = 0; c < row; ++c) {
      prev = 0.9f * prev + 0.4f * u(rng);
      v[r * row + c] = 2.0f * prev;
    }
  return v;
}

}  // namespace

TEST(AdaptiveBudget, NeverLargerThanUniformAndStrictlySmallerWithDonors) {
  // The acceptance contract: adaptive <= uniform at the same target, and
  // strictly smaller when the field has budget to reclaim.
  const data::Dims dims{128, 128};
  const auto values = donor_receiver_field(dims, 96);
  const std::span<const float> span(values);
  const auto request = core::ControlRequest::fixed_psnr(60.0);

  const auto uni = core::compress_blocked<float>(
      span, dims, request, opts_with(core::kCodecSzLorenzo,
                                     core::BudgetMode::Uniform, 16));
  const auto ada = core::compress_blocked<float>(
      span, dims, request, opts_with(core::kCodecSzLorenzo,
                                     core::BudgetMode::Adaptive, 16));

  EXPECT_LT(ada.stream.size(), uni.stream.size())
      << "adaptive budgets must strictly beat uniform when donor blocks "
         "exist";

  // Both must still honour the fixed-PSNR target.
  const auto out_u = core::decompress_blocked<float>(uni.stream);
  const auto out_a = core::decompress_blocked<float>(ada.stream);
  const auto rep_u = metrics::compare<float>(values, out_u.values);
  const auto rep_a = metrics::compare<float>(values, out_a.values);
  EXPECT_GE(rep_u.psnr_db, 57.5);
  EXPECT_GE(rep_a.psnr_db, 57.5);

  // The adaptive container says so on the wire.
  const auto info = core::inspect_block_stream(ada.stream);
  EXPECT_EQ(info.budget_mode, core::BudgetMode::Adaptive);
  EXPECT_EQ(core::inspect_block_stream(uni.stream).budget_mode,
            core::BudgetMode::Uniform);
}

TEST(AdaptiveBudget, DegeneratesToUniformBytesOnHomogeneousField) {
  // A field with no donor blocks must produce a container byte-identical
  // to the uniform plan — adaptive mode never costs anything.
  const data::Dims dims{96, 64};
  auto values = data::white_noise(dims.count(), 5);
  data::rescale(values, -1.0f, 1.0f);
  const std::span<const float> span(values);
  const auto request = core::ControlRequest::fixed_psnr(80.0);

  const auto uni = core::compress_blocked<float>(
      span, dims, request, opts_with(core::kCodecSzLorenzo,
                                     core::BudgetMode::Uniform, 16));
  const auto ada = core::compress_blocked<float>(
      span, dims, request, opts_with(core::kCodecSzLorenzo,
                                     core::BudgetMode::Adaptive, 16));
  EXPECT_EQ(ada.stream, uni.stream);
}

TEST(AdaptiveBudget, PointwiseBoundModesAlwaysCompressUniform) {
  // Absolute / value-range-relative requests promise |err| <= bound for
  // every point; adaptive reallocation would widen receiver blocks past
  // it, so those modes must silently keep the uniform plan — bytes
  // identical, bound intact.
  const data::Dims dims{128, 64};
  const auto values = donor_receiver_field(dims, 80);
  const std::span<const float> span(values);

  for (const auto request : {core::ControlRequest::absolute(0.01),
                             core::ControlRequest::relative(1e-3)}) {
    const auto uni = core::compress_blocked<float>(
        span, dims, request, opts_with(core::kCodecSzLorenzo,
                                       core::BudgetMode::Uniform, 16));
    const auto ada = core::compress_blocked<float>(
        span, dims, request, opts_with(core::kCodecSzLorenzo,
                                       core::BudgetMode::Adaptive, 16));
    EXPECT_EQ(ada.stream, uni.stream)
        << "mode " << static_cast<int>(request.mode);
    const auto out = core::decompress_blocked<float>(ada.stream);
    const auto rep = metrics::compare<float>(values, out.values);
    const auto info = core::inspect_block_stream(ada.stream);
    EXPECT_EQ(info.budget_mode, core::BudgetMode::Uniform);
    EXPECT_LE(rep.max_abs_error, info.eb_abs * (1.0 + 1e-12))
        << "mode " << static_cast<int>(request.mode);
  }
}

TEST(AdaptiveBudget, PointwiseBoundStaysWithinWidenedAllowance) {
  // Receiver blocks may widen their bound to at most 4x the base; the
  // worst pointwise error must respect that for the predictor codecs.
  const data::Dims dims{128, 64};
  const auto values = donor_receiver_field(dims, 80);
  const std::span<const float> span(values);
  const auto request = core::ControlRequest::fixed_psnr(60.0);

  for (const core::CodecId e : {core::kCodecSzLorenzo, core::kCodecInterp}) {
    const auto ada = core::compress_blocked<float>(
        span, dims, request, opts_with(e, core::BudgetMode::Adaptive, 16));
    const auto out = core::decompress_blocked<float>(ada.stream);
    const auto rep = metrics::compare<float>(values, out.values);
    const auto info = core::inspect_block_stream(ada.stream);
    EXPECT_LE(rep.max_abs_error, 4.0 * info.eb_abs * (1.0 + 1e-12))
        << "engine " << static_cast<int>(e);
  }
}

TEST(AdaptiveBudget, IsolatedSpikesInFlatBlocksNeverGrowTheArchive) {
  // A flat block with an isolated spike has a tiny RMS first difference
  // but a large peak one; the donor bound's spike floor must keep every
  // residual quantizable, so adaptive never expands such fields past the
  // uniform plan.
  const data::Dims dims{128, 64};
  std::vector<float> values(dims.count(), 0.25f);
  std::mt19937_64 rng(13);
  std::uniform_real_distribution<float> mag(-5.0f, 5.0f);
  const std::size_t row = dims.count() / dims[0];
  for (std::size_t i = 0; i < dims.count(); i += 531) values[i] = mag(rng);
  for (std::size_t r = 96; r < dims[0]; ++r)  // one noisy receiver band
    for (std::size_t c = 0; c < row; ++c)
      values[r * row + c] = mag(rng) * 0.2f;
  const std::span<const float> span(values);

  for (const double target : {80.0, 120.0}) {
    const auto request = core::ControlRequest::fixed_psnr(target);
    const auto uni = core::compress_blocked<float>(
        span, dims, request, opts_with(core::kCodecSzLorenzo,
                                       core::BudgetMode::Uniform, 16));
    const auto ada = core::compress_blocked<float>(
        span, dims, request, opts_with(core::kCodecSzLorenzo,
                                       core::BudgetMode::Adaptive, 16));
    EXPECT_LE(ada.stream.size(), uni.stream.size()) << "target " << target;
    const auto out = core::decompress_blocked<float>(ada.stream);
    const auto rep = metrics::compare<float>(values, out.values);
    EXPECT_GE(rep.psnr_db, target - 2.0) << "target " << target;
  }
}

TEST(AdaptiveBudget, ReportedPsnrMatchesRecomputationExactly) {
  // The exact-PSNR chain: per-block achieved SSE recorded in the v2 index
  // must reproduce an independent PSNR recomputation to 1e-6 dB — through
  // the result object AND through a cold container re-open.
  const data::Dims dims{128, 128};
  const auto values = donor_receiver_field(dims, 96);
  const std::span<const float> span(values);
  const auto request = core::ControlRequest::fixed_psnr(60.0);

  for (const core::CodecId e :
       {core::kCodecSzLorenzo, core::kCodecTransformHaar,
        core::kCodecTransformDct, core::kCodecInterp,
        core::kCodecZfpRate}) {
    const auto ada = core::compress_blocked<float>(
        span, dims, request, opts_with(e, core::BudgetMode::Adaptive, 16));
    const auto out = core::decompress_blocked<float>(ada.stream);
    const auto rep = metrics::compare<float>(values, out.values);
    const auto info = core::inspect_block_stream(ada.stream);
    ASSERT_TRUE(std::isfinite(rep.psnr_db));
    EXPECT_NEAR(ada.achieved_psnr_db, rep.psnr_db, 1e-6)
        << "engine " << static_cast<int>(e);
    EXPECT_NEAR(info.achieved_psnr_db, rep.psnr_db, 1e-6)
        << "engine " << static_cast<int>(e);
    EXPECT_NEAR(info.achieved_sse, rep.mse * static_cast<double>(rep.count),
                rep.mse * rep.count * 1e-9)
        << "engine " << static_cast<int>(e);
  }
}

TEST(AdaptiveBudget, StoreFallbackBoundsIncompressibleOutput) {
  // Pure noise at an extreme 180 dB target is incompressible for every
  // lossy codec (each point becomes an exactly-stored outlier); the
  // per-block store fallback must cap the container at raw size plus the
  // fixed header/index overhead, and those blocks decode exactly.
  const data::Dims dims{64, 64};
  auto values = data::white_noise(dims.count(), 77);
  data::rescale(values, -1.0f, 1.0f);
  const std::span<const float> span(values);
  const auto request = core::ControlRequest::fixed_psnr(180.0);

  for (const core::CodecId e : {core::kCodecSzLorenzo, core::kCodecInterp,
                                core::kCodecTransformDct}) {
    const auto r = core::compress_blocked<float>(
        span, dims, request, opts_with(e, core::BudgetMode::Uniform, 16));
    const std::size_t raw = values.size() * sizeof(float);
    const auto info = core::inspect_block_stream(r.stream);
    // Header + (offset,size,sse) index row + store header per block.
    const std::size_t slack = 128 + info.block_count * (24 + 16);
    EXPECT_LE(r.stream.size(), raw + slack) << "engine " << static_cast<int>(e);

    const auto out = core::decompress_blocked<float>(r.stream);
    EXPECT_EQ(out.values, values)
        << "store-fallback blocks must decode exactly";
    EXPECT_TRUE(std::isinf(info.achieved_psnr_db));
  }
}

TEST(AdaptiveBudget, RandomAccessDecodesAdaptiveBlocks) {
  // Single-block random access must work when blocks carry different
  // bounds and some are store-demoted.
  const data::Dims dims{128, 32};
  const auto values = donor_receiver_field(dims, 64);
  const std::span<const float> span(values);
  const auto ada = core::compress_blocked<float>(
      span, dims, core::ControlRequest::fixed_psnr(60.0),
      opts_with(core::kCodecSzLorenzo, core::BudgetMode::Adaptive, 16));
  const auto full = core::decompress_blocked<float>(ada.stream);
  const auto info = core::inspect_block_stream(ada.stream);
  const std::size_t row = dims.count() / dims[0];
  for (std::size_t b = 0; b < info.block_count; ++b) {
    const auto block = core::decompress_block<float>(ada.stream, b);
    for (std::size_t i = 0; i < block.values.size(); ++i)
      ASSERT_EQ(block.values[i],
                full.values[b * info.tile[0] * row + i])
          << "block " << b << " value " << i;
  }
}
