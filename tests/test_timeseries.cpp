// Tests for the temporally coherent snapshot generator and the
// fixed-NRMSE control mode added alongside it.
#include "data/timeseries.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "core/pipeline.h"
#include "metrics/metrics.h"

namespace data = fpsnr::data;
namespace core = fpsnr::core;
namespace metrics = fpsnr::metrics;

TEST(TimeSeries, ShapeAndNames) {
  data::TimeSeriesConfig cfg;
  cfg.dims = data::Dims{16, 24};
  cfg.snapshots = 5;
  const auto series = data::make_advected_series(cfg);
  ASSERT_EQ(series.size(), 5u);
  for (std::size_t t = 0; t < series.size(); ++t) {
    EXPECT_EQ(series[t].name, "t" + std::to_string(t));
    EXPECT_EQ(series[t].dims, cfg.dims);
  }
}

TEST(TimeSeries, Deterministic) {
  data::TimeSeriesConfig cfg;
  cfg.dims = data::Dims{16, 16};
  cfg.snapshots = 3;
  const auto a = data::make_advected_series(cfg);
  const auto b = data::make_advected_series(cfg);
  EXPECT_EQ(a[2].values, b[2].values);
  cfg.seed += 1;
  const auto c = data::make_advected_series(cfg);
  EXPECT_NE(a[2].values, c[2].values);
}

TEST(TimeSeries, TemporalCoherenceDecaysWithDistance) {
  data::TimeSeriesConfig cfg;
  cfg.dims = data::Dims{32, 32};
  cfg.snapshots = 12;
  const auto series = data::make_advected_series(cfg);
  // Adjacent snapshots must be much closer than distant ones.
  const auto near = metrics::compare<float>(series[0].span(), series[1].span());
  const auto far = metrics::compare<float>(series[0].span(), series[8].span());
  EXPECT_LT(near.rmse, far.rmse);
  EXPECT_GT(near.psnr_db, far.psnr_db + 3.0);
}

TEST(TimeSeries, InterpolationErrorGrowsWithGap) {
  data::TimeSeriesConfig cfg;
  cfg.dims = data::Dims{32, 32};
  cfg.snapshots = 9;
  const auto series = data::make_advected_series(cfg);
  // Interpolating t=1 from (0,2) beats interpolating t=4 from (0,8).
  const auto tight = data::interpolate_snapshots(series[0], series[2], 0.5);
  const auto wide = data::interpolate_snapshots(series[0], series[8], 0.5);
  const auto rep_tight = metrics::compare<float>(series[1].span(), tight.span());
  const auto rep_wide = metrics::compare<float>(series[4].span(), wide.span());
  EXPECT_GT(rep_tight.psnr_db, rep_wide.psnr_db);
}

TEST(TimeSeries, InterpolationValidation) {
  data::TimeSeriesConfig cfg;
  cfg.dims = data::Dims{8, 8};
  cfg.snapshots = 2;
  const auto series = data::make_advected_series(cfg);
  EXPECT_THROW(data::interpolate_snapshots(series[0], series[1], 1.5),
               std::invalid_argument);
  data::Field other("x", data::Dims{8, 9});
  EXPECT_THROW(data::interpolate_snapshots(series[0], other, 0.5),
               std::invalid_argument);
}

TEST(TimeSeries, InterpolationShapeErrorsAreTyped) {
  data::TimeSeriesConfig cfg;
  cfg.dims = data::Dims{8, 8};
  cfg.snapshots = 2;
  const auto series = data::make_advected_series(cfg);

  // Shape problems are the dedicated subtype (still catchable as
  // invalid_argument — InterpolationValidation above proves that).
  data::Field other("x", data::Dims{8, 9});
  EXPECT_THROW(data::interpolate_snapshots(series[0], other, 0.5),
               data::FieldShapeError);

  // A values vector resized out of sync with its dims would index out of
  // bounds; it must be the same typed shape error, not UB.
  data::Field truncated = series[1];
  truncated.values.resize(10);
  EXPECT_THROW(data::interpolate_snapshots(series[0], truncated, 0.5),
               data::FieldShapeError);

  // NaN alpha fails every ordered comparison, so the naive
  // `alpha < 0 || alpha > 1` check would let it through and poison the
  // whole output; it must be rejected like any other out-of-range alpha.
  EXPECT_THROW(
      data::interpolate_snapshots(series[0], series[1],
                                  std::numeric_limits<double>::quiet_NaN()),
      std::invalid_argument);
}

namespace {

/// FNV-1a 64 over a series' raw value bytes — one order-sensitive digest
/// per generator config for the golden-determinism pins below.
template <typename FieldT>
std::uint64_t series_checksum(const std::vector<FieldT>& series) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& f : series) {
    const auto* bytes = reinterpret_cast<const std::uint8_t*>(f.values.data());
    const std::size_t n =
        f.values.size() * sizeof(typename decltype(f.values)::value_type);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

}  // namespace

TEST(TimeSeries, F64SeriesSharesTheF32ModeTable) {
  // Same seed -> same mode table: the f64 series is the f32 series without
  // the final float rounding, so casting it down reproduces the f32 values
  // bit for bit. This is what makes the two generators one dataset.
  data::TimeSeriesConfig cfg;
  cfg.dims = data::Dims{16, 16};
  cfg.snapshots = 3;
  const auto f32 = data::make_advected_series(cfg);
  const auto f64 = data::make_advected_series_f64(cfg);
  ASSERT_EQ(f32.size(), f64.size());
  for (std::size_t t = 0; t < f32.size(); ++t) {
    EXPECT_EQ(f64[t].name, f32[t].name);
    ASSERT_EQ(f64[t].values.size(), f32[t].values.size());
    for (std::size_t i = 0; i < f32[t].values.size(); ++i)
      ASSERT_EQ(static_cast<float>(f64[t].values[i]), f32[t].values[i])
          << "t=" << t << " i=" << i;
  }
}

TEST(TimeSeries, SupportsEveryRank) {
  data::TimeSeriesConfig cfg;
  cfg.snapshots = 2;
  cfg.dims = data::Dims{64};
  const auto r1 = data::make_advected_series(cfg);
  EXPECT_EQ(r1[0].values.size(), 64u);
  cfg.dims = data::Dims{8, 8, 8};
  const auto r3 = data::make_advected_series(cfg);
  EXPECT_EQ(r3[0].values.size(), 512u);
  const auto r3d = data::make_advected_series_f64(cfg);
  EXPECT_EQ(r3d[0].values.size(), 512u);
  // A rank-3 field is not constant along the last axis (a regression here
  // would mean the generator ignores the k coordinate).
  EXPECT_NE(r3[0].values[0], r3[0].values[1]);
}

TEST(TimeSeries, GoldenChecksumPerConfig) {
  // One pinned digest per generator config: any change to the mode table,
  // the RNG consumption order, or the evaluation sweep shows up here
  // before it silently invalidates benchmarks pinned to this data.
  data::TimeSeriesConfig r2;
  r2.dims = data::Dims{16, 16};
  r2.snapshots = 3;
  data::TimeSeriesConfig r3;
  r3.dims = data::Dims{8, 8, 8};
  r3.snapshots = 2;
  data::TimeSeriesConfig r1;
  r1.dims = data::Dims{64};
  r1.snapshots = 2;
#if defined(__linux__) && defined(__x86_64__)
  // The generator evaluates std::cos in double precision; the pins are
  // exact on x86-64 Linux (glibc libm). Other platforms' libm may round
  // differently, so they assert run-to-run determinism below instead.
  EXPECT_EQ(series_checksum(data::make_advected_series(r2)),
            0x74c3801bfb9a54d8ull);
  EXPECT_EQ(series_checksum(data::make_advected_series(r3)),
            0xe5d9a38c7444928cull);
  EXPECT_EQ(series_checksum(data::make_advected_series(r1)),
            0x8d436effa60225b9ull);
  EXPECT_EQ(series_checksum(data::make_advected_series_f64(r3)),
            0x6b4bc8745cd4cfdcull);
#endif
  EXPECT_EQ(series_checksum(data::make_advected_series(r2)),
            series_checksum(data::make_advected_series(r2)));
  EXPECT_EQ(series_checksum(data::make_advected_series_f64(r3)),
            series_checksum(data::make_advected_series_f64(r3)));
}

TEST(TimeSeries, ConfigValidation) {
  data::TimeSeriesConfig cfg;
  cfg.snapshots = 0;
  EXPECT_THROW(data::make_advected_series(cfg), std::invalid_argument);
  cfg.snapshots = 1;
  cfg.modes = 0;
  EXPECT_THROW(data::make_advected_series(cfg), std::invalid_argument);
}

TEST(FixedNrmse, EquivalentToPsnrForm) {
  // NRMSE 1e-4 == 80 dB; both requests must resolve identically.
  const auto a = core::resolve_control(core::ControlRequest::fixed_nrmse(1e-4));
  const auto b = core::resolve_control(core::ControlRequest::fixed_psnr(80.0));
  EXPECT_NEAR(a.sz_bound, b.sz_bound, 1e-15);
  EXPECT_NEAR(a.predicted_psnr_db, 80.0, 1e-9);
}

TEST(FixedNrmse, EndToEnd) {
  data::TimeSeriesConfig cfg;
  cfg.dims = data::Dims{48, 48};
  cfg.snapshots = 1;
  const auto series = data::make_advected_series(cfg);
  const auto& f = series[0];
  const auto r = core::compress_blocked<float>(
      f.span(), f.dims, core::ControlRequest::fixed_nrmse(1e-3));
  const auto decoded = core::decompress<float>(r.stream);
  const auto rep = metrics::compare<float>(f.span(), decoded.values);
  EXPECT_NEAR(rep.nrmse, 1e-3, 3e-4);
}

TEST(FixedNrmse, Validation) {
  EXPECT_THROW(core::resolve_control(core::ControlRequest::fixed_nrmse(0.0)),
               std::invalid_argument);
  EXPECT_THROW(core::resolve_control(core::ControlRequest::fixed_nrmse(1.5)),
               std::invalid_argument);
}
