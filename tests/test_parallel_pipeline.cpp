// Tests for the block-parallel pipeline engine (core/pipeline.h), the
// codec registry behind it, and the FPBK block-indexed container.
#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "core/codec_registry.h"
#include "data/synth.h"
#include "io/archive.h"
#include "io/bitstream.h"
#include "metrics/metrics.h"

namespace core = fpsnr::core;
namespace data = fpsnr::data;
namespace io = fpsnr::io;
namespace metrics = fpsnr::metrics;
namespace sz = fpsnr::sz;

namespace {

std::vector<float> sample_field(const data::Dims& dims, std::uint64_t seed) {
  auto v = data::smoothed_noise(dims, seed, 3, 2);
  data::rescale(v, -2.0f, 11.0f);
  return v;
}

core::CompressOptions pipeline_options(std::size_t threads,
                                       std::size_t slab_rows = 0) {
  core::CompressOptions opts;
  opts.parallel.threads = threads;
  if (slab_rows) opts.parallel.tile = {slab_rows};
  return opts;
}

/// Decode `stream` and report the error metrics against `values` (the old
/// core::verify shim, inlined now that Session is the public entry point).
template <typename T>
metrics::ErrorReport verify_stream(std::span<const T> values,
                                   std::span<const std::uint8_t> stream) {
  const auto decoded = core::decompress<T>(stream);
  return metrics::compare<T>(values, decoded.values);
}

}  // namespace

// --- determinism across thread counts --------------------------------------

TEST(ParallelPipeline, StreamBytesIndependentOfThreadCount) {
  const data::Dims dims{61, 40};  // not divisible by the block size
  const auto values = sample_field(dims, 3);
  const auto request = core::ControlRequest::fixed_psnr(70.0);

  const auto serial = core::compress_blocked<float>(values, dims, request,
                                                    pipeline_options(1, 8));
  for (std::size_t threads : {2u, 4u, 8u}) {
    const auto parallel = core::compress_blocked<float>(
        values, dims, request, pipeline_options(threads, 8));
    ASSERT_EQ(serial.stream, parallel.stream) << "threads=" << threads;
  }
}

TEST(ParallelPipeline, RoundTripIdenticalSerialVsParallel) {
  const data::Dims dims{48, 32};
  const auto values = sample_field(dims, 5);
  const auto request = core::ControlRequest::relative(1e-4);

  const auto a = core::compress_blocked<float>(values, dims, request,
                                               pipeline_options(1, 6));
  const auto b = core::compress_blocked<float>(values, dims, request,
                                               pipeline_options(4, 6));
  const auto da = core::decompress<float>(a.stream);
  const auto db = core::decompress_blocked<float>(b.stream, 4);
  EXPECT_EQ(da.values, db.values);
  EXPECT_EQ(da.dims, dims);
}

// --- fixed-PSNR adherence per thread count ---------------------------------

TEST(ParallelPipeline, PsnrTargetMetForEveryThreadCount) {
  const data::Dims dims{80, 50};
  const auto values = sample_field(dims, 7);
  const double target_db = 70.0;

  // The model is analytical (Eq. 6/7): achieved PSNR tracks the target to
  // within the same tolerance the whole-field tests use, and it must be
  // IDENTICAL across thread counts (the streams are byte-equal).
  double first_psnr = 0.0;
  for (std::size_t threads : {1u, 2u, 4u}) {
    const auto result = core::compress_blocked<float>(
        values, dims, core::ControlRequest::fixed_psnr(target_db),
        pipeline_options(threads, 10));
    const auto report = verify_stream<float>(values, result.stream);
    EXPECT_NEAR(report.psnr_db, target_db, 3.0)
        << "threads=" << threads << " strayed from the PSNR target";
    EXPECT_NEAR(result.predicted_psnr_db, target_db, 1e-9);
    if (threads == 1)
      first_psnr = report.psnr_db;
    else
      EXPECT_DOUBLE_EQ(report.psnr_db, first_psnr) << "threads=" << threads;
  }
}

TEST(ParallelPipeline, PointwiseBoundHoldsAcrossBlockBoundaries) {
  const data::Dims dims{37, 19};
  const auto values = sample_field(dims, 9);
  const double vr = metrics::value_range<float>(values);
  const auto request = core::ControlRequest::relative(1e-4);

  const auto result = core::compress_blocked<float>(values, dims, request,
                                                    pipeline_options(4, 5));
  const auto out = core::decompress<float>(result.stream);
  for (std::size_t i = 0; i < values.size(); ++i)
    ASSERT_LE(std::abs(static_cast<double>(values[i]) - out.values[i]),
              1e-4 * vr * (1 + 1e-9))
        << "point " << i;
}

TEST(ParallelPipeline, TransformEngineMeetsPsnrThroughPipeline) {
  const data::Dims dims{64, 64};
  const auto values = sample_field(dims, 11);
  core::CompressOptions opts = pipeline_options(2, 16);
  opts.engine = core::kCodecTransformHaar;
  const auto result = core::compress_blocked<float>(
      values, dims, core::ControlRequest::fixed_psnr(60.0), opts);
  const auto report = verify_stream<float>(values, result.stream);
  EXPECT_GE(report.psnr_db, 60.0);
}

// --- random-access single-block decode -------------------------------------

TEST(ParallelPipeline, RandomAccessBlockMatchesFullDecode) {
  const data::Dims dims{50, 30};
  const auto values = sample_field(dims, 13);
  const auto result = core::compress_blocked<float>(
      values, dims, core::ControlRequest::fixed_psnr(65.0),
      pipeline_options(2, 8));

  const auto full = core::decompress<float>(result.stream);
  const auto info = core::inspect_block_stream(result.stream);
  ASSERT_EQ(info.block_count, (50 + 7) / 8u);
  ASSERT_EQ(info.tile, (std::vector<std::size_t>{8, 30}));

  const std::size_t row_stride = dims.count() / dims[0];
  for (std::size_t b = 0; b < info.block_count; ++b) {
    const auto block = core::decompress_block<float>(result.stream, b);
    const std::size_t first = b * info.tile[0];
    ASSERT_EQ(block.dims[0], std::min<std::size_t>(8, dims[0] - first));
    for (std::size_t i = 0; i < block.values.size(); ++i)
      ASSERT_EQ(block.values[i], full.values[first * row_stride + i])
          << "block " << b << " value " << i;
  }
  EXPECT_THROW(core::decompress_block<float>(result.stream, info.block_count),
               std::out_of_range);
}

TEST(ParallelPipeline, InspectReportsTheRequest) {
  const data::Dims dims{24, 24};
  const auto values = sample_field(dims, 15);
  const auto result = core::compress_blocked<float>(
      values, dims, core::ControlRequest::fixed_psnr(72.0),
      pipeline_options(1, 6));
  ASSERT_TRUE(core::is_block_stream(result.stream));
  const auto info = core::inspect_block_stream(result.stream);
  EXPECT_EQ(info.control_mode, core::ControlMode::FixedPsnr);
  EXPECT_DOUBLE_EQ(info.control_value, 72.0);
  EXPECT_EQ(info.codec, core::kCodecSzLorenzo);
  EXPECT_EQ(info.codec_name, "sz-lorenzo");
  EXPECT_EQ(info.dims, dims);
  EXPECT_GT(info.eb_abs, 0.0);
}

// --- container semantics ----------------------------------------------------

TEST(ParallelPipeline, WriterAcceptsOutOfOrderCompletion) {
  io::BlockContainerHeader h;
  h.codec = 0;
  h.scalar = 0;
  h.extents = {9};
  h.tile = {3};
  h.block_count = 3;
  io::BlockContainerWriter writer(h);
  writer.add_block(2, {7, 8, 9}, 0.0);
  writer.add_block(0, {1, 2}, 0.0);
  writer.add_block(1, {3, 4, 5, 6}, 0.0);
  const auto stream = writer.finish();

  const auto view = io::open_block_container(stream);
  ASSERT_EQ(view.blocks.size(), 3u);
  EXPECT_EQ(std::vector<std::uint8_t>(view.blocks[0].begin(),
                                      view.blocks[0].end()),
            (std::vector<std::uint8_t>{1, 2}));
  EXPECT_EQ(std::vector<std::uint8_t>(view.blocks[1].begin(),
                                      view.blocks[1].end()),
            (std::vector<std::uint8_t>{3, 4, 5, 6}));
  EXPECT_EQ(std::vector<std::uint8_t>(view.blocks[2].begin(),
                                      view.blocks[2].end()),
            (std::vector<std::uint8_t>{7, 8, 9}));

  const auto one = io::block_container_entry(stream, 1);
  EXPECT_EQ(std::vector<std::uint8_t>(one.begin(), one.end()),
            (std::vector<std::uint8_t>{3, 4, 5, 6}));
}

TEST(ParallelPipeline, CorruptionRejected) {
  const data::Dims dims{16, 16};
  const auto values = sample_field(dims, 17);
  const auto result = core::compress_blocked<float>(
      values, dims, core::ControlRequest::relative(1e-3),
      pipeline_options(1, 4));

  auto bad = result.stream;
  bad[0] = 'X';
  EXPECT_THROW(core::decompress<float>(bad), io::StreamError);
  bad = result.stream;
  bad.resize(bad.size() / 2);
  EXPECT_THROW(core::decompress_blocked<float>(bad), io::StreamError);
  EXPECT_THROW(core::decompress_blocked<double>(result.stream),
               io::StreamError);  // scalar mismatch
}

// --- engine policy -----------------------------------------------------------

// --- pointwise-relative through the pipeline --------------------------------

namespace {

/// Signed field with values under the zero floor, exact zeros, and
/// non-finite samples mixed in.
std::vector<float> pwrel_field(const data::Dims& dims) {
  auto v = sample_field(dims, 27);
  for (std::size_t i = 0; i < v.size(); i += 13) v[i] = -v[i];
  for (std::size_t i = 3; i < v.size(); i += 101) v[i] = 0.0f;
  for (std::size_t i = 5; i < v.size(); i += 89) v[i] = 1e-35f;
  v[7] = std::numeric_limits<float>::quiet_NaN();
  v[11] = std::numeric_limits<float>::infinity();
  v[17] = -std::numeric_limits<float>::infinity();
  return v;
}

}  // namespace

TEST(ParallelPipeline, PointwiseRelBoundHoldsOnEveryValue) {
  const data::Dims dims{61, 40};
  const auto values = pwrel_field(dims);
  for (const double eps : {1e-1, 1e-2, 1e-4}) {
    SCOPED_TRACE(eps);
    const auto result = core::compress_blocked<float>(
        values, dims, core::ControlRequest::pointwise(eps),
        pipeline_options(2, 16));
    ASSERT_TRUE(core::is_block_stream(result.stream));
    const auto out = core::decompress<float>(result.stream);
    for (std::size_t i = 0; i < values.size(); ++i) {
      const double x = values[i];
      const double r = out.values[i];
      if (!std::isfinite(x) || std::abs(x) < 1e-30) {
        // Non-finite values and values under the zero floor are stored
        // exactly (bit for bit: NaN stays NaN, signs survive).
        ASSERT_EQ(std::memcmp(&values[i], &out.values[i], sizeof(float)), 0)
            << "point " << i;
        continue;
      }
      ASSERT_LE(std::abs(r - x), eps * std::abs(x))
          << "point " << i << " orig " << x << " recon " << r;
    }
  }
}

TEST(ParallelPipeline, PointwiseRelBytesIndependentOfThreadCount) {
  const data::Dims dims{20, 30, 24};
  auto values = sample_field(dims, 29);
  for (std::size_t i = 0; i < values.size(); i += 7) values[i] = -values[i];
  const auto request = core::ControlRequest::pointwise(1e-2);
  auto opts = pipeline_options(1);
  opts.parallel.tile = {8, 8, 8};
  const auto one = core::compress_blocked<float>(values, dims, request, opts);
  for (const std::size_t threads : {2u, 8u}) {
    opts.parallel.threads = threads;
    EXPECT_EQ(core::compress_blocked<float>(values, dims, request, opts).stream,
              one.stream)
        << "threads=" << threads;
  }
  // Header: per-block bounds (eb_abs = 0), the request, a uniform plan,
  // and a real per-block SSE column.
  const auto info = core::inspect_block_stream(one.stream);
  EXPECT_EQ(info.block_count, 3u * 4u * 3u);
  EXPECT_EQ(info.control_mode, core::ControlMode::PointwiseRelative);
  EXPECT_DOUBLE_EQ(info.control_value, 1e-2);
  EXPECT_EQ(info.eb_abs, 0.0);
  EXPECT_EQ(info.budget_mode, core::BudgetMode::Uniform);
  EXPECT_GT(info.achieved_sse, 0.0);
  EXPECT_DOUBLE_EQ(info.achieved_psnr_db, one.achieved_psnr_db);
  EXPECT_TRUE(std::isnan(one.predicted_psnr_db));
}

TEST(ParallelPipeline, PointwiseRelNeedsTheSzCodec) {
  const data::Dims dims{8, 8};
  const auto values = sample_field(dims, 19);
  for (const core::CodecId e :
       {core::kCodecTransformHaar, core::kCodecTransformDct,
        core::kCodecInterp, core::kCodecZfpRate, core::kCodecStore}) {
    auto opts = pipeline_options(2);
    opts.engine = e;
    EXPECT_THROW(core::compress_blocked<float>(
                     values, dims, core::ControlRequest::pointwise(0.01), opts),
                 std::invalid_argument)
        << "engine " << static_cast<int>(e);
  }
  for (const double eps : {0.0, -0.1, std::numeric_limits<double>::infinity()})
    EXPECT_THROW(core::compress_blocked<float>(
                     values, dims, core::ControlRequest::pointwise(eps),
                     pipeline_options(2)),
                 std::invalid_argument)
        << "eps " << eps;
}

TEST(ParallelPipeline, FixedRateResolvesOneBoundAndStaysDeterministic) {
  // Fixed rate is the fixed-PSNR plan's dual: the plan searches one bound
  // for the field, the header records it, every block is coded at it
  // exactly as a uniform absolute request would code it, and the archive
  // bytes stay thread-count independent like every other mode.
  const data::Dims dims{96, 40};
  const auto values = sample_field(dims, 21);
  const double bits = 7.0;
  auto opts = pipeline_options(1);
  opts.parallel.tile = {16};
  const auto one = core::compress_blocked<float>(
      values, dims, core::ControlRequest::fixed_rate(bits), opts);
  opts.parallel.threads = 4;
  const auto four = core::compress_blocked<float>(
      values, dims, core::ControlRequest::fixed_rate(bits), opts);
  EXPECT_EQ(one.stream, four.stream);

  const auto info = core::inspect_block_stream(one.stream);
  EXPECT_EQ(info.control_mode, core::ControlMode::FixedRate);
  EXPECT_DOUBLE_EQ(info.control_value, bits);
  EXPECT_GT(info.eb_abs, 0.0);
  EXPECT_EQ(info.eb_abs, one.info.eb_abs_used);
  const auto uniform = core::compress_blocked<float>(
      values, dims, core::ControlRequest::absolute(info.eb_abs), opts);
  const auto rate_view = io::open_block_container(one.stream);
  const auto uniform_view = io::open_block_container(uniform.stream);
  ASSERT_EQ(rate_view.blocks.size(), uniform_view.blocks.size());
  std::size_t payload = 0;
  for (std::size_t b = 0; b < rate_view.blocks.size(); ++b) {
    EXPECT_TRUE(std::ranges::equal(rate_view.blocks[b],
                                   uniform_view.blocks[b]))
        << "block " << b;
    payload += rate_view.blocks[b].size();
  }

  // The payload fits the budget, within 5% of it.
  const double budget = bits * static_cast<double>(values.size()) / 8.0;
  EXPECT_LE(static_cast<double>(payload), budget);
  EXPECT_GE(static_cast<double>(payload), 0.95 * budget);
  const auto d = core::decompress_blocked<float>(one.stream, 2);
  EXPECT_EQ(d.values.size(), values.size());
  const auto block = core::decompress_block<float>(one.stream, 1);
  EXPECT_EQ(block.dims[0], 16u);
}

TEST(ParallelPipeline, FixedRateBytesIgnoreKeysTheCodecDoesNotRead) {
  // sz-lorenzo does not read dct_block, so no value of it may move its
  // archive, fixed rate's bound search included.
  const data::Dims dims{120, 90};
  const auto values = sample_field(dims, 23);
  auto opts = pipeline_options(2);
  opts.parallel.tile = {16, 16};
  opts.dct_block = 4;
  const auto four = core::compress_blocked<float>(
      values, dims, core::ControlRequest::fixed_rate(4.0), opts);
  opts.dct_block = 8;
  const auto eight = core::compress_blocked<float>(
      values, dims, core::ControlRequest::fixed_rate(4.0), opts);
  EXPECT_EQ(four.stream, eight.stream);
}

TEST(ParallelPipeline, InvalidRequestsRejected) {
  // The pipeline validates requests through resolve_control; it must not
  // clamp them to a tiny budget.
  const data::Dims dims{8, 8};
  const auto values = sample_field(dims, 25);
  EXPECT_THROW(core::compress_blocked<float>(
                   values, dims, core::ControlRequest::absolute(-1.0),
                   pipeline_options(2)),
               std::invalid_argument);
  EXPECT_THROW(core::compress_blocked<float>(
                   values, dims, core::ControlRequest::fixed_psnr(std::nan("")),
                   pipeline_options(2)),
               std::invalid_argument);
}

TEST(ParallelPipeline, ConstantFieldCompressesExactly) {
  // vr == 0 must not throw; the fallback budget keeps every point exact.
  const data::Dims dims{12, 12};
  const std::vector<float> values(dims.count(), 4.25f);
  const auto result = core::compress_blocked<float>(
      values, dims, core::ControlRequest::fixed_psnr(80.0),
      pipeline_options(2, 4));
  const auto out = core::decompress<float>(result.stream);
  EXPECT_EQ(out.values, values);
}

TEST(ParallelPipeline, HugeBlockCountHeaderRejectedNotCrash) {
  // A crafted header whose block_count would overflow the index-size
  // computation must fail with StreamError, not read out of bounds.
  io::ByteWriter w;
  const std::uint8_t magic[4] = {'F', 'P', 'B', 'K'};
  w.put_bytes(std::span<const std::uint8_t>(magic, 4));
  w.put<std::uint8_t>(1);               // version
  w.put<std::uint8_t>(0);               // codec
  w.put<std::uint8_t>(0);               // scalar = float32
  w.put<std::uint8_t>(1);               // rank
  w.put_varint(std::uint64_t{1} << 60); // extents[0]
  w.put_varint(1);                      // block_rows
  w.put_varint(std::uint64_t{1} << 60); // block_count (consistent tiling)
  w.put<double>(1e-3);                  // eb_abs
  w.put<double>(1.0);                   // value_range
  w.put<std::uint8_t>(0);               // control_mode
  w.put<double>(0.0);                   // control_value
  w.put<std::uint64_t>(0);              // a stub of "index" bytes
  const auto stream = w.take();
  EXPECT_THROW(io::open_block_container(stream), io::StreamError);
  EXPECT_THROW(io::block_container_entry(stream, 0), io::StreamError);
  EXPECT_THROW(core::decompress_block<float>(stream, 0), io::StreamError);
}

TEST(ParallelPipeline, AutoTileIsDeterministic) {
  // Default tiling must not depend on thread count, or streams would
  // differ between --threads 1 and --threads 8.
  const data::Dims dims{4096, 64};
  const auto tile = core::auto_tile(dims);
  ASSERT_EQ(tile.size(), dims.rank());
  std::size_t volume = 1;
  for (std::size_t a = 0; a < tile.size(); ++a) {
    EXPECT_GE(tile[a], 1u);
    EXPECT_LE(tile[a], dims[a]);
    volume *= tile[a];
  }
  EXPECT_LE(volume, core::kAutoBlockValues);
  // Short axes clamp to their extent and donate volume to the rest: the
  // 64-wide axis caps below the rank-2 edge (181), so axis 0 absorbs the
  // full remaining budget (32768 / 64 = 512) instead of staying at 181.
  EXPECT_EQ(tile[0], 512u);
  EXPECT_EQ(tile[1], 64u);  // clamped to the field extent
  // Unclamped fields keep the plain near-cubic edge.
  EXPECT_EQ(core::auto_tile(data::Dims{500, 500}),
            (std::vector<std::size_t>{181, 181}));
  EXPECT_EQ(core::auto_tile(data::Dims{4, 512, 512}),
            (std::vector<std::size_t>{4, 90, 90}));  // pancake redistribution

  const auto values = sample_field({97, 33}, 21);
  const auto a = core::compress_blocked<float>(
      values, data::Dims{97, 33}, core::ControlRequest::fixed_psnr(60.0),
      pipeline_options(1));
  const auto b = core::compress_blocked<float>(
      values, data::Dims{97, 33}, core::ControlRequest::fixed_psnr(60.0),
      pipeline_options(8));
  EXPECT_EQ(a.stream, b.stream);
}

TEST(ParallelPipeline, RegistryKnowsBuiltinsAndRejectsUnknown) {
  auto& reg = core::CodecRegistry::instance();
  EXPECT_EQ(reg.at(core::kCodecSzLorenzo).name(), "sz-lorenzo");
  EXPECT_TRUE(reg.at(core::kCodecSzLorenzo).pointwise_bounded());
  EXPECT_EQ(reg.at(core::kCodecTransformHaar).name(), "transform-haar");
  EXPECT_FALSE(reg.at(core::kCodecTransformHaar).pointwise_bounded());
  EXPECT_EQ(reg.at(core::kCodecTransformDct).name(), "transform-dct");
  EXPECT_EQ(reg.find(250), nullptr);
  EXPECT_THROW(reg.at(250), std::out_of_range);
  const auto ids = reg.ids();
  EXPECT_GE(ids.size(), 3u);
}

TEST(ParallelPipeline, DoubleScalarRoundTrip) {
  const data::Dims dims{40, 16};
  const auto f = sample_field(dims, 23);
  std::vector<double> values(f.begin(), f.end());
  const auto result = core::compress_blocked<double>(
      values, dims, core::ControlRequest::fixed_psnr(90.0),
      pipeline_options(2, 7));
  const auto report = verify_stream<double>(values, result.stream);
  EXPECT_NEAR(report.psnr_db, 90.0, 3.0);
}
