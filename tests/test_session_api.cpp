// The public fpsnr::Session facade, and the engine option plumbing it
// wraps.
//
// Facade contract under test here:
//   * every Target × {memory, file, stream} Sink produces archives
//     byte-identical to the core:: pipeline entry points (same engine runs
//     underneath), and every Source shape decodes them back;
//   * Target::FixedRate lands within ±5% of the requested bits/value
//     (payload bytes — the quantity the per-block search controls) across
//     the conformance engine matrix;
//   * CodecTuning keys are validated per engine and reach the codec;
//   * the CodecRegistry's names/aliases are the single source of truth for
//     engine selection.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <random>
#include <stdexcept>
#include <string>

#include "fpsnr/fpsnr.h"

#include "core/batch.h"
#include "core/compressor.h"
#include "core/distortion_model.h"
#include "core/pipeline.h"
#include "data/dataset.h"
#include "data/synth.h"
#include "io/archive.h"
#include "metrics/metrics.h"
#include "sz/codec.h"
#include "sz/stream_format.h"
#include "transform/transform_codec.h"

namespace core = fpsnr::core;
namespace data = fpsnr::data;
namespace sz = fpsnr::sz;
namespace io = fpsnr::io;
namespace fs = std::filesystem;

namespace {

std::vector<float> sample_field(const data::Dims& dims) {
  auto v = data::smoothed_noise(dims, 31, 3, 2);
  data::rescale(v, -2.0f, 5.0f);
  return v;
}

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

fs::path temp_file(const std::string& stem) {
  return fs::temp_directory_path() / ("fpsnr-session-" + stem);
}

void spill(const fs::path& path, std::span<const std::uint8_t> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

core::CompressResult compress_fixed_psnr(std::span<const float> values,
                                         const data::Dims& dims, double target,
                                         const core::CompressOptions& opts = {}) {
  return core::compress_blocked<float>(
      values, dims, core::ControlRequest::fixed_psnr(target), opts);
}

/// Header of the first block's self-describing sz payload.
sz::StreamHeader first_block_header(std::span<const std::uint8_t> archive) {
  return sz::inspect(io::block_container_entry(archive, 0));
}

fpsnr::metrics::ErrorReport verify_stream(std::span<const float> values,
                                          std::span<const std::uint8_t> stream) {
  const auto decoded = core::decompress<float>(stream);
  return fpsnr::metrics::compare<float>(values, decoded.values);
}

}  // namespace

TEST(FacadeOptions, PredictorReachesStreamHeader) {
  const data::Dims dims{48, 48};
  const auto values = sample_field(dims);
  core::CompressOptions opts;
  opts.sz_predictor = sz::Predictor::HybridRegression;
  const auto r = compress_fixed_psnr(values, dims, 70.0, opts);
  EXPECT_EQ(first_block_header(r.stream).predictor,
            sz::Predictor::HybridRegression);
  const auto rep = verify_stream(values, r.stream);
  EXPECT_NEAR(rep.psnr_db, 70.0, 2.0);
}

TEST(FacadeOptions, QuantizationBinsReachStream) {
  const data::Dims dims{32, 32};
  const auto values = sample_field(dims);
  core::CompressOptions opts;
  opts.quantization_bins = 1024;
  const auto r = compress_fixed_psnr(values, dims, 60.0, opts);
  EXPECT_EQ(first_block_header(r.stream).quant_bins, 1024u);
}

TEST(FacadeOptions, BackendChoicesAllDecodeIdentically) {
  const data::Dims dims{40, 40};
  const auto values = sample_field(dims);
  std::vector<float> reference;
  for (auto backend :
       {fpsnr::lossless::Method::Store, fpsnr::lossless::Method::Deflate,
        fpsnr::lossless::Method::Auto}) {
    core::CompressOptions opts;
    opts.backend = backend;
    const auto r = compress_fixed_psnr(values, dims, 75.0, opts);
    const auto out = core::decompress<float>(r.stream);
    if (reference.empty())
      reference = out.values;
    else
      EXPECT_EQ(out.values, reference);
  }
}

class FacadeMatrix
    : public ::testing::TestWithParam<std::tuple<core::CodecId, double>> {};

TEST_P(FacadeMatrix, EveryEngineHitsEveryTarget) {
  const auto [engine, target] = GetParam();
  const data::Dims dims{64, 64};
  const auto values = sample_field(dims);
  core::CompressOptions opts;
  opts.engine = engine;
  const auto r = compress_fixed_psnr(values, dims, target, opts);
  const auto rep = verify_stream(values, r.stream);
  // Fixed-PSNR contract: never undershoot by more than ~1 dB.
  EXPECT_GT(rep.psnr_db, target - 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FacadeMatrix,
    ::testing::Combine(::testing::Values(core::kCodecSzLorenzo,
                                         core::kCodecTransformHaar,
                                         core::kCodecTransformDct),
                       ::testing::Values(50.0, 80.0, 110.0)));

TEST(FacadeOptions, EveryEngineWritesTheBlockContainer) {
  // One write path: every codec emits an FPBK container even with no
  // parallel knobs set, and decompress() dispatches it transparently.
  const data::Dims dims{48, 32};
  const auto values = sample_field(dims);
  for (const core::CodecId e : core::CodecRegistry::instance().ids()) {
    core::CompressOptions opts;
    opts.engine = e;
    const auto r = compress_fixed_psnr(values, dims, 60.0, opts);
    EXPECT_TRUE(core::is_block_stream(r.stream))
        << "engine " << static_cast<int>(e);
    const auto rep = verify_stream(values, r.stream);
    EXPECT_GT(rep.psnr_db, 59.0) << "engine " << static_cast<int>(e);
  }
}

TEST(FacadeOptions, RegistryNameLookupListsRegisteredCodecs) {
  // The CLI resolves --engine through these lookups; an unknown name must
  // fail with a message naming every registered codec.
  auto& registry = core::CodecRegistry::instance();
  EXPECT_EQ(registry.id_of("sz-lorenzo"), core::kCodecSzLorenzo);
  EXPECT_EQ(registry.id_of("transform-haar"), core::kCodecTransformHaar);
  EXPECT_EQ(registry.id_of("transform-dct"), core::kCodecTransformDct);
  EXPECT_EQ(registry.id_of("interp"), core::kCodecInterp);
  EXPECT_EQ(registry.id_of("zfpr"), core::kCodecZfpRate);
  EXPECT_EQ(registry.id_of("store"), core::kCodecStore);
  EXPECT_EQ(registry.find("interp"), &registry.at(core::kCodecInterp));
  EXPECT_EQ(registry.find("no-such-codec"), nullptr);

  const auto names = registry.names();
  ASSERT_GE(names.size(), 6u);
  try {
    registry.id_of("no-such-codec");
    FAIL() << "unknown codec name must throw";
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    for (std::string_view n : names)
      EXPECT_NE(what.find(n), std::string::npos)
          << "error message must list '" << n << "'";
  }
}

TEST(FacadeOptions, HybridPredictorIgnoredByTransformEngines) {
  // Transform engines have no Lorenzo/regression stage; the option must be
  // harmless, not an error.
  const data::Dims dims{32, 32};
  const auto values = sample_field(dims);
  core::CompressOptions opts;
  opts.engine = core::kCodecTransformHaar;
  opts.sz_predictor = sz::Predictor::HybridRegression;
  EXPECT_NO_THROW({
    const auto r = compress_fixed_psnr(values, dims, 70.0, opts);
    (void)core::decompress<float>(r.stream);
  });
}

// ---------------------------------------------------------------------------
// Session facade
// ---------------------------------------------------------------------------

namespace {

using fpsnr::BatchJob;
using fpsnr::CompressReport;
using fpsnr::Session;
using fpsnr::SessionOptions;
using fpsnr::Sink;
using fpsnr::Source;
using fpsnr::Target;

/// The Targets the byte-identity sweep covers, with their core
/// ControlRequest twins.
struct TargetCase {
  const char* name;
  Target target;
  core::ControlRequest request;
};

std::vector<TargetCase> all_targets() {
  return {
      {"fixed_psnr", fpsnr::FixedPsnr{70.0},
       core::ControlRequest::fixed_psnr(70.0)},
      {"fixed_nrmse", fpsnr::FixedNrmse{1e-3},
       core::ControlRequest::fixed_nrmse(1e-3)},
      {"pointwise_abs", fpsnr::PointwiseAbs{0.01},
       core::ControlRequest::absolute(0.01)},
      {"value_range_rel", fpsnr::ValueRangeRel{1e-4},
       core::ControlRequest::relative(1e-4)},
      {"fixed_rate", fpsnr::FixedRate{8.0},
       core::ControlRequest::fixed_rate(8.0)},
      {"pointwise_rel", fpsnr::PointwiseRel{0.01},
       core::ControlRequest::pointwise(0.01)},
  };
}

}  // namespace

TEST(SessionApi, EveryTargetAndEverySinkMatchesLegacyBytes) {
  // The acceptance bar of the facade: for every Target, the memory, file,
  // and stream sinks all emit the byte-exact archive the core
  // compress_blocked / compress_to_file free functions emit, and both
  // Source shapes decode it back to the core decompress output.
  const data::Dims dims{72, 48};
  const auto values = sample_field(dims);

  SessionOptions sopts;
  sopts.threads = 2;
  sopts.tile = fpsnr::TileShape::slab(16);
  const Session session(sopts);

  core::CompressOptions lopts;
  lopts.parallel.threads = 2;
  lopts.parallel.tile = {16};

  for (const TargetCase& tc : all_targets()) {
    SCOPED_TRACE(tc.name);
    const auto legacy = core::compress_blocked<float>(
        std::span<const float>(values), dims, tc.request, lopts);

    // memory sink
    const auto mem = session.compress(
        Source::memory(std::span<const float>(values), dims.extents),
        tc.target, Sink::memory());
    EXPECT_EQ(mem.archive, legacy.stream);

    // file sink
    const auto file_path = temp_file(std::string(tc.name) + ".fpbk");
    session.compress(
        Source::memory(std::span<const float>(values), dims.extents),
        tc.target, Sink::file(file_path.string()));
    EXPECT_EQ(slurp(file_path.string()), legacy.stream);

    // stream sink (spill-as-they-finish writer)
    const auto stream_path = temp_file(std::string(tc.name) + "-s.fpbk");
    session.compress(
        Source::memory(std::span<const float>(values), dims.extents),
        tc.target, Sink::stream(stream_path.string()));
    EXPECT_EQ(slurp(stream_path.string()), legacy.stream);

    // decode: memory source, file source (mmap), and legacy all agree
    const auto legacy_out = core::decompress_blocked<float>(legacy.stream, 2);
    const auto from_mem = session.decompress(
        Source::memory(std::span<const std::uint8_t>(legacy.stream)));
    EXPECT_EQ(from_mem.f32, legacy_out.values);
    const auto from_file =
        session.decompress(Source::file(stream_path.string()));
    EXPECT_EQ(from_file.f32, legacy_out.values);

    // random-access block decode
    const auto legacy_block = core::decompress_block<float>(legacy.stream, 1);
    const auto block = session.decompress_block(
        Source::file(stream_path.string()), 1);
    EXPECT_EQ(block.f32, legacy_block.values);
    EXPECT_EQ(block.dims[0], legacy_block.dims[0]);

    fs::remove(file_path);
    fs::remove(stream_path);
  }
}

TEST(SessionApi, FileSinkSpillsLikeTheStreamSink) {
  // Sink::file runs the same writer as its synonym Sink::stream: blocks
  // spill to `path.partial` in index order as workers finish, so both
  // report the reorder buffer's high-water marks and leave no partial file
  // behind. Block 0 is noise and the rest constant, so on 4 workers later
  // blocks usually finish first and wait for it; a run can still happen to
  // complete in order, so each sink gets a few tries to show it.
  const data::Dims dims{64, 4096};
  std::vector<float> values(dims.count(), 1.0f);
  std::mt19937 rng(11);
  std::uniform_real_distribution<float> noise(-1.0f, 1.0f);
  for (std::size_t i = 0; i < 4 * dims[1]; ++i) values[i] = noise(rng);

  SessionOptions sopts;
  sopts.threads = 4;
  sopts.tile = fpsnr::TileShape::slab(4);
  const Session session(sopts);
  const auto source =
      Source::memory(std::span<const float>(values), dims.extents);
  const auto mem = session.compress(source, fpsnr::FixedPsnr{100.0},
                                    Sink::memory());
  EXPECT_EQ(mem.peak_buffered_blocks, 0u);

  const auto path = temp_file("spill.fpbk").string();
  for (const bool stream : {false, true}) {
    SCOPED_TRACE(stream ? "Sink::stream" : "Sink::file");
    CompressReport r;
    for (int attempt = 0; attempt < 20 && r.peak_buffered_blocks == 0;
         ++attempt)
      r = session.compress(source, fpsnr::FixedPsnr{100.0},
                           stream ? Sink::stream(path) : Sink::file(path));
    EXPECT_GT(r.peak_buffered_blocks, 0u);
    EXPECT_LT(r.peak_buffered_blocks, r.block_count);
    EXPECT_GT(r.peak_buffered_bytes, 0u);
    EXPECT_LT(r.peak_buffered_bytes, r.compressed_bytes);
    EXPECT_EQ(r.archive_path, path);
    EXPECT_TRUE(r.archive.empty());
    EXPECT_EQ(slurp(path), mem.archive);
    EXPECT_FALSE(fs::exists(path + ".partial"));
  }
  fs::remove(path);
}

TEST(SessionApi, PointwiseRelReportsTheMeasuredPsnr) {
  // Pointwise-rel runs the block pipeline like every other Target, so its
  // report carries the exact PSNR from the per-block SSE column (it used
  // to be NaN on the old serial path).
  const data::Dims dims{40, 40};
  const auto values = sample_field(dims);
  const Session session;
  const auto r = session.compress(
      Source::memory(std::span<const float>(values), dims.extents),
      fpsnr::PointwiseRel{0.01}, Sink::memory());
  EXPECT_TRUE(core::is_block_stream(r.archive));
  ASSERT_TRUE(std::isfinite(r.achieved_psnr_db));
  const auto out = session.decompress(
      Source::memory(std::span<const std::uint8_t>(r.archive)));
  const auto rep = fpsnr::metrics::compare<float>(values, out.f32);
  EXPECT_NEAR(r.achieved_psnr_db, rep.psnr_db, 1e-6);
  const auto info = session.inspect(
      Source::memory(std::span<const std::uint8_t>(r.archive)));
  EXPECT_EQ(info.target, "pointwise-rel");
  EXPECT_NEAR(info.achieved_psnr_db, rep.psnr_db, 1e-6);
}

TEST(SessionApi, AdaptiveBudgetAcceptsPointwiseRelWithUniformPlan) {
  // Regression: an adaptive-budget session used to throw "only
  // uniform-budget control modes are supported" for PointwiseRel. Like
  // the other pointwise targets, it now compresses with the uniform plan.
  const data::Dims dims{64, 48};
  const auto values = sample_field(dims);
  SessionOptions sopts;
  sopts.budget = "adaptive";
  sopts.tile = fpsnr::TileShape{16, 16};
  const Session adaptive(sopts);
  sopts.budget = "uniform";
  const Session uniform(sopts);
  const auto src =
      Source::memory(std::span<const float>(values), dims.extents);
  CompressReport r;
  ASSERT_NO_THROW(r = adaptive.compress(src, fpsnr::PointwiseRel{0.01},
                                        Sink::memory()));
  EXPECT_EQ(r.archive,
            uniform.compress(src, fpsnr::PointwiseRel{0.01}, Sink::memory())
                .archive);
  const auto info = adaptive.inspect(
      Source::memory(std::span<const std::uint8_t>(r.archive)));
  EXPECT_EQ(info.budget, "uniform");
  EXPECT_EQ(info.block_count, 4u * 3u);
}

TEST(SessionApi, LegacyFlatPointwiseRelStreamStillDecodes) {
  // Archives written before pointwise-rel joined the pipeline are flat
  // FPSZ streams; Session must keep decoding and inspecting them.
  const data::Dims dims{40, 40};
  const auto values = sample_field(dims);
  sz::Params params;
  params.mode = sz::ErrorBoundMode::PointwiseRelative;
  params.bound = 0.01;
  const auto flat = sz::compress<float>(values, dims, params);
  ASSERT_FALSE(core::is_block_stream(flat));

  const Session session;
  const auto path = temp_file("legacy-flat.fpsz");
  spill(path, flat);
  const std::pair<const char*, Source> sources[] = {
      {"memory", Source::memory(std::span<const std::uint8_t>(flat))},
      {"file", Source::file(path.string())}};
  for (const auto& [label, src] : sources) {
    SCOPED_TRACE(label);
    const auto out = session.decompress(src);
    EXPECT_EQ(out.f32, sz::decompress<float>(flat).values);
    for (std::size_t i = 0; i < values.size(); ++i)
      ASSERT_LE(std::abs(static_cast<double>(out.f32[i]) - values[i]),
                0.01 * std::abs(static_cast<double>(values[i])));
    const auto info = session.inspect(src);
    EXPECT_FALSE(info.block_container);
    EXPECT_EQ(info.target, "pointwise-rel");
    EXPECT_DOUBLE_EQ(info.target_value, 0.01);
    EXPECT_EQ(info.dims, dims.extents);
    // A flat stream has no block index, from memory and from file alike.
    EXPECT_THROW((void)session.decompress_block(src, 0),
                 std::invalid_argument);
  }
  fs::remove(path);
}

TEST(SessionApi, LegacyFlatTransformStreamsDecodeAndInspect) {
  // Flat FPTC streams record their scalar and transform in their header;
  // Session reads both from it, from memory and from file alike.
  const data::Dims dims{40, 40};
  const auto values = sample_field(dims);
  const std::vector<double> values64(values.begin(), values.end());
  const Session session;
  for (const auto kind : {fpsnr::transform::Kind::HaarMultiLevel,
                          fpsnr::transform::Kind::BlockDct}) {
    fpsnr::transform::Params params;
    params.kind = kind;
    params.bin_width = 1e-3;
    const auto f32 = fpsnr::transform::compress<float>(values, dims, params);
    const auto f64 =
        fpsnr::transform::compress<double>(values64, dims, params);
    const auto path32 = temp_file("legacy-flat-32.fptc");
    const auto path64 = temp_file("legacy-flat-64.fptc");
    spill(path32, f32);
    spill(path64, f64);
    const auto header = fpsnr::transform::inspect(f32);
    const std::string codec =
        kind == fpsnr::transform::Kind::HaarMultiLevel ? "transform-haar"
                                                       : "transform-dct";
    for (const bool from_file : {false, true}) {
      SCOPED_TRACE(codec + (from_file ? " from file" : " from memory"));
      const Source src32 =
          from_file ? Source::file(path32.string())
                    : Source::memory(std::span<const std::uint8_t>(f32));
      const Source src64 =
          from_file ? Source::file(path64.string())
                    : Source::memory(std::span<const std::uint8_t>(f64));

      const auto out32 = session.decompress(src32);
      ASSERT_FALSE(out32.is_double());
      EXPECT_EQ(out32.f32, fpsnr::transform::decompress<float>(f32).values);
      const auto out64 = session.decompress(src64);
      ASSERT_TRUE(out64.is_double());
      EXPECT_EQ(out64.f64, fpsnr::transform::decompress<double>(f64).values);
      EXPECT_EQ(out64.dims, dims.extents);

      const auto info = session.inspect(src32);
      EXPECT_FALSE(info.block_container);
      EXPECT_EQ(info.codec, codec);
      EXPECT_EQ(info.dims, dims.extents);
      EXPECT_EQ(info.value_range, header.value_range);
      EXPECT_GT(info.value_range, 0.0);
      EXPECT_TRUE(std::isnan(info.achieved_psnr_db));
      EXPECT_EQ(info.archive_bytes, f32.size());
      EXPECT_THROW((void)session.decompress_block(src32, 0),
                   std::invalid_argument);
    }
    fs::remove(path32);
    fs::remove(path64);
  }
}

TEST(SessionApi, TruncatedFlatTransformStreamFailsOnItsOwnScalar) {
  // A cut float32 FPTC stream is a truncation, not a scalar mismatch: the
  // scalar comes from the header, so the stream is decoded once, as f32.
  const data::Dims dims{40, 40};
  const auto values = sample_field(dims);
  fpsnr::transform::Params params;
  params.bin_width = 1e-3;
  const auto flat = fpsnr::transform::compress<float>(values, dims, params);
  ASSERT_GT(flat.size(), 64u);
  const Session session;
  const auto path = temp_file("truncated.fptc");
  for (const std::size_t cut :
       {flat.size() / 2, flat.size() - 5, flat.size() - 1}) {
    SCOPED_TRACE("cut at " + std::to_string(cut) + " of " +
                 std::to_string(flat.size()));
    const std::vector<std::uint8_t> bytes(flat.begin(), flat.begin() + cut);
    spill(path, bytes);
    for (const Source& src :
         {Source::memory(std::span<const std::uint8_t>(bytes)),
          Source::file(path.string())}) {
      try {
        (void)session.decompress(src);
        ADD_FAILURE() << "decoded a truncated stream";
      } catch (const io::StreamError& e) {
        EXPECT_EQ(std::string(e.what()).find("scalar type mismatch"),
                  std::string::npos)
            << e.what();
      }
    }
  }
  fs::remove(path);
}

TEST(SessionApi, RawFileSourceMatchesMemorySource) {
  const data::Dims dims{32, 32};
  const auto values = sample_field(dims);
  const auto raw_path = temp_file("raw-in.f32");
  {
    std::ofstream out(raw_path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(values.data()),
              static_cast<std::streamsize>(values.size() * sizeof(float)));
  }
  const Session session;
  const auto from_mem = session.compress(
      Source::memory(std::span<const float>(values), dims.extents),
      fpsnr::FixedPsnr{70.0}, Sink::memory());
  const auto from_raw =
      session.compress(Source::raw_file(raw_path.string(), dims.extents),
                       fpsnr::FixedPsnr{70.0}, Sink::memory());
  EXPECT_EQ(from_raw.archive, from_mem.archive);
  // Bad geometry is an invalid_argument, like the legacy loaders.
  EXPECT_THROW(session.compress(Source::raw_file(raw_path.string(), {999}),
                                fpsnr::FixedPsnr{70.0}, Sink::memory()),
               std::invalid_argument);
  fs::remove(raw_path);
}

TEST(SessionApi, DoubleFieldsRoundTrip) {
  const data::Dims dims{48, 24};
  const auto f32 = sample_field(dims);
  std::vector<double> values(f32.begin(), f32.end());
  const Session session;
  const auto r = session.compress(
      Source::memory(std::span<const double>(values), dims.extents),
      fpsnr::FixedPsnr{90.0}, Sink::memory());
  const auto out = session.decompress(
      Source::memory(std::span<const std::uint8_t>(r.archive)));
  ASSERT_TRUE(out.is_double());
  ASSERT_EQ(out.f64.size(), values.size());
  const auto legacy = core::decompress<double>(r.archive);
  EXPECT_EQ(out.f64, legacy.values);
}

TEST(SessionApi, FixedRateHitsBudgetAcrossEngineMatrix) {
  // The FixedRate acceptance bar: payload bits/value (the quantity the
  // plan's bound search controls — container header/index overhead is
  // constant per archive, not rate-dependent) lands within ±5% of the
  // request, and never over it, across the conformance engines and two
  // budgets.
  const data::Dims dims{80, 60};
  auto values = data::smoothed_noise(dims, 97, 1, 1);  // mildly compressible
  data::rescale(values, -3.0f, 9.0f);

  for (const char* engine :
       {"sz-lorenzo", "transform-haar", "transform-dct", "interp", "zfpr"}) {
    for (const double bits : {6.0, 10.0}) {
      SCOPED_TRACE(std::string(engine) + " @ " + std::to_string(bits));
      SessionOptions sopts;
      sopts.engine = engine;
      sopts.tile = fpsnr::TileShape::slab(20);
      const Session session(sopts);
      const auto r = session.compress(
          Source::memory(std::span<const float>(values), dims.extents),
          fpsnr::FixedRate{bits}, Sink::memory());

      const auto view = io::open_block_container(r.archive);
      std::size_t payload = 0;
      for (const auto& b : view.blocks) payload += b.size();
      const double payload_rate =
          8.0 * static_cast<double>(payload) / values.size();
      EXPECT_NEAR(payload_rate, bits, 0.05 * bits)
          << "payload " << payload << " bytes";
      EXPECT_LE(payload_rate, bits) << "payload " << payload << " bytes";

      // Rate archives decode like any other; the header records the one
      // bound the plan resolved, and the prediction is Eq. 7 of it.
      const auto out = session.decompress(
          Source::memory(std::span<const std::uint8_t>(r.archive)));
      EXPECT_EQ(out.f32.size(), values.size());
      const auto info = session.inspect(
          Source::memory(std::span<const std::uint8_t>(r.archive)));
      EXPECT_EQ(info.target, "fixed-rate");
      EXPECT_DOUBLE_EQ(info.target_value, bits);
      EXPECT_GT(info.eb_abs, 0.0);
      EXPECT_DOUBLE_EQ(r.predicted_psnr_db,
                       core::psnr_for_abs_bound(info.eb_abs,
                                                info.value_range));
    }
  }
}

TEST(SessionApi, FixedRateIsTheDualOfFixedPsnr) {
  // Fixed rate is fixed PSNR's dual: one uniform bound per field, chosen
  // for a size instead of a PSNR. On a field whose tiles alternate between
  // smooth and noisy, FixedRate at the payload rate FixedPsnr{60} achieved
  // must land within 0.5 dB of it. A search that gives every tile the same
  // share of bits starves the noisy tiles and lands far lower.
  const data::Dims dims{128, 128};
  std::vector<float> values(dims.count());
  std::mt19937 rng(5);
  std::uniform_real_distribution<float> noise(-1.0f, 1.0f);
  for (std::size_t i = 0; i < dims[0]; ++i)
    for (std::size_t j = 0; j < dims[1]; ++j) {
      const bool noisy = ((i / 32) + (j / 32)) % 2 == 1;
      values[i * dims[1] + j] =
          noisy ? noise(rng)
                : std::sin(0.05f * static_cast<float>(i)) *
                      std::cos(0.07f * static_cast<float>(j));
    }
  SessionOptions sopts;
  sopts.tile = fpsnr::TileShape{32, 32};
  const Session session(sopts);
  const auto source =
      Source::memory(std::span<const float>(values), dims.extents);

  const auto psnr = session.compress(source, fpsnr::FixedPsnr{60.0},
                                     Sink::memory());
  std::size_t payload = 0;
  for (const auto& b : io::open_block_container(psnr.archive).blocks)
    payload += b.size();
  const double bits = 8.0 * static_cast<double>(payload) / values.size();
  const auto rate =
      session.compress(source, fpsnr::FixedRate{bits}, Sink::memory());
  EXPECT_NEAR(rate.achieved_psnr_db, psnr.achieved_psnr_db, 0.5)
      << "at " << bits << " bits/value";
}

TEST(SessionApi, FixedRateStaysWithinBudgetWhenAFitWasMeasured) {
  // dct's payload curve is jumpy at 0.1-0.3 bits/value, so the field
  // search can end with no fitting probe within 5% of the budget. It used
  // to take the probe nearest the budget then, which can be over it
  // (hurricane QICE coded 0.0924 b/v against a budget of 0.0911, PRECIP
  // 0.1437 against 0.1410). Every field at the payload rate FixedPsnr{60}
  // achieves must now fit.
  const data::Dataset ds = data::make_hurricane({2.0, 1});
  SessionOptions sopts;
  sopts.engine = "transform-dct";
  sopts.threads = 4;
  const Session session(sopts);
  auto payload_bits = [](const std::vector<std::uint8_t>& archive,
                         std::size_t n) {
    std::size_t bytes = 0;
    for (const auto& b : io::open_block_container(archive).blocks)
      bytes += b.size();
    return 8.0 * static_cast<double>(bytes) / static_cast<double>(n);
  };
  for (const data::Field& f : ds.fields) {
    SCOPED_TRACE(f.name);
    const auto source = Source::memory(f.span(), f.dims.extents);
    const auto psnr =
        session.compress(source, fpsnr::FixedPsnr{60.0}, Sink::memory());
    const double bits = payload_bits(psnr.archive, f.size());
    const auto rate =
        session.compress(source, fpsnr::FixedRate{bits}, Sink::memory());
    EXPECT_LE(payload_bits(rate.archive, f.size()), bits);
  }
}

TEST(SessionApi, FixedRateSurvivesNonFiniteSamples) {
  // Regression: a single NaN/Inf sample used to make the fixed-rate search
  // throw. value_range goes non-finite, which would make the search's
  // window (vr * 1e-12 .. vr * 4) all Inf. The search takes its scale from
  // the largest finite |value| in the field instead, and the codecs store
  // the poisoned samples as exact outliers.
  const data::Dims dims{40, 32};
  auto values = sample_field(dims);
  values[7] = std::numeric_limits<float>::quiet_NaN();
  values[513] = std::numeric_limits<float>::infinity();
  values[1000] = -std::numeric_limits<float>::infinity();

  for (const char* engine : {"sz-lorenzo", "zfpr"}) {
    SCOPED_TRACE(engine);
    SessionOptions sopts;
    sopts.engine = engine;
    const Session session(sopts);
    CompressReport r;
    ASSERT_NO_THROW(r = session.compress(
                        Source::memory(std::span<const float>(values),
                                       dims.extents),
                        fpsnr::FixedRate{8.0}, Sink::memory()));
    const auto out = session.decompress(
        Source::memory(std::span<const std::uint8_t>(r.archive)));
    ASSERT_EQ(out.f32.size(), values.size());
    // The Lorenzo path quantizes pointwise, so the non-finite samples come
    // back bit-exact from the outlier store. The transform paths legally
    // smear non-finites across their block (Inf - Inf = NaN in the DCT),
    // so for zfpr only non-finiteness at the poisoned sites is promised.
    if (std::string(engine) == "sz-lorenzo") {
      EXPECT_TRUE(std::isnan(out.f32[7]));
      EXPECT_EQ(out.f32[513], std::numeric_limits<float>::infinity());
      EXPECT_EQ(out.f32[1000], -std::numeric_limits<float>::infinity());
    } else {
      EXPECT_FALSE(std::isfinite(out.f32[7]));
      EXPECT_FALSE(std::isfinite(out.f32[513]));
      EXPECT_FALSE(std::isfinite(out.f32[1000]));
    }
  }
}

TEST(SessionApi, InspectReportsFacadeNames) {
  const data::Dims dims{48, 32};
  const auto values = sample_field(dims);
  const Session session;
  const auto r = session.compress(
      Source::memory(std::span<const float>(values), dims.extents),
      fpsnr::FixedPsnr{75.0}, Sink::memory());
  const auto info = session.inspect(
      Source::memory(std::span<const std::uint8_t>(r.archive)));
  EXPECT_TRUE(info.block_container);
  EXPECT_EQ(info.version, 3);
  EXPECT_EQ(info.codec, "sz-lorenzo");
  EXPECT_EQ(info.target, "fixed-psnr");
  EXPECT_DOUBLE_EQ(info.target_value, 75.0);
  EXPECT_EQ(info.budget, "uniform");
  EXPECT_EQ(info.dims, (std::vector<std::size_t>{48, 32}));
  EXPECT_NEAR(info.achieved_psnr_db, r.achieved_psnr_db, 1e-9);
  EXPECT_EQ(info.archive_bytes, r.archive.size());
}

TEST(SessionApi, TuningKeysAreValidatedPerEngine) {
  // Schema queries come from the same table the session validates against.
  const auto haar = fpsnr::tuning_keys("haar");  // alias resolves too
  bool has_levels = false;
  for (const auto& k : haar) has_levels |= k.key == "levels";
  EXPECT_TRUE(has_levels);
  EXPECT_THROW(fpsnr::tuning_keys("no-such-engine"), std::out_of_range);

  // Unknown key for a known engine: construction-time error.
  SessionOptions bad;
  bad.engine = "transform-haar";
  bad.tuning.set("transform-haar", "dct-block", 16.0);  // a DCT knob
  EXPECT_THROW(Session{bad}, std::invalid_argument);

  // Unknown engine inside the tuning block: also a construction error.
  SessionOptions bad2;
  bad2.tuning.set("no-such-engine", "levels", 2.0);
  EXPECT_THROW(Session{bad2}, std::out_of_range);

  // Unknown engine name itself.
  SessionOptions bad3;
  bad3.engine = "no-such-engine";
  EXPECT_THROW(Session{bad3}, std::out_of_range);

  // Bad budget spelling.
  SessionOptions bad4;
  bad4.budget = "greedy";
  EXPECT_THROW(Session{bad4}, std::invalid_argument);
}

TEST(SessionApi, TuningReachesTheCodec) {
  const data::Dims dims{48, 48};
  const auto values = sample_field(dims);

  // predictor: hybrid-regression flips the per-block sz stream header.
  SessionOptions hybrid;
  hybrid.tuning.set("sz-lorenzo", "predictor", "hybrid");
  const auto h = Session(hybrid).compress(
      Source::memory(std::span<const float>(values), dims.extents),
      fpsnr::FixedPsnr{70.0}, Sink::memory());
  const auto l = Session().compress(
      Source::memory(std::span<const float>(values), dims.extents),
      fpsnr::FixedPsnr{70.0}, Sink::memory());
  EXPECT_NE(h.archive, l.archive);
  // The facade bytes equal the legacy bytes built with the same knob.
  core::CompressOptions lopts;
  lopts.sz_predictor = sz::Predictor::HybridRegression;
  const auto legacy = core::compress_blocked<float>(
      std::span<const float>(values), dims,
      core::ControlRequest::fixed_psnr(70.0), lopts);
  EXPECT_EQ(h.archive, legacy.stream);

  // quantization-bins reaches the block codec the same way.
  SessionOptions bins;
  bins.tuning.set("sz-lorenzo", "quantization-bins", 1024.0);
  const auto b = Session(bins).compress(
      Source::memory(std::span<const float>(values), dims.extents),
      fpsnr::FixedPsnr{70.0}, Sink::memory());
  core::CompressOptions bopts;
  bopts.quantization_bins = 1024;
  const auto blegacy = core::compress_blocked<float>(
      std::span<const float>(values), dims,
      core::ControlRequest::fixed_psnr(70.0), bopts);
  EXPECT_EQ(b.archive, blegacy.stream);
}

TEST(SessionApi, EveryListedTuningKeyChangesThatEnginesBytes) {
  // tuning_keys(engine) lists exactly what the engine's codec reads: a
  // non-default value of every listed key changes its archive bytes.
  const std::map<std::string, std::string> non_default = {
      {"quantization-bins", "16"}, {"lossless", "store"},
      {"predictor", "hybrid"},     {"levels", "2"},
      {"dct-block", "4"},
  };
  const data::Dims dims{48, 40};
  const auto values = sample_field(dims);
  const auto compress = [&](const SessionOptions& opts) {
    return Session(opts)
        .compress(Source::memory(std::span<const float>(values), dims.extents),
                  fpsnr::FixedPsnr{60.0}, Sink::memory())
        .archive;
  };
  for (const std::string& engine : Session::engines()) {
    SessionOptions base;
    base.engine = engine;
    const auto reference = compress(base);
    for (const fpsnr::TuningKey& k : fpsnr::tuning_keys(engine)) {
      const auto it = non_default.find(k.key);
      ASSERT_NE(it, non_default.end()) << engine << " lists untested key "
                                       << k.key;
      ASSERT_NE(it->second, k.default_value) << engine << "." << k.key;
      SessionOptions tuned = base;
      tuned.tuning.set(engine, k.key, it->second);
      EXPECT_NE(compress(tuned), reference)
          << engine << "." << k.key << "=" << it->second
          << " leaves the archive unchanged";
    }
  }

  std::vector<std::string> zfpr_keys;
  for (const auto& k : fpsnr::tuning_keys("zfpr")) zfpr_keys.push_back(k.key);
  EXPECT_EQ(zfpr_keys, std::vector<std::string>{"dct-block"});
  EXPECT_TRUE(fpsnr::tuning_keys("store").empty());

  // A key the engine does not read is refused, naming the valid keys.
  SessionOptions zfpr;
  zfpr.engine = "zfpr";
  zfpr.tuning.set("zfpr", "lossless", "store");
  try {
    Session{zfpr};
    FAIL() << "zfpr has no lossless stage";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("dct-block"), std::string::npos)
        << e.what();
  }
  SessionOptions store;
  store.engine = "store";
  store.tuning.set("store", "quantization-bins", 1024.0);
  EXPECT_THROW(Session{store}, std::invalid_argument);
}

TEST(SessionApi, TuningValuesAreValidatedAtConstruction) {
  // Every value is checked when the Session is built, whichever engine the
  // entry names, never first at compress time.
  const std::map<std::string, std::vector<std::string>> bad = {
      {"quantization-bins",
       {"1023", "1023.0", "2", "0", "-4", "4294967296", "16.5", "abc", ""}},
      {"lossless", {"gzip", ""}},
      {"predictor", {"regression"}},
      {"levels", {"0", "33", "1.5"}},
      {"dct-block", {"1", "4097", "8x8"}},
  };
  for (const std::string& engine : Session::engines())
    for (const fpsnr::TuningKey& k : fpsnr::tuning_keys(engine))
      for (const std::string& value : bad.at(k.key)) {
        SessionOptions opts;
        opts.tuning.set(engine, k.key, value);
        EXPECT_THROW(Session{opts}, std::invalid_argument)
            << engine << "." << k.key << "='" << value << "'";
      }

  // Accepted spellings: CodecTuning::set(double) text and the largest
  // even bin count.
  SessionOptions ok;
  ok.tuning.set("sz-lorenzo", "quantization-bins", 4294967294.0);
  ok.tuning.set("transform-haar", "levels", " 32 ");
  EXPECT_NO_THROW(Session{ok});
}

TEST(SessionApi, EnginesComeFromTheLiveRegistry) {
  const auto engines = Session::engines();
  ASSERT_GE(engines.size(), 6u);
  const auto names = core::CodecRegistry::instance().names();
  ASSERT_EQ(engines.size(), names.size());
  for (std::size_t i = 0; i < names.size(); ++i)
    EXPECT_EQ(engines[i], std::string(names[i]));
  // Aliases select the same codec as primary names.
  SessionOptions alias;
  alias.engine = "dct";
  EXPECT_EQ(Session(alias).options().engine, "dct");
  const data::Dims dims{24, 24};
  const auto values = sample_field(dims);
  const auto via_alias = Session(alias).compress(
      Source::memory(std::span<const float>(values), dims.extents),
      fpsnr::FixedPsnr{60.0}, Sink::memory());
  SessionOptions primary;
  primary.engine = "transform-dct";
  const auto via_primary = Session(primary).compress(
      Source::memory(std::span<const float>(values), dims.extents),
      fpsnr::FixedPsnr{60.0}, Sink::memory());
  EXPECT_EQ(via_alias.archive, via_primary.archive);
}

TEST(SessionApi, BatchMatchesSingleFieldBytes) {
  // The batch workflow through the facade: per-field archives are the
  // byte-exact single-field compress() outputs, in-memory and streamed.
  const data::Dims big{64, 48};
  const data::Dims small{30, 20};
  const auto a = sample_field(big);
  auto b = data::smoothed_noise(small, 77, 2, 2);
  data::rescale(b, 100.0f, 180.0f);

  SessionOptions sopts;
  sopts.threads = 4;
  const Session session(sopts);

  BatchJob job;
  job.target = fpsnr::FixedPsnr{72.0};
  job.keep_archives = true;
  job.fields.push_back({"a", Source::memory(std::span<const float>(a),
                                            big.extents)});
  job.fields.push_back({"b", Source::memory(std::span<const float>(b),
                                            small.extents)});
  const auto batch = session.compress_batch(job);
  ASSERT_EQ(batch.fields.size(), 2u);

  const auto single_a = session.compress(
      Source::memory(std::span<const float>(a), big.extents),
      fpsnr::FixedPsnr{72.0}, Sink::memory());
  const auto single_b = session.compress(
      Source::memory(std::span<const float>(b), small.extents),
      fpsnr::FixedPsnr{72.0}, Sink::memory());
  EXPECT_EQ(batch.fields[0].archive, single_a.archive);
  EXPECT_EQ(batch.fields[1].archive, single_b.archive);
  // The model's MSE prediction is an average-case equality, so measured
  // PSNR may sit a fraction of a dB under the target; never more.
  EXPECT_GT(batch.fields[0].actual_psnr_db, 71.5);
  EXPECT_EQ(batch.fields[0].value_count, a.size());

  // Streaming batch: same bytes on disk.
  const auto dir = temp_file("batch-dir");
  fs::create_directories(dir);
  BatchJob stream_job = job;
  stream_job.keep_archives = false;
  stream_job.stream_dir = dir.string();
  const auto streamed = session.compress_batch(stream_job);
  EXPECT_EQ(slurp(streamed.fields[0].archive_path), single_a.archive);
  EXPECT_EQ(slurp(streamed.fields[1].archive_path), single_b.archive);
  fs::remove_all(dir);

  // Hostile names and non-PSNR targets are rejected.
  BatchJob hostile = job;
  hostile.fields[0].name = "../evil";
  EXPECT_THROW(session.compress_batch(hostile), std::invalid_argument);
  BatchJob wrong_target = job;
  wrong_target.target = fpsnr::FixedRate{8.0};
  EXPECT_THROW(session.compress_batch(wrong_target), std::invalid_argument);
}

TEST(SessionApi, SourceAndSinkMisuseThrows) {
  const data::Dims dims{16, 16};
  const auto values = sample_field(dims);
  const Session session;
  const auto r = session.compress(
      Source::memory(std::span<const float>(values), dims.extents),
      fpsnr::FixedPsnr{60.0}, Sink::memory());
  // An archive source is not a field source, and vice versa.
  EXPECT_THROW(session.compress(
                   Source::memory(std::span<const std::uint8_t>(r.archive)),
                   fpsnr::FixedPsnr{60.0}, Sink::memory()),
               std::invalid_argument);
  EXPECT_THROW(session.decompress(Source::memory(
                   std::span<const float>(values), dims.extents)),
               std::invalid_argument);
  // Unwritable sinks surface as runtime errors, not silent truncation.
  EXPECT_THROW(session.compress(
                   Source::memory(std::span<const float>(values), dims.extents),
                   fpsnr::FixedPsnr{60.0},
                   Sink::file("/no/such/dir/out.fpbk")),
               std::runtime_error);
}
