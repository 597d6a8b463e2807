// Property-based round-trip fuzzer for the block pipeline.
//
// A seeded (fully deterministic) sweep draws random shapes — including
// pancake fields with 1-element dims — random content classes, every
// registered codec, both budget modes, and random block sizes, then checks
// the properties the engine contracts promise:
//
//   P1  byte-determinism: compress() emits identical bytes at 1/2/8 threads
//   P2  streaming identity: compress_to_file() writes those same bytes
//   P3  round-trip: decompress returns the original shape, and the values
//       respect the quality contract (exact for store/constant fields;
//       pointwise |err| <= bound for the predictor codecs; PSNR adherence
//       for fixed-PSNR requests)
//   P4  exact PSNR reporting: the container-recorded per-block SSE implies
//       the same PSNR as an independent recomputation from the raw data,
//       to 1e-6 dB
//   P5  random access: any single decoded block equals the corresponding
//       slab of the full decode
//
// The fixed seed makes failures reproducible: every case logs its
// parameters through SCOPED_TRACE.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

#include "fpsnr/fpsnr.h"

#include "core/pipeline.h"
#include "data/synth.h"
#include "io/streaming_archive.h"
#include "metrics/metrics.h"
#include "simd/dispatch.h"

namespace core = fpsnr::core;
namespace data = fpsnr::data;
namespace io = fpsnr::io;
namespace metrics = fpsnr::metrics;
namespace simd = fpsnr::simd;

namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kSeed = 20260731;  // fixed: failures must reproduce
constexpr int kIterations = 48;

enum class Content { Smooth, Noise, Constant, Sparse };

std::vector<float> make_content(Content kind, const data::Dims& dims,
                                std::uint64_t seed) {
  switch (kind) {
    case Content::Smooth: {
      auto v = data::smoothed_noise(dims, seed, 2, 2);
      data::rescale(v, -4.0f, 7.0f);
      return v;
    }
    case Content::Noise: {
      auto v = data::white_noise(dims.count(), seed);
      data::rescale(v, -2.0f, 2.0f);
      return v;
    }
    case Content::Constant:
      return std::vector<float>(dims.count(), -3.75f);
    case Content::Sparse: {
      // Mostly flat with occasional spikes — the donor/receiver pattern
      // adaptive budgets exploit, and a stress case for outlier handling.
      auto v = std::vector<float>(dims.count(), 0.0f);
      std::mt19937_64 rng(seed);
      std::uniform_real_distribution<float> mag(-5.0f, 5.0f);
      const std::size_t spikes = 1 + dims.count() / 17;
      for (std::size_t s = 0; s < spikes; ++s)
        v[rng() % dims.count()] = mag(rng);
      return v;
    }
  }
  return {};
}

data::Dims random_dims(std::mt19937_64& rng) {
  // Hand-picked awkward shapes (pancakes, single values, primes) mixed
  // with uniformly random ones.
  static const std::vector<data::Dims> kAwkward = {
      data::Dims{1},         data::Dims{2},        data::Dims{613},
      data::Dims{1, 97},     data::Dims{97, 1},    data::Dims{1, 1, 89},
      data::Dims{89, 1, 1},  data::Dims{1, 53, 1}, data::Dims{2, 2, 2},
      data::Dims{3, 1, 127},
  };
  if (rng() % 3 == 0) return kAwkward[rng() % kAwkward.size()];
  const std::size_t rank = 1 + rng() % 3;
  std::vector<std::size_t> e(rank);
  std::size_t budget = 20000;
  for (std::size_t d = 0; d < rank; ++d) {
    e[d] = 1 + rng() % 40;
    budget = std::max<std::size_t>(1, budget / e[d]);
  }
  // Keep fields small enough for the sanitizer jobs.
  e[0] = std::min<std::size_t>(e[0], std::max<std::size_t>(1, budget));
  return data::Dims(std::move(e));
}

struct FuzzCase {
  data::Dims dims{1};
  Content content = Content::Smooth;
  core::CodecId engine = core::kCodecSzLorenzo;
  core::BudgetMode budget = core::BudgetMode::Uniform;
  double target_db = 60.0;
  std::vector<std::size_t> tile;  ///< empty = auto near-cubic tile
  std::uint64_t content_seed = 0;

  std::string describe() const {
    std::ostringstream os;
    os << "dims=";
    for (std::size_t d = 0; d < dims.rank(); ++d)
      os << (d ? "x" : "") << dims[d];
    os << " content=" << static_cast<int>(content)
       << " engine=" << static_cast<int>(engine)
       << " budget=" << (budget == core::BudgetMode::Adaptive ? "adaptive"
                                                              : "uniform")
       << " target=" << target_db << " tile=";
    if (tile.empty()) os << "auto";
    for (std::size_t d = 0; d < tile.size(); ++d)
      os << (d ? "x" : "") << tile[d];
    os << " seed=" << content_seed;
    return os.str();
  }
};

FuzzCase draw_case(std::mt19937_64& rng, int iteration) {
  FuzzCase c;
  c.dims = random_dims(rng);
  c.content = static_cast<Content>(rng() % 4);
  // Round-robin over every registered codec so all of them see every
  // content class across the sweep.
  const core::CodecId engines[] = {core::kCodecSzLorenzo,
                                   core::kCodecTransformHaar,
                                   core::kCodecTransformDct,
                                   core::kCodecInterp,
                                   core::kCodecZfpRate,
                                   core::kCodecStore};
  c.engine = engines[iteration % 6];
  c.budget = rng() % 2 ? core::BudgetMode::Adaptive : core::BudgetMode::Uniform;
  const double targets[] = {40.0, 60.0, 80.0};
  c.target_db = targets[rng() % 3];
  // Half the cases use the auto tile; the rest draw a random full-rank
  // tile (slabs fall out whenever the trailing extents hit the dims).
  if (rng() % 2)
    for (std::size_t d = 0; d < c.dims.rank(); ++d)
      c.tile.push_back(1 + rng() % c.dims[d]);
  c.content_seed = rng();
  return c;
}

core::CompressOptions options_for(const FuzzCase& c, std::size_t threads) {
  core::CompressOptions opts;
  opts.engine = c.engine;
  opts.budget = c.budget;
  opts.parallel.threads = threads;
  opts.parallel.tile = c.tile;
  return opts;
}

bool pointwise_engine(core::CodecId e) {
  return e == core::kCodecSzLorenzo || e == core::kCodecInterp ||
         e == core::kCodecStore;
}

/// The same case expressed through the public Session facade.
fpsnr::Session session_for(const FuzzCase& c, std::size_t threads) {
  fpsnr::SessionOptions opts;
  opts.engine =
      std::string(core::CodecRegistry::instance().at(c.engine).name());
  opts.budget =
      c.budget == core::BudgetMode::Adaptive ? "adaptive" : "uniform";
  opts.threads = threads;
  opts.tile = fpsnr::TileShape(c.tile);
  return fpsnr::Session(std::move(opts));
}

}  // namespace

TEST(FuzzRoundTrip, SeededSweepHoldsAllPipelineProperties) {
  std::mt19937_64 rng(kSeed);
  const auto tmp = fs::temp_directory_path() / "fpsnr-fuzz-roundtrip.fpbk";

  for (int it = 0; it < kIterations; ++it) {
    const FuzzCase c = draw_case(rng, it);
    SCOPED_TRACE("iteration " + std::to_string(it) + ": " + c.describe());
    const auto values = make_content(c.content, c.dims, c.content_seed);
    const auto request = core::ControlRequest::fixed_psnr(c.target_db);
    const std::span<const float> span(values);

    // P1: thread-count byte-determinism.
    const auto r1 = core::compress_blocked<float>(span, c.dims, request,
                                                  options_for(c, 1));
    const auto r2 = core::compress_blocked<float>(span, c.dims, request,
                                                  options_for(c, 2));
    const auto r8 = core::compress_blocked<float>(span, c.dims, request,
                                                  options_for(c, 8));
    ASSERT_EQ(r1.stream, r2.stream);
    ASSERT_EQ(r1.stream, r8.stream);

    // P7: SIMD-backend byte-identity — the archive must not depend on
    // which ISA encoded it. Rotate the forced backend across iterations so
    // every codec/content/shape cell eventually runs on every backend this
    // host supports (scalar-only hosts just re-prove determinism).
    {
      const auto backends = simd::supported_backends();
      const simd::Backend forced = backends[it % backends.size()];
      ASSERT_TRUE(simd::force_backend(forced));
      const auto rb = core::compress_blocked<float>(span, c.dims, request,
                                                    options_for(c, 2));
      simd::reset_backend();
      ASSERT_EQ(rb.stream, r1.stream)
          << "backend " << simd::backend_name(forced)
          << " produced different archive bytes";
    }

    // P2: streaming writer emits the identical container.
    core::compress_to_file<float>(span, c.dims, request, options_for(c, 4),
                                  tmp.string());
    std::ifstream in(tmp, std::ios::binary);
    const std::vector<std::uint8_t> file_bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    ASSERT_EQ(file_bytes, r1.stream);
    fs::remove(tmp);

    // P6: the public Session facade emits the identical archive (it runs
    // the same engine; this property pins the equivalence for every drawn
    // shape/codec/budget combination).
    const auto facade = session_for(c, 2).compress(
        fpsnr::Source::memory(span, c.dims.extents),
        fpsnr::FixedPsnr{c.target_db}, fpsnr::Sink::memory());
    ASSERT_EQ(facade.archive, r1.stream);

    // P3: round-trip and the quality contract.
    const auto out = core::decompress_blocked<float>(r1.stream, 2);
    ASSERT_EQ(out.dims, c.dims);
    ASSERT_EQ(out.values.size(), values.size());
    const auto info = core::inspect_block_stream(r1.stream);
    const auto report = metrics::compare<float>(values, out.values);
    if (c.engine == core::kCodecStore || c.content == Content::Constant) {
      EXPECT_EQ(out.values, values);
    } else {
      if (pointwise_engine(c.engine)) {
        // Adaptive budgets widen a block's bound to at most 4x the base.
        const double bound =
            info.eb_abs *
            (c.budget == core::BudgetMode::Adaptive ? 4.0 : 1.0);
        EXPECT_LE(report.max_abs_error, bound * (1.0 + 1e-12));
      }
      // The Eq. 6 model is an average-case equality, so measured PSNR may
      // sit under the target by a content-dependent fraction of a dB; 2 dB
      // covers every codec/content pairing while still catching real
      // budget-accounting bugs (which miss by far more).
      EXPECT_GE(report.psnr_db, c.target_db - 2.0);
    }

    // P4: container-recorded PSNR is exact.
    ASSERT_EQ(info.version, 3);
    if (std::isinf(report.psnr_db))
      EXPECT_TRUE(std::isinf(info.achieved_psnr_db));
    else
      EXPECT_NEAR(info.achieved_psnr_db, report.psnr_db, 1e-6);

    // P5: random access agrees with the full decode — for ANY tile shape.
    // Recompute block b's region from the header geometry (C-order grid,
    // last axis fastest) and walk it with an odometer.
    const std::size_t b = rng() % info.block_count;
    const auto block = core::decompress_block<float>(r1.stream, b);
    const std::size_t rank = c.dims.rank();
    ASSERT_EQ(info.tile.size(), rank);
    std::vector<std::size_t> grid(rank), start(rank), ext(rank),
        stride(rank, 1);
    for (std::size_t a = 0; a < rank; ++a)
      grid[a] = (c.dims[a] + info.tile[a] - 1) / info.tile[a];
    for (std::size_t a = rank - 1; a-- > 0;)
      stride[a] = stride[a + 1] * c.dims[a + 1];
    std::size_t rem = b;
    for (std::size_t a = rank; a-- > 0;) {
      start[a] = (rem % grid[a]) * info.tile[a];
      rem /= grid[a];
      ext[a] = std::min(info.tile[a], c.dims[a] - start[a]);
    }
    std::size_t count = 1;
    for (std::size_t a = 0; a < rank; ++a) count *= ext[a];
    ASSERT_EQ(block.values.size(), count);
    std::vector<std::size_t> idx(rank, 0);
    for (std::size_t i = 0; i < count; ++i) {
      std::size_t off = 0;
      for (std::size_t a = 0; a < rank; ++a)
        off += (start[a] + idx[a]) * stride[a];
      ASSERT_EQ(block.values[i], out.values[off])
          << "block " << b << " value " << i;
      for (std::size_t a = rank; a-- > 0;) {
        if (++idx[a] < ext[a]) break;
        idx[a] = 0;
      }
    }
  }
}

TEST(FuzzRoundTrip, DoubleScalarSweep) {
  // A smaller double-precision pass over the same properties.
  std::mt19937_64 rng(kSeed ^ 0xD0B1E);
  for (int it = 0; it < 6; ++it) {
    FuzzCase c = draw_case(rng, it);
    SCOPED_TRACE("double iteration " + std::to_string(it) + ": " +
                 c.describe());
    const auto fvalues = make_content(c.content, c.dims, c.content_seed);
    const std::vector<double> values(fvalues.begin(), fvalues.end());
    const auto request = core::ControlRequest::fixed_psnr(c.target_db);
    const std::span<const double> span(values);

    const auto r1 = core::compress_blocked<double>(span, c.dims, request,
                                                   options_for(c, 1));
    const auto r8 = core::compress_blocked<double>(span, c.dims, request,
                                                   options_for(c, 8));
    ASSERT_EQ(r1.stream, r8.stream);

    const auto out = core::decompress_blocked<double>(r1.stream, 2);
    ASSERT_EQ(out.dims, c.dims);
    const auto report = metrics::compare<double>(values, out.values);
    const auto info = core::inspect_block_stream(r1.stream);
    if (c.engine == core::kCodecStore || c.content == Content::Constant)
      EXPECT_EQ(out.values, values);
    else
      EXPECT_GE(report.psnr_db, c.target_db - 2.0);
    if (std::isinf(report.psnr_db))
      EXPECT_TRUE(std::isinf(info.achieved_psnr_db));
    else
      EXPECT_NEAR(info.achieved_psnr_db, report.psnr_db, 1e-6);
  }
}

TEST(FuzzRoundTrip, FixedRateSweep) {
  // The plan's rate search is data-driven iteration — the property most
  // worth fuzzing is that it stays deterministic across thread counts and
  // emits decodable archives for awkward shapes and content classes.
  std::mt19937_64 rng(kSeed ^ 0xF1CED);
  for (int it = 0; it < 10; ++it) {
    FuzzCase c = draw_case(rng, it);
    if (c.engine == core::kCodecStore) c.engine = core::kCodecSzLorenzo;
    const double bits = 4.0 + static_cast<double>(rng() % 9);
    SCOPED_TRACE("rate iteration " + std::to_string(it) + " bits=" +
                 std::to_string(bits) + ": " + c.describe());
    const auto values = make_content(c.content, c.dims, c.content_seed);
    const std::span<const float> span(values);
    const auto request = core::ControlRequest::fixed_rate(bits);

    const auto r1 = core::compress_blocked<float>(span, c.dims, request,
                                                  options_for(c, 1));
    const auto r8 = core::compress_blocked<float>(span, c.dims, request,
                                                  options_for(c, 8));
    ASSERT_EQ(r1.stream, r8.stream);

    const auto facade = session_for(c, 2).compress(
        fpsnr::Source::memory(span, c.dims.extents), fpsnr::FixedRate{bits},
        fpsnr::Sink::memory());
    ASSERT_EQ(facade.archive, r1.stream);

    const auto out = core::decompress_blocked<float>(r1.stream, 2);
    ASSERT_EQ(out.dims, c.dims);
    const auto info = core::inspect_block_stream(r1.stream);
    EXPECT_EQ(info.control_mode, core::ControlMode::FixedRate);
    // The recorded PSNR stays exact in rate mode too.
    const auto report = metrics::compare<float>(values, out.values);
    if (std::isinf(report.psnr_db))
      EXPECT_TRUE(std::isinf(info.achieved_psnr_db));
    else
      EXPECT_NEAR(info.achieved_psnr_db, report.psnr_db, 1e-6);
  }
}
