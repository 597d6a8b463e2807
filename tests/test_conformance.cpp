// Cross-codec conformance suite, driven through the public fpsnr::Session
// facade: one parameterized fixture sweeping every block codec
// {SZ-Lorenzo, Haar, DCT, Interp, ZfpRate, Store} × PSNR target {40, 60,
// 80 dB} × field shape {1-D, 2-D, 3-D} × tile geometry {axis-0 slab,
// full-rank non-slab} × content {smooth random, constant}, plus an
// adaptive-budget sweep over a non-slab tile. Every combination must (a)
// meet its fixed-PSNR target, (b) round-trip through the facade, and (c)
// produce a byte-identical archive through the streaming sink AND the
// legacy core::compress_blocked entry point — the format contract the
// paper's fixed-PSNR claim rests on, enforced codec-by-codec. Engine names
// come from the live codec registry, never a local table. Slab cases are
// additionally re-serialized in the v1 and v2 container layouts to pin the
// backward-decode guarantee.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>

#include "fpsnr/fpsnr.h"

#include "core/pipeline.h"
#include "data/synth.h"
#include "io/archive.h"
#include "io/bitstream.h"
#include "metrics/metrics.h"

namespace core = fpsnr::core;
namespace data = fpsnr::data;
namespace io = fpsnr::io;
namespace metrics = fpsnr::metrics;

namespace {

namespace fs = std::filesystem;

struct Case {
  core::CodecId engine;
  double target_db;
  data::Dims dims;
  std::vector<std::size_t> tile;
  bool constant;
  core::BudgetMode budget = core::BudgetMode::Uniform;
};

/// Registry name of the engine — the same string the CLI and the Session
/// accept, so the test sweep can never drift from the live codec set.
std::string engine_name(core::CodecId e) {
  return std::string(core::CodecRegistry::instance().at(e).name());
}

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  const Case& c = info.param;
  std::string name = engine_name(c.engine) + "_" +
                     std::to_string(static_cast<int>(c.target_db)) + "db_" +
                     std::to_string(c.dims.rank()) + "d_tile";
  for (std::size_t i = 0; i < c.tile.size(); ++i)
    name += (i ? "x" : "") + std::to_string(c.tile[i]);
  if (c.constant) name += "_const";
  if (c.budget == core::BudgetMode::Adaptive) name += "_adaptive";
  // Gtest parameter names must be alphanumeric/underscore only.
  for (char& ch : name)
    if (ch == '-') ch = '_';
  return name;
}

std::vector<Case> all_cases() {
  const core::CodecId engines[] = {core::kCodecSzLorenzo,
                                   core::kCodecTransformHaar,
                                   core::kCodecTransformDct,
                                   core::kCodecInterp,
                                   core::kCodecZfpRate,
                                   core::kCodecStore};
  const double targets[] = {40.0, 60.0, 80.0};
  // One slab and (for rank >= 2) one full-rank tile per rank; no extent
  // divides its field, so the short trailing tile is exercised on every
  // axis, interior and boundary.
  const std::pair<data::Dims, std::vector<std::size_t>> shapes[] = {
      {data::Dims{1000}, {300}},
      {data::Dims{52, 36}, {15}},          // axis-0 slab
      {data::Dims{52, 36}, {15, 10}},      // full-rank non-slab tile
      {data::Dims{14, 20, 18}, {5}},       // axis-0 slab
      {data::Dims{14, 20, 18}, {5, 7, 6}}, // full-rank non-slab tile
  };
  std::vector<Case> cases;
  for (core::CodecId e : engines)
    for (double t : targets)
      for (const auto& [dims, tile] : shapes)
        for (bool constant : {false, true})
          cases.push_back({e, t, dims, tile, constant});
  // Adaptive budgets must honour the same contract; sweep every codec over
  // the 2-D shape at the middle target, on the non-slab tile so the
  // rank-aware residual probe sees gathered tile interiors.
  for (core::CodecId e : engines)
    cases.push_back({e, 60.0, data::Dims{52, 36}, {15, 10}, false,
                     core::BudgetMode::Adaptive});
  return cases;
}

class Conformance : public ::testing::TestWithParam<Case> {
 protected:
  /// NaN-free random field (smoothed noise, deterministic seed) or a
  /// constant field, per the parameter.
  std::vector<float> make_field() const {
    const Case& c = GetParam();
    if (c.constant) return std::vector<float>(c.dims.count(), 4.25f);
    auto v = data::smoothed_noise(c.dims, 1234 + c.dims.rank(), 2, 2);
    data::rescale(v, -3.0f, 9.0f);
    return v;
  }

  fpsnr::Session make_session(std::size_t threads) const {
    const Case& c = GetParam();
    fpsnr::SessionOptions opts;
    opts.engine = engine_name(c.engine);
    opts.budget =
        c.budget == core::BudgetMode::Adaptive ? "adaptive" : "uniform";
    opts.threads = threads;
    opts.tile = fpsnr::TileShape(c.tile);
    return fpsnr::Session(std::move(opts));
  }
};

/// Re-serialize a v3 slab archive in the v1 or v2 byte layout, index and
/// payload preserved. This is exactly the byte stream an older build wrote
/// for the same blocks, so decoding it pins the backward-decode contract.
std::vector<std::uint8_t> downgrade(std::span<const std::uint8_t> v3,
                                    std::uint8_t version) {
  const auto view = io::open_block_container(v3);
  const auto& h = view.header;
  io::ByteWriter w;
  const std::uint8_t magic[4] = {'F', 'P', 'B', 'K'};
  w.put_bytes(std::span<const std::uint8_t>(magic, 4));
  w.put<std::uint8_t>(version);
  w.put<std::uint8_t>(h.codec);
  w.put<std::uint8_t>(h.scalar);
  w.put<std::uint8_t>(static_cast<std::uint8_t>(h.extents.size()));
  for (std::uint64_t e : h.extents) w.put_varint(e);
  w.put_varint(h.tile[0]);  // v1/v2 carry only the slab height
  w.put_varint(h.block_count);
  w.put<double>(h.eb_abs);
  w.put<double>(h.value_range);
  w.put<std::uint8_t>(h.control_mode);
  w.put<double>(h.control_value);
  if (version >= 2) w.put<std::uint8_t>(h.budget_mode);
  std::uint64_t offset = 0;
  for (const auto& b : view.blocks) {
    w.put<std::uint64_t>(offset);
    offset += b.size();
  }
  for (const auto& b : view.blocks) w.put<std::uint64_t>(b.size());
  if (version >= 2)
    for (double sse : view.block_sse) w.put<double>(sse);
  for (const auto& b : view.blocks) w.put_bytes(b);
  return w.take();
}

}  // namespace

TEST_P(Conformance, MeetsPsnrTargetAndStreamsByteIdentically) {
  const Case& c = GetParam();
  const auto values = make_field();
  const fpsnr::Target target = fpsnr::FixedPsnr{c.target_db};
  const fpsnr::Source source =
      fpsnr::Source::memory(std::span<const float>(values), c.dims.extents);

  const auto mem =
      make_session(2).compress(source, target, fpsnr::Sink::memory());

  // (a) Quality: the fixed-PSNR guarantee. The per-point budget comes from
  // the uniform-quantization model (Eq. 6), whose MSE prediction eb^2/3 is
  // an average-case equality — measured PSNR therefore tracks the target
  // from above for predictable content but may sit a fraction of a dB
  // under it when residuals fill the bins uniformly. Allow that fraction,
  // nothing more.
  const auto decoded = make_session(2).decompress(
      fpsnr::Source::memory(std::span<const std::uint8_t>(mem.archive)));
  const auto report = metrics::compare<float>(values, decoded.f32);
  if (c.constant || c.engine == core::kCodecStore) {
    EXPECT_EQ(decoded.f32, values)
        << (c.constant ? "constant field" : "store codec")
        << " must stay exact";
  } else {
    EXPECT_GE(report.psnr_db, c.target_db - 0.5)
        << engine_name(c.engine) << " missed " << c.target_db << " dB";
  }

  // The v3 container must report the measured PSNR exactly (the per-block
  // SSE column), matching an independent recomputation from the raw data.
  const auto info = make_session(1).inspect(
      fpsnr::Source::memory(std::span<const std::uint8_t>(mem.archive)));
  ASSERT_EQ(info.version, 3);
  if (std::isinf(report.psnr_db))
    EXPECT_TRUE(std::isinf(info.achieved_psnr_db));
  else
    EXPECT_NEAR(info.achieved_psnr_db, report.psnr_db, 1e-6);

  // (b) Round-trip shape.
  ASSERT_EQ(decoded.dims, c.dims.extents);
  ASSERT_EQ(decoded.f32.size(), values.size());

  // (c) Byte identity: the streaming sink at a different thread count AND
  // the legacy core:: entry point both produce the same archive.
  const auto path = fs::temp_directory_path() /
                    ("fpsnr-conformance-" +
                     case_name({GetParam(), 0}) + ".fpbk");
  make_session(4).compress(source, target, fpsnr::Sink::stream(path.string()));
  std::ifstream in(path, std::ios::binary);
  const std::vector<std::uint8_t> file_bytes(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_EQ(file_bytes, mem.archive);
  fs::remove(path);

  core::CompressOptions lopts;
  lopts.engine = c.engine;
  lopts.budget = c.budget;
  lopts.parallel.threads = 2;
  lopts.parallel.tile = c.tile;
  const auto legacy = core::compress_blocked<float>(
      std::span<const float>(values), c.dims,
      core::ControlRequest::fixed_psnr(c.target_db), lopts);
  EXPECT_EQ(legacy.stream, mem.archive)
      << "facade and legacy entry points must emit identical archives";
}

TEST_P(Conformance, V1AndV2SlabArchivesDecodeBitExactly) {
  // Backward compatibility: pre-v3 containers (axis-0 slabs, scalar
  // block_rows on the wire) must decode to the exact bytes the equivalent
  // v3 archive decodes to, through every codec. Full-rank tiles cannot be
  // expressed pre-v3, so only slab cases apply.
  const Case& c = GetParam();
  if (c.tile.size() > 1) GTEST_SKIP() << "full-rank tile is v3-only";

  const auto values = make_field();
  const auto mem = make_session(1).compress(
      fpsnr::Source::memory(std::span<const float>(values), c.dims.extents),
      fpsnr::FixedPsnr{c.target_db}, fpsnr::Sink::memory());
  const auto v3 = core::decompress_blocked<float>(mem.archive);

  for (const std::uint8_t version : {std::uint8_t{1}, std::uint8_t{2}}) {
    SCOPED_TRACE("container v" + std::to_string(version));
    const auto old = downgrade(mem.archive, version);
    const auto info = core::inspect_block_stream(old);
    EXPECT_EQ(info.version, version);
    ASSERT_EQ(info.tile.size(), c.dims.rank());
    EXPECT_EQ(info.tile[0], std::min<std::size_t>(c.tile[0], c.dims[0]));

    const auto out = core::decompress_blocked<float>(old, 2);
    EXPECT_EQ(out.values, v3.values) << "pre-v3 decode diverged";
    // Random access through the synthesized slab geometry too.
    const auto block = core::decompress_block<float>(old, info.block_count - 1);
    EXPECT_FALSE(block.values.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, Conformance,
                         ::testing::ValuesIn(all_cases()), case_name);
