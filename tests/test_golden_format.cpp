// Golden-file format test: a tiny reference FPBK archive checked in under
// tests/data/ locks the on-disk format. If a change to the container
// layout, the index, the SZ codec bytes, or the Huffman/lossless stages
// breaks compatibility with archives written by earlier builds, this test
// fails — bump the container version and keep the old reader instead of
// silently orphaning every archive in the field.
//
// The fixture was produced by (see tests/data/README.md):
//   fpsnr_cli compress -i golden_v1_input.f32 -d 16x8 -m psnr -v 60
//             --block-size 4 -o golden_v1.fpbk
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/compressor.h"
#include "core/pipeline.h"
#include "fpsnr/session.h"
#include "fpsnr/timeseries.h"
#include "io/archive.h"
#include "io/streaming_archive.h"
#include "metrics/metrics.h"

namespace core = fpsnr::core;
namespace io = fpsnr::io;

namespace {

std::string data_path(const std::string& name) {
  return std::string(FPSNR_TEST_DATA_DIR) + "/" + name;
}

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

fpsnr::metrics::ErrorReport verify_stream(std::span<const float> values,
                                          std::span<const std::uint8_t> stream) {
  const auto decoded = core::decompress<float>(stream);
  return fpsnr::metrics::compare<float>(values, decoded.values);
}

std::vector<float> read_f32(const std::string& path) {
  const auto raw = read_bytes(path);
  EXPECT_EQ(raw.size() % sizeof(float), 0u);
  std::vector<float> values(raw.size() / sizeof(float));
  if (!raw.empty()) std::memcpy(values.data(), raw.data(), raw.size());
  return values;
}

}  // namespace

TEST(GoldenFormat, HeaderFieldsAreStable) {
  const auto archive = read_bytes(data_path("golden_v1.fpbk"));
  ASSERT_TRUE(core::is_block_stream(archive));
  const auto info = core::inspect_block_stream(archive);
  EXPECT_EQ(info.codec, core::kCodecSzLorenzo);
  EXPECT_EQ(info.codec_name, "sz-lorenzo");
  EXPECT_EQ(info.dims, (fpsnr::data::Dims{16, 8}));
  EXPECT_EQ(info.tile, (std::vector<std::size_t>{4, 8}));
  EXPECT_EQ(info.block_count, 4u);
  EXPECT_EQ(info.control_mode, core::ControlMode::FixedPsnr);
  EXPECT_DOUBLE_EQ(info.control_value, 60.0);
}

TEST(GoldenFormat, DecodesBitExactly) {
  const auto archive = read_bytes(data_path("golden_v1.fpbk"));
  const auto expected = read_f32(data_path("golden_v1_decoded.f32"));
  ASSERT_EQ(expected.size(), 128u);

  const auto full = core::decompress_blocked<float>(archive);
  ASSERT_EQ(full.values.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    ASSERT_EQ(full.values[i], expected[i]) << "value " << i;

  // Random access must agree with the full decode, block by block.
  for (std::size_t b = 0; b < 4; ++b) {
    const auto block = core::decompress_block<float>(archive, b);
    for (std::size_t i = 0; i < block.values.size(); ++i)
      ASSERT_EQ(block.values[i], expected[b * 4 * 8 + i])
          << "block " << b << " value " << i;
  }
}

TEST(GoldenFormat, DecodeStaysWithinQualityContract) {
  // The archive promises fixed-PSNR 60 dB over the original input; the
  // checked-in input lets us re-verify the contract, not just the bytes.
  const auto archive = read_bytes(data_path("golden_v1.fpbk"));
  const auto original = read_f32(data_path("golden_v1_input.f32"));
  const auto report = verify_stream(original, archive);
  EXPECT_GE(report.psnr_db, 59.5);
}

TEST(GoldenFormat, MmapReaderAcceptsGoldenArchive) {
  const io::MappedFile reader(data_path("golden_v1.fpbk"));
  EXPECT_EQ(io::block_container_header(reader.bytes()).block_count, 4u);
  const auto expected = read_f32(data_path("golden_v1_decoded.f32"));
  const auto full = core::decompress_file<float>(data_path("golden_v1.fpbk"));
  EXPECT_EQ(full.values, expected);
}

TEST(GoldenFormat, V1ArchiveReportsNoRecordedPsnr) {
  // v1 has no per-block SSE index column; the reader must say so instead
  // of inventing a number.
  const auto archive = read_bytes(data_path("golden_v1.fpbk"));
  const auto info = core::inspect_block_stream(archive);
  EXPECT_EQ(info.version, 1);
  EXPECT_EQ(info.budget_mode, core::BudgetMode::Uniform);
  EXPECT_TRUE(std::isnan(info.achieved_psnr_db));
  EXPECT_EQ(info.achieved_sse, -1.0);
}

// --- v2 fixtures: new codec bytes + per-block-SSE index column ------------
//
// Produced by (see tests/data/README.md):
//   fpsnr_cli compress -i golden_v2_input.f32 -d 24x8 -m psnr -v 60
//             --engine {interp|zfpr|store} [--budget adaptive] --block-size 6
//             -o golden_v2_{interp|zfpr|store}.fpbk

struct GoldenV2Case {
  const char* archive;
  const char* decoded;  ///< nullptr = decodes to the input bit-exactly
  core::CodecId codec;
  const char* codec_name;
  core::BudgetMode budget;
};

class GoldenV2 : public ::testing::TestWithParam<GoldenV2Case> {};

TEST_P(GoldenV2, HeaderCodecByteAndBudgetModeAreStable) {
  const auto& c = GetParam();
  const auto archive = read_bytes(data_path(c.archive));
  ASSERT_TRUE(core::is_block_stream(archive));
  const auto info = core::inspect_block_stream(archive);
  EXPECT_EQ(info.version, 2);
  EXPECT_EQ(info.codec, c.codec);
  EXPECT_EQ(info.codec_name, c.codec_name);
  EXPECT_EQ(info.budget_mode, c.budget);
  EXPECT_EQ(info.dims, (fpsnr::data::Dims{24, 8}));
  EXPECT_EQ(info.tile, (std::vector<std::size_t>{6, 8}));
  EXPECT_EQ(info.block_count, 4u);
  EXPECT_EQ(info.control_mode, core::ControlMode::FixedPsnr);
  EXPECT_DOUBLE_EQ(info.control_value, 60.0);
}

TEST_P(GoldenV2, DecodesBitExactly) {
  const auto& c = GetParam();
  const auto archive = read_bytes(data_path(c.archive));
  const auto expected =
      read_f32(data_path(c.decoded ? c.decoded : "golden_v2_input.f32"));
  ASSERT_EQ(expected.size(), 192u);
  const auto full = core::decompress_blocked<float>(archive);
  ASSERT_EQ(full.values.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    ASSERT_EQ(full.values[i], expected[i]) << "value " << i;

  // Random access must agree, including store-demoted blocks.
  for (std::size_t b = 0; b < 4; ++b) {
    const auto block = core::decompress_block<float>(archive, b);
    for (std::size_t i = 0; i < block.values.size(); ++i)
      ASSERT_EQ(block.values[i], expected[b * 6 * 8 + i])
          << "block " << b << " value " << i;
  }
}

TEST_P(GoldenV2, RecordedSseColumnMatchesDecodeExactly) {
  // The per-block-SSE index field is part of the format contract: the
  // recorded PSNR must reproduce a from-scratch recomputation against the
  // checked-in input to 1e-6 dB.
  const auto& c = GetParam();
  const auto archive = read_bytes(data_path(c.archive));
  const auto original = read_f32(data_path("golden_v2_input.f32"));
  const auto info = core::inspect_block_stream(archive);
  ASSERT_GE(info.achieved_sse, 0.0);
  const auto report = verify_stream(original, archive);
  if (std::isinf(report.psnr_db))
    EXPECT_TRUE(std::isinf(info.achieved_psnr_db));
  else
    EXPECT_NEAR(info.achieved_psnr_db, report.psnr_db, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    NewCodecs, GoldenV2,
    ::testing::Values(
        GoldenV2Case{"golden_v2_interp.fpbk", "golden_v2_interp_decoded.f32",
                     core::kCodecInterp, "interp", core::BudgetMode::Adaptive},
        GoldenV2Case{"golden_v2_zfpr.fpbk", "golden_v2_zfpr_decoded.f32",
                     core::kCodecZfpRate, "zfpr", core::BudgetMode::Uniform},
        GoldenV2Case{"golden_v2_store.fpbk", nullptr, core::kCodecStore,
                     "store", core::BudgetMode::Uniform}),
    [](const ::testing::TestParamInfo<GoldenV2Case>& info) {
      return std::string(info.param.codec_name);
    });

// --- v3 fixture: full-rank tile geometry in the header --------------------
//
// Produced by (see tests/data/README.md):
//   fpsnr_cli compress -i golden_v3_input.f32 -d 40x16 -m psnr -v 60
//             --budget adaptive --tile 10x8 -o golden_v3.fpbk

TEST(GoldenFormat, V3HeaderCarriesTileGeometry) {
  const auto archive = read_bytes(data_path("golden_v3.fpbk"));
  ASSERT_TRUE(core::is_block_stream(archive));
  const auto info = core::inspect_block_stream(archive);
  EXPECT_EQ(info.version, 3);
  EXPECT_EQ(info.codec, core::kCodecSzLorenzo);
  EXPECT_EQ(info.dims, (fpsnr::data::Dims{40, 16}));
  EXPECT_EQ(info.tile, (std::vector<std::size_t>{10, 8}));  // grid 4x2
  EXPECT_EQ(info.block_count, 8u);
  EXPECT_EQ(info.control_mode, core::ControlMode::FixedPsnr);
  EXPECT_DOUBLE_EQ(info.control_value, 60.0);
  EXPECT_EQ(info.budget_mode, core::BudgetMode::Adaptive);
  ASSERT_GE(info.achieved_sse, 0.0);
}

TEST(GoldenFormat, V3DecodesBitExactly) {
  const auto archive = read_bytes(data_path("golden_v3.fpbk"));
  const auto expected = read_f32(data_path("golden_v3_decoded.f32"));
  ASSERT_EQ(expected.size(), 640u);

  const auto full = core::decompress_blocked<float>(archive);
  ASSERT_EQ(full.values.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    ASSERT_EQ(full.values[i], expected[i]) << "value " << i;

  // Random access must agree with the full decode through the tile
  // scatter path (tiles are 10x8 over a 16-wide field: never row-contiguous).
  for (std::size_t b = 0; b < 8; ++b) {
    const auto block = core::decompress_block<float>(archive, b);
    ASSERT_EQ(block.dims, (fpsnr::data::Dims{10, 8})) << "block " << b;
    const std::size_t r0 = (b / 2) * 10, c0 = (b % 2) * 8;
    for (std::size_t i = 0; i < block.values.size(); ++i) {
      const std::size_t r = r0 + i / 8, c = c0 + i % 8;
      ASSERT_EQ(block.values[i], expected[r * 16 + c])
          << "block " << b << " value " << i;
    }
  }
}

TEST(GoldenFormat, V3QualityContractAndRecordedPsnr) {
  const auto archive = read_bytes(data_path("golden_v3.fpbk"));
  const auto original = read_f32(data_path("golden_v3_input.f32"));
  const auto report = verify_stream(original, archive);
  EXPECT_GE(report.psnr_db, 60.0);  // fixed-PSNR target of the fixture
  const auto info = core::inspect_block_stream(archive);
  EXPECT_NEAR(info.achieved_psnr_db, report.psnr_db, 1e-6);
}

// --- v4: the temporal chain header ------------------------------------------
//
// golden_v4_key.fpbk / golden_v4.fpbk are a two-frame chain (keyframe at
// t=0, delta frame at t=1) written by fpsnr_cli compress-series; see
// tests/data/README.md for full provenance.

TEST(GoldenFormat, V4HeaderCarriesChainMetadata) {
  const auto key = read_bytes(data_path("golden_v4_key.fpbk"));
  const auto delta = read_bytes(data_path("golden_v4.fpbk"));
  ASSERT_TRUE(core::is_block_stream(key));
  ASSERT_TRUE(core::is_block_stream(delta));

  const auto ki = core::inspect_block_stream(key);
  EXPECT_EQ(ki.version, 4);
  EXPECT_TRUE(ki.temporal);
  EXPECT_FALSE(ki.delta);
  EXPECT_EQ(ki.timestep, 0u);
  EXPECT_EQ(ki.ref_hash, 0u);  // keyframes reference nothing
  EXPECT_EQ(ki.temporal_blocks, 0u);

  const auto di = core::inspect_block_stream(delta);
  EXPECT_EQ(di.version, 4);
  EXPECT_TRUE(di.temporal);
  EXPECT_TRUE(di.delta);
  EXPECT_EQ(di.timestep, 1u);
  EXPECT_EQ(di.series_id, ki.series_id);  // same chain identity
  // The chain identity and reference hash are part of the locked format.
  EXPECT_EQ(di.series_id, 0x1525268c7de1d0e9ull);  // FNV-1a("golden-v4")
  EXPECT_EQ(di.ref_hash, 0x2170c9a1d4ae0addull);
  EXPECT_EQ(di.dims, (fpsnr::data::Dims{24, 16}));
  EXPECT_EQ(di.tile, (std::vector<std::size_t>{8, 16}));
  EXPECT_EQ(di.block_count, 3u);
  EXPECT_EQ(di.temporal_blocks, 3u);  // slow evolution: every block delta
  EXPECT_EQ(di.control_mode, core::ControlMode::FixedPsnr);
  EXPECT_DOUBLE_EQ(di.control_value, 60.0);
}

TEST(GoldenFormat, V4ChainDecodesBitExactly) {
  const auto key = read_bytes(data_path("golden_v4_key.fpbk"));
  const auto delta = read_bytes(data_path("golden_v4.fpbk"));
  const auto expected = read_f32(data_path("golden_v4_decoded.f32"));
  ASSERT_EQ(expected.size(), 384u);

  fpsnr::TimeSeriesDecoder dec;
  dec.feed(key);
  const auto frame = dec.feed(delta);
  ASSERT_EQ(frame.f32.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    ASSERT_EQ(frame.f32[i], expected[i]) << "value " << i;

  // The delta frame never decodes standalone: without the keyframe the
  // chain contract is unmet, and a fresh decoder must say so.
  fpsnr::TimeSeriesDecoder fresh;
  EXPECT_THROW((void)fresh.feed(delta), std::runtime_error);
}

TEST(GoldenFormat, V4QualityContractHoldsAgainstTheOriginal) {
  // The fixed-PSNR promise is anchored to the ORIGINAL snapshot, not the
  // previous reconstruction — re-verify it from the checked-in input.
  const auto key = read_bytes(data_path("golden_v4_key.fpbk"));
  const auto delta = read_bytes(data_path("golden_v4.fpbk"));
  const auto original = read_f32(data_path("golden_v4_t1.f32"));

  fpsnr::TimeSeriesDecoder dec;
  dec.feed(key);
  const auto frame = dec.feed(delta);
  const auto report =
      fpsnr::metrics::compare<float>(original, frame.f32);
  EXPECT_GE(report.psnr_db, 59.5);
}

// --- every fixture, every source --------------------------------------------
//
// A Session decodes an archive file through a read-only mapping and an
// archive in memory through the caller's span; both must give the same
// field, metadata and blocks for every checked-in fixture.

struct GoldenSourceCase {
  const char* archive;
  /// The field decompress() must return; nullptr when no checked-in file
  /// holds it. golden_v4_key.fpbk has no decoded file, and
  /// golden_v4_decoded.f32 is the chain's t=1 reconstruction, which only
  /// a TimeSeriesDecoder fed both frames returns.
  const char* decoded;
};

class GoldenSources : public ::testing::TestWithParam<GoldenSourceCase> {};

TEST_P(GoldenSources, FileAndMemorySourcesAgree) {
  const auto& c = GetParam();
  const std::string path = data_path(c.archive);
  const auto bytes = read_bytes(path);
  const auto memory = fpsnr::Source::memory(std::span<const std::uint8_t>(bytes));
  const auto file = fpsnr::Source::file(path);
  fpsnr::SessionOptions options;
  options.threads = 2;
  const fpsnr::Session session(options);

  const fpsnr::Field from_memory = session.decompress(memory);
  const fpsnr::Field from_file = session.decompress(file);
  EXPECT_EQ(from_file.dims, from_memory.dims);
  EXPECT_EQ(from_file.f32, from_memory.f32);
  EXPECT_EQ(from_file.f64, from_memory.f64);
  if (c.decoded) {
    EXPECT_EQ(from_file.f32, read_f32(data_path(c.decoded)));
  }

  const fpsnr::Inspection mi = session.inspect(memory);
  const fpsnr::Inspection fi = session.inspect(file);
  EXPECT_TRUE(fi.block_container);
  EXPECT_EQ(fi.version, mi.version);
  EXPECT_EQ(fi.codec, mi.codec);
  EXPECT_EQ(fi.target, mi.target);
  EXPECT_EQ(fi.target_value, mi.target_value);
  EXPECT_EQ(fi.budget, mi.budget);
  EXPECT_EQ(fi.dims, mi.dims);
  EXPECT_EQ(fi.block_count, mi.block_count);
  EXPECT_EQ(fi.tile, mi.tile);
  EXPECT_EQ(fi.eb_abs, mi.eb_abs);
  EXPECT_EQ(fi.value_range, mi.value_range);
  if (std::isnan(mi.achieved_psnr_db)) {
    EXPECT_TRUE(std::isnan(fi.achieved_psnr_db));
  } else {
    EXPECT_EQ(fi.achieved_psnr_db, mi.achieved_psnr_db);
  }
  EXPECT_EQ(fi.archive_bytes, bytes.size());
  EXPECT_EQ(fi.archive_bytes, mi.archive_bytes);
  EXPECT_EQ(fi.temporal, mi.temporal);
  EXPECT_EQ(fi.delta, mi.delta);
  EXPECT_EQ(fi.series_id, mi.series_id);
  EXPECT_EQ(fi.timestep, mi.timestep);
  EXPECT_EQ(fi.ref_hash, mi.ref_hash);
  EXPECT_EQ(fi.temporal_blocks, mi.temporal_blocks);

  for (std::size_t b = 0; b < fi.block_count; ++b) {
    SCOPED_TRACE("block " + std::to_string(b));
    const fpsnr::Field bm = session.decompress_block(memory, b);
    const fpsnr::Field bf = session.decompress_block(file, b);
    EXPECT_EQ(bf.dims, bm.dims);
    EXPECT_EQ(bf.f32, bm.f32);
    EXPECT_EQ(bf.f64, bm.f64);
  }
  EXPECT_THROW((void)session.decompress_block(memory, fi.block_count),
               std::out_of_range);
  EXPECT_THROW((void)session.decompress_block(file, fi.block_count),
               std::out_of_range);
}

INSTANTIATE_TEST_SUITE_P(
    EveryFixture, GoldenSources,
    ::testing::Values(
        GoldenSourceCase{"golden_v1.fpbk", "golden_v1_decoded.f32"},
        GoldenSourceCase{"golden_v2_interp.fpbk",
                         "golden_v2_interp_decoded.f32"},
        GoldenSourceCase{"golden_v2_zfpr.fpbk", "golden_v2_zfpr_decoded.f32"},
        GoldenSourceCase{"golden_v2_store.fpbk", "golden_v2_input.f32"},
        GoldenSourceCase{"golden_v3.fpbk", "golden_v3_decoded.f32"},
        GoldenSourceCase{"golden_v4_key.fpbk", nullptr},
        GoldenSourceCase{"golden_v4.fpbk", nullptr}),
    [](const ::testing::TestParamInfo<GoldenSourceCase>& info) {
      std::string name = info.param.archive;
      name = name.substr(0, name.find('.'));
      return name;
    });
