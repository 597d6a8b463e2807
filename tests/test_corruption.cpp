// Corruption-robustness tests for the FPBK archive readers: every malformed
// input — truncation at any byte, bad magic, index entries past EOF,
// overlapping block extents, crafted headers — must surface as a clean
// io::StreamError (or std::out_of_range for bad indices), never a crash or
// out-of-bounds read. The whole file is meant to run under ASan/UBSan.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "core/codec_registry.h"
#include "core/pipeline.h"
#include "data/synth.h"
#include "fpsnr/session.h"
#include "fpsnr/timeseries.h"
#include "huffman/huffman.h"
#include "io/archive.h"
#include "io/bitstream.h"
#include "io/bytebuffer.h"
#include "io/streaming_archive.h"
#include "lossless/backend.h"
#include "simd/dispatch.h"
#include "sz/codec.h"
#include "sz/interp.h"
#include "sz/stream_format.h"
#include "transform/fixed_rate.h"
#include "transform/transform_codec.h"

namespace core = fpsnr::core;
namespace data = fpsnr::data;
namespace io = fpsnr::io;

namespace {

namespace fs = std::filesystem;

/// A small, valid 4-block container to mutate.
std::vector<std::uint8_t> valid_container() {
  const data::Dims dims{32, 12};
  auto values = data::smoothed_noise(dims, 29, 2, 2);
  data::rescale(values, -1.0f, 5.0f);
  core::CompressOptions opts;
  opts.parallel.tile = {8};
  return core::compress_blocked<float>(std::span<const float>(values), dims,
                                       core::ControlRequest::fixed_psnr(60.0),
                                       opts)
      .stream;
}

io::BlockContainerHeader tiny_header(std::uint64_t rows,
                                     std::uint64_t slab_rows) {
  io::BlockContainerHeader h;
  h.codec = 0;
  h.scalar = 0;
  h.extents = {rows};
  h.tile = {slab_rows};
  h.block_count = (rows + slab_rows - 1) / slab_rows;
  h.eb_abs = 1e-3;
  h.value_range = 1.0;
  return h;
}

/// Header + hand-written index + payload, for crafting inconsistent files.
/// write_block_header emits the current (v3) version, so the index carries
/// the per-block SSE column after the size column.
std::vector<std::uint8_t> craft(const io::BlockContainerHeader& h,
                                std::span<const std::uint64_t> offsets,
                                std::span<const std::uint64_t> sizes,
                                std::size_t payload_bytes) {
  io::ByteWriter w;
  io::write_block_header(h, w);
  for (std::uint64_t o : offsets) w.put<std::uint64_t>(o);
  for (std::uint64_t s : sizes) w.put<std::uint64_t>(s);
  for (std::size_t i = 0; i < sizes.size(); ++i) w.put<double>(0.0);
  for (std::size_t i = 0; i < payload_bytes; ++i)
    w.put<std::uint8_t>(static_cast<std::uint8_t>(i));
  return w.take();
}

void expect_all_readers_reject(std::span<const std::uint8_t> stream) {
  EXPECT_THROW(io::open_block_container(stream), io::StreamError);
  EXPECT_THROW(io::block_container_entry(stream, 0), io::StreamError);
  EXPECT_THROW(core::decompress_blocked<float>(stream), io::StreamError);
}

}  // namespace

// --- truncation -------------------------------------------------------------

TEST(Corruption, EveryTruncationFailsCleanly) {
  // No proper prefix of a valid container may parse: the index must cover
  // the payload exactly, so any missing tail is detected. Sweep every
  // prefix length — under ASan this also proves no read strays past the
  // truncated span.
  const auto whole = valid_container();
  ASSERT_GT(whole.size(), 100u);
  const std::span<const std::uint8_t> all(whole);
  for (std::size_t len = 0; len < whole.size(); ++len) {
    const auto prefix = all.first(len);
    EXPECT_THROW(io::open_block_container(prefix), io::StreamError)
        << "prefix length " << len;
  }
}

TEST(Corruption, TruncatedFileRejectedThroughMmapReader) {
  const auto whole = valid_container();
  const auto path = fs::temp_directory_path() / "fpsnr-test-trunc.fpbk";
  std::ofstream(path, std::ios::binary)
      .write(reinterpret_cast<const char*>(whole.data()),
             static_cast<std::streamsize>(whole.size() / 3));
  // Whether the cut lands in the header (reader construction fails) or the
  // payload (index coverage check fails), the error is a clean StreamError.
  EXPECT_THROW(core::decompress_file<float>(path.string()), io::StreamError);
  fs::remove(path);
}

// --- magic / version / header fields ----------------------------------------

TEST(Corruption, BadMagicAndVersionRejected) {
  auto stream = valid_container();
  stream[0] = 'X';
  EXPECT_FALSE(io::is_block_container(stream));
  expect_all_readers_reject(stream);

  stream = valid_container();
  stream[4] = 99;  // version byte
  expect_all_readers_reject(stream);
}

TEST(Corruption, CraftedHeaderFieldsRejected) {
  {  // rank 0
    io::ByteWriter w;
    const std::uint8_t magic[4] = {'F', 'P', 'B', 'K'};
    w.put_bytes(std::span<const std::uint8_t>(magic, 4));
    w.put<std::uint8_t>(1);
    w.put<std::uint8_t>(0);
    w.put<std::uint8_t>(0);
    w.put<std::uint8_t>(0);  // rank
    const auto s = w.take();
    EXPECT_THROW(io::block_container_header(s), io::StreamError);
  }
  {  // zero extent
    auto h = tiny_header(4, 2);
    h.extents = {0};
    io::ByteWriter w;
    io::write_block_header(h, w);
    const auto s = w.take();
    EXPECT_THROW(io::block_container_header(s), io::StreamError);
  }
  {  // block layout does not tile the field
    auto h = tiny_header(8, 2);
    h.block_count = 2;  // should be 4
    io::ByteWriter w;
    io::write_block_header(h, w);
    const auto s = w.take();
    EXPECT_THROW(io::block_container_header(s), io::StreamError);
  }
}

TEST(Corruption, MalformedTileGeometryRejected) {
  {  // zero tile extent (v3 carries per-axis tile extents)
    auto h = tiny_header(4, 2);
    h.tile = {0};
    io::ByteWriter w;
    io::write_block_header(h, w);
    const auto s = w.take();
    EXPECT_THROW(io::block_container_header(s), io::StreamError);
  }
  {  // tile larger than the field on its axis
    auto h = tiny_header(4, 2);
    h.tile = {16};
    io::ByteWriter w;
    io::write_block_header(h, w);
    const auto s = w.take();
    EXPECT_THROW(io::block_container_header(s), io::StreamError);
  }
  {  // tile grid whose block product would overflow u64
    io::BlockContainerHeader h;
    h.codec = 0;
    h.scalar = 0;
    h.extents = {std::uint64_t{1} << 40, std::uint64_t{1} << 40, 2};
    h.tile = {1, 1, 2};
    h.block_count = 1;  // irrelevant: the grid product wraps first
    h.eb_abs = 1e-3;
    h.value_range = 1.0;
    io::ByteWriter w;
    io::write_block_header(h, w);
    const auto s = w.take();
    EXPECT_THROW(io::block_container_header(s), io::StreamError);
  }
  {  // full-rank geometry disagreeing with the dims
    io::BlockContainerHeader h;
    h.codec = 0;
    h.scalar = 0;
    h.extents = {8, 6};
    h.tile = {4, 3};    // grid 2x2 = 4 blocks
    h.block_count = 6;  // claims 6
    h.eb_abs = 1e-3;
    h.value_range = 1.0;
    io::ByteWriter w;
    io::write_block_header(h, w);
    const auto s = w.take();
    EXPECT_THROW(io::block_container_header(s), io::StreamError);
  }
  {  // tile rank disagreeing with the field rank is a writer-side error
    auto h = tiny_header(4, 2);
    h.tile = {2, 2};
    io::ByteWriter w;
    EXPECT_THROW(io::write_block_header(h, w), std::invalid_argument);
  }
}

// --- index pathologies ------------------------------------------------------

TEST(Corruption, IndexOffsetPastEofRejected) {
  const auto h = tiny_header(4, 2);  // 2 blocks
  // Offsets/sizes reach far beyond the 8 payload bytes actually present.
  const std::uint64_t offsets[] = {0, 1 << 20};
  const std::uint64_t sizes[] = {1 << 20, 16};
  const auto s = craft(h, offsets, sizes, 8);
  expect_all_readers_reject(s);
}

TEST(Corruption, OverlappingBlockExtentsRejected) {
  const auto h = tiny_header(4, 2);  // 2 blocks
  // Both entries claim bytes [0, 6): overlapping extents can never appear
  // in a writer-produced index (offsets are the running sum of sizes), so
  // the reader treats them as corruption.
  const std::uint64_t offsets[] = {0, 0};
  const std::uint64_t sizes[] = {6, 6};
  const auto s = craft(h, offsets, sizes, 6);
  EXPECT_THROW(io::open_block_container(s), io::StreamError);
  EXPECT_THROW(core::decompress_blocked<float>(s), io::StreamError);
  // Entry-level access stays within the payload for each entry on its own,
  // so it is memory-safe by construction; the container-level open is what
  // rejects the overlap.
  EXPECT_NO_THROW((void)io::block_container_entry(s, 0));
}

TEST(Corruption, IndexGapRejected) {
  const auto h = tiny_header(4, 2);
  // Payload byte 4 belongs to no block — the index must be contiguous.
  const std::uint64_t offsets[] = {0, 5};
  const std::uint64_t sizes[] = {4, 3};
  const auto s = craft(h, offsets, sizes, 8);
  EXPECT_THROW(io::open_block_container(s), io::StreamError);
}

TEST(Corruption, OffsetSizeOverflowRejected) {
  const auto h = tiny_header(4, 2);
  // offset + size wraps past 2^64; the bounds check must not be fooled.
  const std::uint64_t offsets[] = {0, ~std::uint64_t{0} - 2};
  const std::uint64_t sizes[] = {4, 8};
  const auto s = craft(h, offsets, sizes, 4);
  EXPECT_THROW(io::open_block_container(s), io::StreamError);
  EXPECT_THROW(io::block_container_entry(s, 1), io::StreamError);
}

TEST(Corruption, InvalidSseColumnRejected) {
  // The v2 per-block SSE column must be finite and non-negative; a NaN or
  // negative entry is corruption, not data.
  const auto whole = valid_container();
  const auto view = io::open_block_container(whole);
  ASSERT_TRUE(view.header.has_block_sse());
  std::size_t payload = 0;
  for (const auto& b : view.blocks) payload += b.size();
  // The SSE column is the last block_count doubles before the payload.
  const std::size_t sse_start = whole.size() - payload -
                                view.header.block_count * sizeof(double);
  auto bad = whole;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::memcpy(bad.data() + sse_start, &nan, sizeof(nan));
  EXPECT_THROW(io::open_block_container(bad), io::StreamError);
  EXPECT_THROW(core::decompress_blocked<float>(bad), io::StreamError);

  bad = whole;
  const double negative = -1.0;
  std::memcpy(bad.data() + sse_start, &negative, sizeof(negative));
  EXPECT_THROW(io::open_block_container(bad), io::StreamError);
}

// --- hostile codec-block headers ---------------------------------------------

TEST(Corruption, InterpBlockWithHugeDeclaredSizesRejectedBeforeAllocating) {
  // An FPIN block whose header declares ~2^60 values over a tiny payload
  // must throw a clean StreamError, never attempt the allocation.
  io::ByteWriter w;
  const std::uint8_t magic[4] = {'F', 'P', 'I', 'N'};
  w.put_bytes(std::span<const std::uint8_t>(magic, 4));
  w.put<std::uint8_t>(1);                  // version
  w.put<std::uint8_t>(0);                  // scalar = float32
  w.put<std::uint8_t>(3);                  // rank
  for (int d = 0; d < 3; ++d) w.put_varint(std::uint64_t{1} << 20);
  w.put<double>(1e-3);                     // eb_abs
  w.put_varint(65536);                     // quant bins
  {
    // Inner stream (Store backend): outlier count claims 2^59 entries.
    io::ByteWriter inner;
    inner.put_varint(std::uint64_t{1} << 59);
    io::ByteWriter blob;
    blob.put<std::uint8_t>(0);  // lossless::Method::Store tag
    blob.put_bytes(inner.buffer());
    w.put_blob(blob.buffer());
  }
  const auto s = w.take();
  EXPECT_THROW((void)fpsnr::sz::interp_decompress<float>(s), io::StreamError);
}

TEST(Corruption, FixedRateBlockWithHugeDeclaredSizesRejectedBeforeAllocating) {
  // Same for FPZR: the declared value count must be bounded by the
  // payload (one width byte per group) before coeffs are allocated.
  io::ByteWriter w;
  const std::uint8_t magic[4] = {'F', 'P', 'Z', 'R'};
  w.put_bytes(std::span<const std::uint8_t>(magic, 4));
  w.put<std::uint8_t>(1);                  // version
  w.put<std::uint8_t>(0);                  // scalar = float32
  w.put<std::uint8_t>(3);                  // rank
  for (int d = 0; d < 3; ++d) w.put_varint(std::uint64_t{1} << 20);
  w.put<double>(1e-3);                     // eb_abs
  w.put_varint(8);                         // dct block
  w.put_varint(64);                        // group size
  const std::uint8_t tiny_payload[2] = {0, 0};
  w.put_blob(std::span<const std::uint8_t>(tiny_payload, 2));
  const auto s = w.take();
  EXPECT_THROW((void)fpsnr::transform::fixed_rate_decompress<float>(s),
               io::StreamError);
}

namespace {

/// An FPTC (transform codec) header whose dims claim 2^60 float values.
io::ByteWriter fptc_header_claiming_2_60_values() {
  io::ByteWriter w;
  const std::uint8_t magic[4] = {'F', 'P', 'T', 'C'};
  w.put_bytes(std::span<const std::uint8_t>(magic, 4));
  w.put<std::uint8_t>(1);                  // version
  w.put<std::uint8_t>(0);                  // scalar = float32
  w.put<std::uint8_t>(0);                  // kind = Haar
  w.put<std::uint8_t>(3);                  // rank
  for (int d = 0; d < 3; ++d) w.put_varint(std::uint64_t{1} << 20);
  w.put<double>(1e-3);                     // bin width
  w.put<double>(1.0);                      // value range
  w.put_varint(65536);                     // quant bins
  w.put_varint(1);                         // haar levels
  w.put_varint(8);                         // dct block
  return w;
}

}  // namespace

TEST(Corruption, TransformBlockWithHugeDeclaredSizesRejectedBeforeAllocating) {
  // An FPTC block declaring 2^60 values whose outlier list claims 2^59
  // doubles over an empty inner stream.
  io::ByteWriter w = fptc_header_claiming_2_60_values();
  {
    io::ByteWriter blob;
    blob.put<std::uint8_t>(0);  // lossless::Method::Store tag
    blob.put_varint(std::uint64_t{1} << 59);
    w.put_blob(blob.buffer());
  }
  const auto s = w.take();
  EXPECT_THROW((void)fpsnr::transform::decompress<float>(s), io::StreamError);
}

TEST(Corruption, TransformBlockWithHugeValueCountAndEmptyPayloadRejected) {
  // An FPTC block declaring 2^60 values with no outliers, a one-symbol
  // code table and an empty bit payload: the value count is checked
  // against the bits present before the code array is sized.
  io::ByteWriter w = fptc_header_claiming_2_60_values();
  {
    io::ByteWriter blob;
    blob.put<std::uint8_t>(0);   // lossless::Method::Store tag
    blob.put_varint(0);          // no outliers
    blob.put_varint(2);          // code table: alphabet 2,
    blob.put_varint(1);          //   symbol 0 has a 1-bit code,
    blob.put<std::uint8_t>(1);
    blob.put_varint(1);          //   symbol 1 has none
    blob.put<std::uint8_t>(0);
    blob.put<std::uint64_t>(0);  // empty bit payload
    w.put_blob(blob.buffer());
  }
  const auto s = w.take();
  EXPECT_THROW((void)fpsnr::transform::decompress<float>(s), io::StreamError);
}

TEST(Corruption, HybridPlanWithHugeBlockCountRejectedBeforeAllocating) {
  // An sz hybrid-regression plan that claims 2^64-1 blocks: the bitmap
  // size must not wrap, and nothing may be sized before it is read.
  namespace sz = fpsnr::sz;
  sz::StreamHeader h;
  h.predictor = sz::Predictor::HybridRegression;
  h.dims = data::Dims{4, 4};
  h.eb_abs = 1e-3;
  h.user_bound = 1e-3;
  h.value_range = 1.0;
  h.quant_bins = 65536;
  io::ByteWriter w;
  sz::write_header(h, w);
  {
    io::ByteWriter plan;
    plan.put<std::uint8_t>(0);  // lossless::Method::Store tag
    plan.put<double>(1.0);      // coefficient step
    plan.put_varint(~std::uint64_t{0});
    w.put_blob(plan.buffer());
  }
  const auto s = w.take();
  EXPECT_THROW((void)sz::decompress<float>(s), io::StreamError);
}

TEST(Corruption, ArchiveWithHugeEntryCountRejectedBeforeAllocating) {
  // An FPAR archive that claims 2^40 entries and carries none.
  io::ByteWriter w;
  const std::uint8_t magic[4] = {'F', 'P', 'A', 'R'};
  w.put_bytes(std::span<const std::uint8_t>(magic, 4));
  w.put<std::uint8_t>(1);  // version
  w.put_varint(std::uint64_t{1} << 40);
  const auto s = w.take();
  EXPECT_THROW((void)io::read_archive(s), io::StreamError);
  EXPECT_THROW((void)io::list_archive(s), io::StreamError);
}

// --- sz reconstruction -------------------------------------------------------

namespace {

/// A hand-built sz Lorenzo stream: `codes` (Huffman-coded over an alphabet
/// wide enough for any of them) and `outliers` under a header that declares
/// `dims` and `bins`.
std::vector<std::uint8_t> crafted_sz_stream(
    const data::Dims& dims, std::uint32_t bins,
    const std::vector<std::uint32_t>& codes,
    const std::vector<float>& outliers) {
  namespace sz = fpsnr::sz;
  sz::StreamHeader h;
  h.dims = dims;
  h.eb_abs = 1e-2;
  h.user_bound = 1e-2;
  h.value_range = 1.0;
  h.quant_bins = bins;
  io::ByteWriter w;
  sz::write_header(h, w);
  io::ByteWriter inner;
  inner.put_varint(outliers.size());
  inner.put_bytes(io::bytes_of(std::span<const float>(outliers)));
  fpsnr::huffman::encode_stream(codes, 2 * bins, inner);
  w.put_blob(fpsnr::lossless::backend_compress(inner.buffer(),
                                               fpsnr::lossless::Method::Store));
  return w.take();
}

/// Pins a SIMD backend for one scope, so a failed assertion cannot leave it
/// pinned for the next test.
struct BackendPin {
  explicit BackendPin(fpsnr::simd::Backend b) {
    EXPECT_TRUE(fpsnr::simd::force_backend(b));
  }
  ~BackendPin() { fpsnr::simd::reset_backend(); }
};

}  // namespace

TEST(Corruption, MalformedSzCodesAndOutliersAreStreamErrorsOnEveryBackend) {
  // Rank-2 and rank-3 fields big enough for the vector wavefront. Three
  // code-0 points (one in column 0, one mid-row, one in the last column);
  // every other code in range. Each corruption must surface as the same
  // typed error through the block codec (decoding into a tile) and the
  // flat sz::decompress, whichever backend reconstructs.
  constexpr std::uint32_t kBins = 16;
  const core::BlockCodec& codec =
      core::CodecRegistry::instance().at(core::kCodecSzLorenzo);
  for (const data::Dims& dims : {data::Dims{8, 12}, data::Dims{3, 8, 12}}) {
    SCOPED_TRACE("rank " + std::to_string(dims.rank()));
    const std::size_t n = dims.count();
    std::vector<std::uint32_t> codes(n);
    for (std::size_t i = 0; i < n; ++i)
      codes[i] = kBins / 2 - 2 + static_cast<std::uint32_t>(i % 5);
    codes[12] = codes[n / 2 + 3] = codes[n - 1] = 0;
    const std::vector<float> outliers = {1.5f, -2.0f, 0.25f};

    struct Case {
      const char* what;
      std::vector<std::uint32_t> codes;
      std::vector<float> outliers;
      const char* error;
    };
    auto bad_code = codes;
    bad_code[n / 2] = kBins;
    auto four = outliers;
    four.push_back(7.0f);
    const std::vector<Case> cases = {
        {"code >= bins", bad_code, outliers,
         "fpsz: quantization code out of range"},
        {"one outlier short", codes, {1.5f, -2.0f},
         "fpsz: outlier list exhausted"},
        {"one outlier extra", codes, four,
         "fpsz: trailing outliers in stream"},
    };
    const auto valid = crafted_sz_stream(dims, kBins, codes, outliers);
    for (const fpsnr::simd::Backend b : fpsnr::simd::supported_backends()) {
      SCOPED_TRACE(fpsnr::simd::backend_name(b));
      const BackendPin pin(b);
      std::vector<float> tile(n);
      EXPECT_NO_THROW(codec.decompress(valid, std::span<float>(tile)));
      for (const Case& c : cases) {
        SCOPED_TRACE(c.what);
        const auto stream = crafted_sz_stream(dims, kBins, c.codes,
                                              c.outliers);
        auto expect_error = [&](auto&& decode) {
          try {
            decode();
            ADD_FAILURE() << "decoded";
          } catch (const io::StreamError& e) {
            EXPECT_STREQ(e.what(), c.error);
          }
        };
        expect_error([&] { codec.decompress(stream, std::span<float>(tile)); });
        expect_error([&] { (void)fpsnr::sz::decompress<float>(stream); });
      }
      // A header whose dims hold a different number of values than the
      // tile is refused before anything is decoded.
      for (const std::size_t size : {n - 1, n + 1, n * 2}) {
        std::vector<float> wrong(size);
        try {
          codec.decompress(valid, std::span<float>(wrong));
          ADD_FAILURE() << "decoded into a tile of " << size;
        } catch (const io::StreamError& e) {
          EXPECT_STREQ(e.what(),
                       "fpsz: header dims do not match the output size");
        }
      }
    }
  }
}

// --- payload corruption -----------------------------------------------------

TEST(Corruption, FlippedPayloadFailsCleanlyOrDecodes) {
  // Bytes inside a compressed block are opaque to the container layer; a
  // flip must either decode (the codec tolerated it) or throw StreamError —
  // never crash. Flip a byte in the middle of the payload region.
  const auto whole = valid_container();
  auto bad = whole;
  bad[bad.size() - bad.size() / 4] ^= 0xFF;
  try {
    const auto out = core::decompress_blocked<float>(bad);
    EXPECT_FALSE(out.values.empty());
  } catch (const io::StreamError&) {
  } catch (const std::out_of_range&) {
  }
}

// --- v4 temporal chain header ------------------------------------------------

namespace {

/// A valid two-frame v4 chain (keyframe then one delta frame) to mutate.
struct SeriesFrames {
  std::vector<std::uint8_t> keyframe;
  std::vector<std::uint8_t> delta;
};

SeriesFrames valid_series_frames() {
  const data::Dims dims{32, 12};
  auto t0 = data::smoothed_noise(dims, 29, 2, 2);
  data::rescale(t0, -1.0f, 5.0f);
  auto t1 = t0;
  for (std::size_t i = 0; i < t1.size(); ++i)
    t1[i] += 0.05f * static_cast<float>(i % 7);  // gentle evolution

  fpsnr::TimeSeriesOptions topts;
  topts.session.tile = fpsnr::TileShape{8};
  topts.series = "corruption-suite";
  topts.keyframe_interval = 0;  // only t=0 is a keyframe
  fpsnr::TimeSeriesSession session(fpsnr::FixedPsnr{60.0}, std::move(topts));

  fpsnr::Field snap;
  snap.dims = {dims[0], dims[1]};
  snap.f32 = t0;
  session.push(snap);
  snap.f32 = t1;
  session.push(snap);

  SeriesFrames frames;
  frames.keyframe = session.archive(0);
  frames.delta = session.archive(1);
  return frames;
}

/// Byte offsets of the v4 chain-header fields inside a frame. Located by
/// re-serializing the parsed header: write_block_header round-trips the
/// exact byte layout, so the header length (and with it the fixed-width
/// temporal tail) is recoverable without hardcoding varint widths.
struct V4Offsets {
  std::size_t flags, series_id, timestep, ref_hash, bitmap;
};

V4Offsets v4_offsets(std::span<const std::uint8_t> frame) {
  const io::BlockContainerHeader h = io::block_container_header(frame);
  EXPECT_TRUE(h.has_temporal_chain());
  io::ByteWriter w;
  io::write_block_header(h, w);
  const std::size_t header_len = w.take().size();
  V4Offsets o;
  o.bitmap = header_len - h.block_modes.size();
  o.ref_hash = o.bitmap - sizeof(std::uint64_t);
  o.timestep = o.ref_hash - sizeof(std::uint64_t);
  o.series_id = o.timestep - sizeof(std::uint64_t);
  o.flags = o.series_id - 1;
  return o;
}

}  // namespace

TEST(Corruption, TemporalFlagTamperingRejectedByEveryReader) {
  const auto frames = valid_series_frames();
  const auto ko = v4_offsets(frames.keyframe);
  const auto dofs = v4_offsets(frames.delta);

  {  // stray bits beyond the two defined flags
    auto t = frames.delta;
    t[dofs.flags] |= 0x04;
    expect_all_readers_reject(t);
  }
  {  // a v4 frame must always carry the series flag
    auto t = frames.delta;
    t[dofs.flags] = io::kTemporalFlagDelta;
    expect_all_readers_reject(t);
  }
  {  // clearing the delta bit leaves a "keyframe" that still carries a
     // reference hash — the inconsistency is caught at header parse
    auto t = frames.delta;
    t[dofs.flags] = io::kTemporalFlagSeries;
    expect_all_readers_reject(t);
  }
  {  // ...and setting it on the real keyframe leaves a delta frame with no
     // reference hash
    auto t = frames.keyframe;
    t[ko.flags] = io::kTemporalFlagSeries | io::kTemporalFlagDelta;
    expect_all_readers_reject(t);
  }
}

TEST(Corruption, TemporalModeBitmapTamperingRejected) {
  const auto frames = valid_series_frames();
  // dims {32,12} with tile {8} gives 4 blocks, so the single bitmap byte
  // has 4 meaningless trailing bits; they must be zero.
  {
    auto t = frames.delta;
    t[v4_offsets(t).bitmap] |= 0x80;
    expect_all_readers_reject(t);
  }
  {  // a keyframe must not mark any block temporal
    auto t = frames.keyframe;
    t[v4_offsets(t).bitmap] |= 0x01;
    expect_all_readers_reject(t);
  }
}

TEST(Corruption, TamperedChainFieldsRejectedByTheDecoder) {
  // These mutations leave the container self-consistent — only the chain
  // decoder, which holds the previous reconstruction, can detect them.
  const auto frames = valid_series_frames();

  {  // wrong reference hash: the frame claims a reference this decoder
     // does not hold
    auto t = frames.delta;
    t[v4_offsets(t).ref_hash] ^= 0xff;
    fpsnr::TimeSeriesDecoder dec;
    dec.feed(frames.keyframe);
    EXPECT_THROW((void)dec.feed(t), io::StreamError);
    // The failed feed left the decoder untouched: the genuine frame still
    // continues the chain.
    EXPECT_NO_THROW((void)dec.feed(frames.delta));
  }
  {  // timestep gap (frame claims t=7 after t=0)
    auto t = frames.delta;
    t[v4_offsets(t).timestep] = 7;
    fpsnr::TimeSeriesDecoder dec;
    dec.feed(frames.keyframe);
    EXPECT_THROW((void)dec.feed(t), io::StreamError);
  }
  {  // foreign series id
    auto t = frames.delta;
    t[v4_offsets(t).series_id] ^= 0xff;
    fpsnr::TimeSeriesDecoder dec;
    dec.feed(frames.keyframe);
    EXPECT_THROW((void)dec.feed(t), io::StreamError);
  }
}

TEST(Corruption, EveryTemporalFrameTruncationFailsCleanly) {
  // The v3 sweep above covers the common header; this one proves a cut
  // anywhere in the v4 chain metadata (flags byte, series id, timestep,
  // reference hash, mode bitmap) also dies cleanly.
  const auto frames = valid_series_frames();
  ASSERT_GT(frames.delta.size(), 100u);
  const std::span<const std::uint8_t> all(frames.delta);
  for (std::size_t len = 0; len < frames.delta.size(); ++len) {
    EXPECT_THROW(io::open_block_container(all.first(len)), io::StreamError)
        << "prefix length " << len;
  }
}

// --- unknown codec id -------------------------------------------------------

TEST(Corruption, UnknownCodecIdIsAStreamErrorOnEveryDecodePath) {
  // Header byte 5 names the block codec. An id no codec is registered
  // under is a malformed stream: every decode path, and inspect, must fail
  // with a StreamError that names the id, not the registry's untyped
  // lookup error.
  constexpr std::uint8_t kUnused = 200;
  ASSERT_EQ(core::CodecRegistry::instance().find(kUnused), nullptr);
  const auto path = fs::temp_directory_path() / "fpsnr-test-unknown-codec.fpbk";
  auto expect_unknown_codec = [](auto&& decode) {
    try {
      decode();
      ADD_FAILURE() << "decoded a stream naming an unregistered codec";
    } catch (const io::StreamError& e) {
      EXPECT_NE(std::string(e.what()).find("unknown codec id 200"),
                std::string::npos)
          << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << "untyped error: " << e.what();
    }
  };
  for (const char* name : {"golden_v3.fpbk", "golden_v4_key.fpbk"}) {
    SCOPED_TRACE(name);
    std::ifstream in(std::string(FPSNR_TEST_DATA_DIR) + "/" + name,
                     std::ios::binary);
    ASSERT_TRUE(in.good()) << "missing fixture";
    std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>()};
    ASSERT_EQ(io::block_container_header(bytes).codec, bytes.at(5));
    bytes[5] = kUnused;
    std::ofstream(path, std::ios::binary)
        .write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));

    expect_unknown_codec([&] {
      (void)fpsnr::Session().decompress(fpsnr::Source::memory(
          std::span<const std::uint8_t>(bytes)));
    });
    // Inspect parses no payload, but naming a codec it cannot resolve is
    // the same malformed header.
    expect_unknown_codec([&] {
      (void)fpsnr::Session().inspect(fpsnr::Source::memory(
          std::span<const std::uint8_t>(bytes)));
    });
    expect_unknown_codec(
        [&] { (void)core::decompress_block<float>(bytes, 0); });
    expect_unknown_codec(
        [&] { (void)core::decompress_file<float>(path.string()); });
    // golden_v3 is no series frame, so the decoder refuses it before any
    // codec lookup; either way the failure is a StreamError.
    fpsnr::TimeSeriesDecoder decoder;
    EXPECT_THROW((void)decoder.feed(bytes), io::StreamError);
  }
  fs::remove(path);
}

// --- unknown scalar type ----------------------------------------------------

TEST(Corruption, UnknownScalarTypeIsAStreamErrorOnInspectAndDecompress) {
  // Header byte 6 is the scalar type (0 float, 1 double), and the FPBK
  // reader rejects any other value as the flat FPSZ/FPTC readers do: both
  // inspect and decompress fail with that typed error, not with a scalar
  // mismatch further on.
  auto bytes = valid_container();
  ASSERT_EQ(io::block_container_header(bytes).scalar, bytes.at(6));
  bytes[6] = 7;
  const auto source =
      fpsnr::Source::memory(std::span<const std::uint8_t>(bytes));
  auto expect_unknown_scalar = [](auto&& decode) {
    try {
      decode();
      ADD_FAILURE() << "accepted scalar type 7";
    } catch (const io::StreamError& e) {
      EXPECT_STREQ(e.what(), "block container: unknown scalar type");
    } catch (const std::exception& e) {
      ADD_FAILURE() << "untyped error: " << e.what();
    }
  };
  expect_unknown_scalar([&] { (void)fpsnr::Session().inspect(source); });
  expect_unknown_scalar([&] { (void)fpsnr::Session().decompress(source); });
  expect_all_readers_reject(bytes);
}
