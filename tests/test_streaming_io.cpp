// Tests for FPBK file I/O: the writer (io::BlockContainerWriter, both
// outputs) and its pipeline entry points — byte-identity of the file and
// memory outputs at every thread count, reorder-buffer spilling — plus the
// read-only file mapping (io/streaming_archive.h) and the I/O-locality
// guarantee of single-block random access.
#include "io/streaming_archive.h"

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>

#if defined(__linux__)
#include <sys/resource.h>
#endif

#include "core/pipeline.h"
#include "data/synth.h"
#include "io/archive.h"
#include "io/bitstream.h"

namespace core = fpsnr::core;
namespace data = fpsnr::data;
namespace io = fpsnr::io;

namespace {

namespace fs = std::filesystem;

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

/// Unique temp path, removed when the fixture object dies.
struct TempFile {
  fs::path path;
  explicit TempFile(const std::string& stem)
      : path(fs::temp_directory_path() / ("fpsnr-test-" + stem + ".fpbk")) {}
  ~TempFile() {
    std::error_code ec;
    fs::remove(path, ec);
  }
  std::string str() const { return path.string(); }
};

std::vector<std::uint8_t> slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  EXPECT_TRUE(in.good()) << p;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

}  // namespace

// --- byte-identity with the in-memory path ----------------------------------

TEST(StreamingIo, FileMatchesInMemoryBytesAtEveryThreadCount) {
  const data::Dims dims{61, 40};  // not divisible by the block size
  const auto values = sample_field(dims, 3);
  const auto request = core::ControlRequest::fixed_psnr(70.0);

  const auto mem =
      core::compress_blocked<float>(values, dims, request, pipeline_options(1, 8));
  for (std::size_t threads : {1u, 2u, 8u}) {
    TempFile tmp("stream-identity-" + std::to_string(threads));
    io::StreamingStats stats;
    const auto result = core::compress_to_file<float>(
        values, dims, request, pipeline_options(threads, 8), tmp.str(), &stats);
    EXPECT_TRUE(result.stream.empty());
    EXPECT_EQ(result.info.compressed_bytes, mem.stream.size());
    EXPECT_EQ(stats.total_bytes, mem.stream.size());
    ASSERT_EQ(slurp(tmp.path), mem.stream) << "threads=" << threads;
    // The reorder buffer must never hold anything close to the container:
    // streaming is pointless if everything is buffered before the spill.
    EXPECT_LT(stats.peak_buffered_bytes, mem.stream.size());
  }
}

TEST(StreamingIo, AccountingMatchesInMemoryPath) {
  const data::Dims dims{48, 32};
  const auto values = sample_field(dims, 5);
  const auto request = core::ControlRequest::relative(1e-4);

  const auto mem =
      core::compress_blocked<float>(values, dims, request, pipeline_options(2, 6));
  TempFile tmp("stream-accounting");
  const auto str = core::compress_to_file<float>(values, dims, request,
                                                 pipeline_options(2, 6),
                                                 tmp.str());
  EXPECT_DOUBLE_EQ(str.predicted_psnr_db, mem.predicted_psnr_db);
  EXPECT_DOUBLE_EQ(str.rel_bound_used, mem.rel_bound_used);
  EXPECT_DOUBLE_EQ(str.info.eb_abs_used, mem.info.eb_abs_used);
  EXPECT_EQ(str.info.value_count, mem.info.value_count);
  EXPECT_EQ(str.info.compressed_bytes, mem.info.compressed_bytes);
  EXPECT_DOUBLE_EQ(str.info.compression_ratio, mem.info.compression_ratio);
}

// --- writer semantics -------------------------------------------------------

namespace {

/// The three blocks of the out-of-order writer test, and the container they
/// make: the header, a literal index, then the payload in index order.
io::BlockContainerHeader three_block_header() {
  io::BlockContainerHeader h;
  h.codec = 0;
  h.scalar = 0;
  h.extents = {9};
  h.tile = {3};
  h.block_count = 3;
  return h;
}

std::vector<std::uint8_t> three_block_container() {
  io::ByteWriter out;
  io::write_block_header(three_block_header(), out);
  for (std::uint64_t offset : {0, 2, 6}) out.put<std::uint64_t>(offset);
  for (std::uint64_t size : {2, 4, 3}) out.put<std::uint64_t>(size);
  for (double sse : {0.5, 0.0, 2.25}) out.put<double>(sse);
  out.put_bytes(std::vector<std::uint8_t>{1, 2, 3, 4, 5, 6, 7, 8, 9});
  return out.take();
}

/// Blocks 2 and 1 arrive before block 0; block 0 completes the prefix and
/// everything spills.
std::vector<std::uint8_t> write_out_of_order(io::BlockContainerWriter& w) {
  w.add_block(2, {7, 8, 9}, 2.25);
  w.add_block(1, {3, 4, 5, 6}, 0.0);
  w.add_block(0, {1, 2}, 0.5);
  return w.finish();
}

}  // namespace

TEST(StreamingIo, WriterSpillsOutOfOrderBlocksInIndexOrder) {
  const auto expect = three_block_container();

  io::BlockContainerWriter mem(three_block_header());
  EXPECT_EQ(write_out_of_order(mem), expect);

  TempFile tmp("stream-reorder");
  io::BlockContainerWriter file(tmp.str(), three_block_header());
  EXPECT_TRUE(write_out_of_order(file).empty());
  EXPECT_EQ(slurp(tmp.path), expect);
  EXPECT_FALSE(fs::exists(tmp.str() + ".partial"));

  // Blocks 1 and 2 (7 bytes) had to wait for block 0; block 0 never did.
  for (const io::BlockContainerWriter* w : {&mem, &file}) {
    EXPECT_EQ(w->stats().total_bytes, expect.size());
    EXPECT_EQ(w->stats().block_count, 3u);
    EXPECT_EQ(w->stats().tile, (std::vector<std::uint64_t>{3}));
    EXPECT_EQ(w->stats().peak_buffered_blocks, 2u);
    EXPECT_EQ(w->stats().peak_buffered_bytes, 7u);
  }
}

TEST(StreamingIo, WriterRejectsMisuse) {
  io::BlockContainerHeader h;
  h.extents = {4};
  h.tile = {2};
  h.block_count = 2;

  TempFile tmp("stream-misuse");
  io::BlockContainerWriter mem(h);
  io::BlockContainerWriter file(tmp.str(), h);
  for (io::BlockContainerWriter* w : {&mem, &file}) {
    w->add_block(0, {1}, 0.0);
    EXPECT_THROW(w->add_block(0, {2}, 0.0), std::logic_error);   // duplicate
    EXPECT_THROW(w->add_block(5, {2}, 0.0), std::out_of_range);  // bad index
    EXPECT_THROW(w->add_block(1, {2}, -1.0), std::invalid_argument);  // SSE
    EXPECT_THROW(w->finish(), std::logic_error);          // block 1 missing
    w->add_block(1, {2}, 0.0);
    w->finish();
    EXPECT_THROW(w->finish(), std::logic_error);          // finish twice
    EXPECT_THROW(w->add_block(0, {9}, 0.0), std::logic_error);  // after finish
  }
  h.block_count = 0;
  EXPECT_THROW(io::BlockContainerWriter{h}, std::invalid_argument);
}

TEST(StreamingIo, AbortedWriteLeavesPreExistingArchiveUntouched) {
  // All-or-nothing: the file writer works in path + ".partial" and renames
  // only on finish(), so a failure partway neither destroys what was at
  // `path` nor leaves a truncated container behind.
  io::BlockContainerHeader h;
  h.extents = {4};
  h.tile = {2};
  h.block_count = 2;

  TempFile tmp("stream-abort");
  const std::vector<std::uint8_t> precious{0xCA, 0xFE};
  std::ofstream(tmp.path, std::ios::binary)
      .write(reinterpret_cast<const char*>(precious.data()), 2);
  {
    io::BlockContainerWriter writer(tmp.str(), h);
    writer.add_block(0, {1, 2, 3}, 0.0);
    // Destroyed unfinished, as if a codec threw mid-compress.
  }
  EXPECT_EQ(slurp(tmp.path), precious);
  EXPECT_FALSE(fs::exists(tmp.path.string() + ".partial"));

  // And a finished writer does replace the old bytes.
  {
    io::BlockContainerWriter writer(tmp.str(), h);
    writer.add_block(0, {1, 2, 3}, 0.0);
    writer.add_block(1, {4}, 0.0);
    writer.finish();
  }
  EXPECT_NE(slurp(tmp.path), precious);
  EXPECT_FALSE(fs::exists(tmp.path.string() + ".partial"));
  EXPECT_NO_THROW((void)io::open_block_container(slurp(tmp.path)));
}

#if defined(__linux__)
TEST(StreamingIo, WriteFailureLeavesPreExistingArchiveUntouched) {
  // A write the filesystem refuses must surface as a StreamError and
  // leave no partial file. RLIMIT_FSIZE makes writes past 4 KB fail with
  // EFBIG, as a full disk fails them with ENOSPC.
  io::BlockContainerHeader h;
  h.extents = {4};
  h.tile = {2};
  h.block_count = 2;
  TempFile tmp("stream-efbig");
  std::ofstream(tmp.path, std::ios::binary) << "old";

  rlimit old_limit{};
  ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &old_limit), 0);
  rlimit small = old_limit;
  small.rlim_cur = 4096;
  const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &small), 0);
  bool threw = false;
  try {
    io::BlockContainerWriter writer(tmp.str(), h);
    writer.add_block(0, std::vector<std::uint8_t>(1 << 16, 7), 0.0);
    writer.add_block(1, {1}, 0.0);
    writer.finish();
  } catch (const io::StreamError&) {
    threw = true;
  }
  setrlimit(RLIMIT_FSIZE, &old_limit);
  std::signal(SIGXFSZ, old_handler);

  EXPECT_TRUE(threw);
  EXPECT_EQ(slurp(tmp.path), (std::vector<std::uint8_t>{'o', 'l', 'd'}));
  EXPECT_FALSE(fs::exists(tmp.str() + ".partial"));
}
#endif

TEST(StreamingIo, WriterRejectsUnwritablePath) {
  io::BlockContainerHeader h;
  h.extents = {2};
  h.tile = {2};
  h.block_count = 1;
  EXPECT_THROW(
      io::BlockContainerWriter("/nonexistent-dir/no/such/file.fpbk", h),
      io::StreamError);
  EXPECT_THROW(io::BlockContainerWriter(std::string(), h), io::StreamError);
  // finish() renames onto the path, so a directory (or a device, or a
  // FIFO) there is refused up front rather than replaced.
  EXPECT_THROW(
      io::BlockContainerWriter(fs::temp_directory_path().string(), h),
      io::StreamError);
}

TEST(StreamingIo, WriterFollowsSymlinkToTheArchive) {
  // The rename lands on the file a symlink names; the link stays a link.
  io::BlockContainerHeader h;
  h.extents = {2};
  h.tile = {2};
  h.block_count = 1;
  TempFile target("symlink-target");
  TempFile link("symlink-link");
  std::ofstream(target.path, std::ios::binary) << "old";
  fs::create_symlink(target.path, link.path);
  {
    io::BlockContainerWriter writer(link.str(), h);
    writer.add_block(0, {1, 2}, 0.0);
    writer.finish();
  }
  EXPECT_TRUE(fs::is_symlink(link.path));
  EXPECT_NO_THROW((void)io::open_block_container(slurp(target.path)));
  EXPECT_FALSE(fs::exists(target.str() + ".partial"));
}

// --- mmap reader ------------------------------------------------------------

TEST(StreamingIo, MmapReaderDecodesFullArchiveAndSingleBlocks) {
  const data::Dims dims{50, 30};
  const auto values = sample_field(dims, 13);
  const auto request = core::ControlRequest::fixed_psnr(65.0);

  TempFile tmp("mmap-decode");
  core::compress_to_file<float>(values, dims, request, pipeline_options(2, 8),
                                tmp.str());

  const io::MappedFile file(tmp.str());
  const auto header = io::block_container_header(file.bytes());
  ASSERT_EQ(header.tile, (std::vector<std::uint64_t>{8, 30}));
  EXPECT_EQ(header.block_count, (50 + 7) / 8u);

  const auto full = core::decompress_file<float>(tmp.str(), 2);
  EXPECT_EQ(full.dims, dims);
  const auto mem = core::compress_blocked<float>(values, dims, request,
                                                 pipeline_options(1, 8));
  const auto ref = core::decompress_blocked<float>(mem.stream);
  EXPECT_EQ(full.values, ref.values);

  const std::size_t row_stride = dims.count() / dims[0];
  for (std::size_t b = 0; b < header.block_count; ++b) {
    const auto block = core::decompress_block<float>(file.bytes(), b);
    const std::size_t first = b * header.tile[0];
    ASSERT_EQ(block.dims[0], std::min<std::size_t>(8, dims[0] - first));
    for (std::size_t i = 0; i < block.values.size(); ++i)
      ASSERT_EQ(block.values[i], ref.values[first * row_stride + i])
          << "block " << b << " value " << i;
  }
  EXPECT_THROW(core::decompress_block<float>(file.bytes(),
                                             header.block_count),
               std::out_of_range);
}

TEST(StreamingIo, SingleBlockDecodeNeedsOnlyThatBlocksExtent) {
  // The I/O-locality guarantee: decoding block b must touch nothing past
  // b's extent. Proof by truncation — cut the file right after block 1's
  // payload; blocks 0 and 1 still decode bit-exactly, later blocks fail
  // cleanly. (If the decoder read any byte beyond the block's extent, the
  // truncated archive could not reproduce the block.)
  const data::Dims dims{40, 25};
  const auto values = sample_field(dims, 17);
  const auto request = core::ControlRequest::fixed_psnr(60.0);

  TempFile tmp("mmap-truncate");
  core::compress_to_file<float>(values, dims, request, pipeline_options(2, 8),
                                tmp.str());
  const auto whole = slurp(tmp.path);
  ASSERT_GE(io::block_container_header(whole).block_count, 4u);

  // End of block 1's payload, relative to the file start.
  const auto block1 = io::block_container_entry(whole, 1);
  const std::size_t cut =
      static_cast<std::size_t>(block1.data() + block1.size() - whole.data());
  ASSERT_LT(cut, whole.size());

  const auto ref0 = core::decompress_block<float>(whole, 0);
  const auto ref1 = core::decompress_block<float>(whole, 1);
  fs::resize_file(tmp.path, cut);

  const io::MappedFile file(tmp.str());
  const auto got0 = core::decompress_block<float>(file.bytes(), 0);
  const auto got1 = core::decompress_block<float>(file.bytes(), 1);
  EXPECT_EQ(got0.values, ref0.values);
  EXPECT_EQ(got1.values, ref1.values);
  EXPECT_THROW(core::decompress_block<float>(file.bytes(), 2),
               io::StreamError);
}

TEST(StreamingIo, MmapReaderRejectsBadFiles) {
  EXPECT_THROW(io::MappedFile("/no/such/archive.fpbk"), io::StreamError);

  // The mapping knows no format: an empty file maps to no bytes and junk
  // maps as it is; the FPBK reader rejects both.
  TempFile empty("mmap-empty");
  std::ofstream(empty.path, std::ios::binary).close();
  const io::MappedFile empty_file(empty.str());
  EXPECT_TRUE(empty_file.bytes().empty());
  EXPECT_THROW(io::block_container_header(empty_file.bytes()),
               io::StreamError);

  TempFile junk("mmap-junk");
  const std::string text = "this is not an archive";
  std::ofstream(junk.path, std::ios::binary) << text;
  const io::MappedFile junk_file(junk.str());
  EXPECT_EQ(junk_file.bytes().size(), text.size());
  EXPECT_THROW(io::block_container_header(junk_file.bytes()),
               io::StreamError);
}

// --- double scalar through the file path ------------------------------------

TEST(StreamingIo, DoubleScalarRoundTripsThroughFile) {
  const data::Dims dims{24, 16};
  const auto f = sample_field(dims, 23);
  std::vector<double> values(f.begin(), f.end());

  TempFile tmp("stream-double");
  core::compress_to_file<double>(values, dims,
                                 core::ControlRequest::fixed_psnr(90.0),
                                 pipeline_options(2, 7), tmp.str());
  const auto out = core::decompress_file<double>(tmp.str());
  ASSERT_EQ(out.values.size(), values.size());
  EXPECT_THROW(core::decompress_file<float>(tmp.str()), io::StreamError);
}
