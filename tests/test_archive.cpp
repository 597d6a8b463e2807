// Tests for the named-blob archive container.
#include "io/archive.h"

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "data/dataset.h"
#include "metrics/metrics.h"

namespace io = fpsnr::io;
namespace core = fpsnr::core;
namespace data = fpsnr::data;
namespace metrics = fpsnr::metrics;

TEST(Archive, EmptyArchive) {
  const auto bytes = io::write_archive({});
  EXPECT_TRUE(io::read_archive(bytes).empty());
  EXPECT_TRUE(io::list_archive(bytes).empty());
}

TEST(Archive, RoundTripEntries) {
  const std::vector<io::ArchiveEntry> entries = {
      {"alpha", {1, 2, 3}},
      {"beta", {}},
      {"gamma/with/slash", std::vector<std::uint8_t>(1000, 42)},
  };
  const auto bytes = io::write_archive(entries);
  const auto back = io::read_archive(bytes);
  ASSERT_EQ(back.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(back[i].name, entries[i].name);
    EXPECT_EQ(back[i].bytes, entries[i].bytes);
  }
  EXPECT_EQ(io::list_archive(bytes),
            (std::vector<std::string>{"alpha", "beta", "gamma/with/slash"}));
}

TEST(Archive, SingleEntryLookup) {
  const std::vector<io::ArchiveEntry> entries = {
      {"x", {9}}, {"y", {8, 8}}, {"x", {7, 7, 7}}};  // duplicate name
  const auto bytes = io::write_archive(entries);
  EXPECT_EQ(io::archive_entry(bytes, "y"), (std::vector<std::uint8_t>{8, 8}));
  // Last duplicate wins.
  EXPECT_EQ(io::archive_entry(bytes, "x"), (std::vector<std::uint8_t>{7, 7, 7}));
  EXPECT_THROW(io::archive_entry(bytes, "nope"), std::out_of_range);
}

TEST(Archive, CorruptionRejected) {
  const std::vector<io::ArchiveEntry> entries = {{"a", {1, 2, 3, 4}}};
  auto bytes = io::write_archive(entries);
  auto bad = bytes;
  bad[0] = 'Z';
  EXPECT_THROW(io::read_archive(bad), io::StreamError);
  bad = bytes;
  bad.resize(bad.size() - 2);
  EXPECT_THROW(io::read_archive(bad), io::StreamError);
  bad = bytes;
  bad.push_back(0);  // trailing junk
  EXPECT_THROW(io::read_archive(bad), io::StreamError);
}

TEST(Archive, OversizedNameRejected) {
  io::ArchiveEntry e;
  e.name = std::string(5000, 'n');
  EXPECT_THROW(io::write_archive({{e}}), std::invalid_argument);
}

TEST(Archive, WholeDatasetRoundTrip) {
  // The intended use: one archive per snapshot, one compressed stream per
  // field, self-describing end to end.
  const auto ds = data::make_hurricane({0.4, 99});
  std::vector<io::ArchiveEntry> entries;
  for (const auto& f : ds.fields) {
    io::ArchiveEntry e;
    e.name = f.name;
    e.bytes = core::compress_blocked<float>(
                  f.span(), f.dims, core::ControlRequest::fixed_psnr(70.0))
                  .stream;
    entries.push_back(std::move(e));
  }
  const auto archive = io::write_archive(entries);

  const auto names = io::list_archive(archive);
  ASSERT_EQ(names.size(), ds.field_count());
  for (const auto& f : ds.fields) {
    const auto stream = io::archive_entry(archive, f.name);
    const auto out = core::decompress<float>(stream);
    EXPECT_EQ(out.dims, f.dims);
    const auto rep = metrics::compare<float>(f.span(), out.values);
    EXPECT_GT(rep.psnr_db, 65.0) << f.name;
  }
}

// --- block-indexed container (FPBK) -----------------------------------------

TEST(BlockContainer, HeaderRoundTrip) {
  io::BlockContainerHeader h;
  h.codec = 2;
  h.scalar = 1;
  h.extents = {10, 20, 30};
  h.tile = {4, 20, 30};
  h.block_count = 3;  // ceil(10/4)
  h.eb_abs = 1.5e-3;
  h.value_range = 42.0;
  h.control_mode = 3;
  h.control_value = 80.0;

  io::BlockContainerWriter writer(h);
  writer.add_block(1, {4, 5}, 0.0);
  writer.add_block(0, {1, 2, 3}, 0.0);
  writer.add_block(2, {}, 0.0);  // empty blocks are legal
  const auto stream = writer.finish();
  ASSERT_TRUE(io::is_block_container(stream));

  const auto header = io::block_container_header(stream);
  EXPECT_EQ(header.codec, 2);
  EXPECT_EQ(header.scalar, 1);
  EXPECT_EQ(header.extents, (std::vector<std::uint64_t>{10, 20, 30}));
  EXPECT_EQ(header.tile, (std::vector<std::uint64_t>{4, 20, 30}));
  EXPECT_EQ(header.block_count, 3u);
  EXPECT_DOUBLE_EQ(header.eb_abs, 1.5e-3);
  EXPECT_DOUBLE_EQ(header.value_range, 42.0);
  EXPECT_EQ(header.control_mode, 3);
  EXPECT_DOUBLE_EQ(header.control_value, 80.0);

  const auto view = io::open_block_container(stream);
  ASSERT_EQ(view.blocks.size(), 3u);
  EXPECT_EQ(view.blocks[0].size(), 3u);
  EXPECT_EQ(view.blocks[1].size(), 2u);
  EXPECT_EQ(view.blocks[2].size(), 0u);
  const auto b0 = io::block_container_entry(stream, 0);
  EXPECT_EQ(std::vector<std::uint8_t>(b0.begin(), b0.end()),
            (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(BlockContainer, MalformedStreamsRejected) {
  io::BlockContainerHeader h;
  h.extents = {8};
  h.tile = {4};
  h.block_count = 2;
  io::BlockContainerWriter writer(h);
  writer.add_block(0, {1, 2, 3}, 0.0);
  writer.add_block(1, {4}, 0.0);
  const auto stream = writer.finish();

  auto bad = stream;
  bad[0] = 'Z';
  EXPECT_THROW(io::open_block_container(bad), io::StreamError);
  bad = stream;
  bad.resize(bad.size() - 2);  // truncated payload
  EXPECT_THROW(io::open_block_container(bad), io::StreamError);
  bad.resize(10);  // truncated header
  EXPECT_THROW(io::open_block_container(bad), io::StreamError);
  EXPECT_THROW(io::block_container_entry(stream, 2), std::out_of_range);
}

TEST(BlockContainer, LayoutMustTileTheField) {
  // block_count inconsistent with the tile grid must be rejected at
  // construction time (the writer validates through the same header path as
  // the reader on finish()).
  io::BlockContainerHeader h;
  h.extents = {8};
  h.tile = {4};
  h.block_count = 3;  // should be 2
  io::BlockContainerWriter writer(h);
  writer.add_block(0, {1}, 0.0);
  writer.add_block(1, {2}, 0.0);
  writer.add_block(2, {3}, 0.0);
  const auto stream = writer.finish();
  EXPECT_THROW(io::open_block_container(stream), io::StreamError);
}
