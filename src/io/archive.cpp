#include "io/archive.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace fpsnr::io {

namespace {

constexpr std::uint8_t kMagic[4] = {'F', 'P', 'A', 'R'};
constexpr std::uint8_t kVersion = 1;
constexpr std::size_t kMaxNameLength = 4096;

ByteReader open_archive(std::span<const std::uint8_t> archive,
                        std::uint64_t* count) {
  ByteReader reader(archive);
  const auto magic = reader.get_bytes(4);
  if (!std::equal(magic.begin(), magic.end(), kMagic))
    throw StreamError("archive: bad magic");
  if (reader.get<std::uint8_t>() != kVersion)
    throw StreamError("archive: unsupported version");
  // Each entry is at least a name-length varint and a u64 blob length.
  *count = reader.count(reader.get_varint(), 1 + sizeof(std::uint64_t));
  return reader;
}

std::string read_name(ByteReader& reader) {
  const std::uint64_t len = reader.get_varint();
  if (len > kMaxNameLength) throw StreamError("archive: entry name too long");
  const auto raw = reader.get_bytes(len);
  return {raw.begin(), raw.end()};
}

}  // namespace

std::vector<std::uint8_t> write_archive(std::span<const ArchiveEntry> entries) {
  ByteWriter out;
  out.put_bytes(std::span<const std::uint8_t>(kMagic, 4));
  out.put<std::uint8_t>(kVersion);
  out.put_varint(entries.size());
  for (const ArchiveEntry& e : entries) {
    if (e.name.size() > kMaxNameLength)
      throw std::invalid_argument("archive: entry name too long");
    out.put_varint(e.name.size());
    out.put_bytes(bytes_of(std::span<const char>(e.name)));
    out.put_blob(e.bytes);
  }
  return out.take();
}

std::vector<ArchiveEntry> read_archive(std::span<const std::uint8_t> archive) {
  std::uint64_t count = 0;
  ByteReader reader = open_archive(archive, &count);
  std::vector<ArchiveEntry> entries;
  entries.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    ArchiveEntry e;
    e.name = read_name(reader);
    e.bytes = reader.get_blob();
    entries.push_back(std::move(e));
  }
  reader.expect_end();
  return entries;
}

std::vector<std::string> list_archive(std::span<const std::uint8_t> archive) {
  std::uint64_t count = 0;
  ByteReader reader = open_archive(archive, &count);
  std::vector<std::string> names;
  names.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    names.push_back(read_name(reader));
    (void)reader.get_blob_view();  // skip payload without copying
  }
  return names;
}

std::vector<std::uint8_t> archive_entry(std::span<const std::uint8_t> archive,
                                        const std::string& name) {
  std::uint64_t count = 0;
  ByteReader reader = open_archive(archive, &count);
  std::vector<std::uint8_t> found;
  bool have = false;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::string entry_name = read_name(reader);
    const auto blob = reader.get_blob_view();
    if (entry_name == name) {
      found.assign(blob.begin(), blob.end());
      have = true;  // keep scanning: last entry with the name wins
    }
  }
  if (!have) throw std::out_of_range("archive: no entry named " + name);
  return found;
}

// --- Block-indexed container ----------------------------------------------

namespace {

constexpr std::uint8_t kBlockMagic[4] = {'F', 'P', 'B', 'K'};
constexpr std::uint8_t kMaxRank = 3;

}  // namespace

std::size_t block_index_entry_bytes(std::uint8_t version) {
  return version >= 2 ? 3 * sizeof(std::uint64_t) : 2 * sizeof(std::uint64_t);
}

void write_block_header(const BlockContainerHeader& h, ByteWriter& out) {
  if (h.version < kBlockContainerVersion ||
      h.version > kBlockContainerVersionMax)
    throw std::invalid_argument("block container: unwritable version");
  out.put_bytes(std::span<const std::uint8_t>(kBlockMagic, 4));
  out.put<std::uint8_t>(h.version);
  out.put<std::uint8_t>(h.codec);
  out.put<std::uint8_t>(h.scalar);
  out.put<std::uint8_t>(static_cast<std::uint8_t>(h.extents.size()));
  for (std::uint64_t e : h.extents) out.put_varint(e);
  if (h.tile.size() != h.extents.size())
    throw std::invalid_argument("block container: tile rank != extents rank");
  for (std::uint64_t t : h.tile) out.put_varint(t);
  out.put_varint(h.block_count);
  out.put<double>(h.eb_abs);
  out.put<double>(h.value_range);
  out.put<std::uint8_t>(h.control_mode);
  out.put<double>(h.control_value);
  out.put<std::uint8_t>(h.budget_mode);
  if (h.version >= kBlockContainerVersionTemporal) {
    // The chain header must be internally consistent before a byte hits the
    // wire: a v4 frame is by definition a series member, a delta frame must
    // name its reference, and a keyframe must claim neither a reference nor
    // any temporal block.
    if ((h.temporal_flags & ~(kTemporalFlagDelta | kTemporalFlagSeries)) != 0 ||
        (h.temporal_flags & kTemporalFlagSeries) == 0)
      throw std::invalid_argument("block container: bad temporal flags");
    const bool delta = (h.temporal_flags & kTemporalFlagDelta) != 0;
    if (delta != (h.ref_hash != 0))
      throw std::invalid_argument(
          "block container: delta flag inconsistent with reference hash");
    if (h.block_modes.size() != (h.block_count + 7) / 8)
      throw std::invalid_argument("block container: mode bitmap size");
    bool any = false;
    for (std::uint8_t byte : h.block_modes) any = any || byte != 0;
    if (any && !delta)
      throw std::invalid_argument(
          "block container: temporal blocks in a keyframe");
    out.put<std::uint8_t>(h.temporal_flags);
    out.put<std::uint64_t>(h.series_id);
    out.put<std::uint64_t>(h.timestep);
    out.put<std::uint64_t>(h.ref_hash);
    out.put_bytes(h.block_modes);
  }
}

namespace {

/// Reads the header and leaves the reader positioned at the index table.
BlockContainerHeader read_block_header(ByteReader& reader) {
  const auto magic = reader.get_bytes(4);
  if (!std::equal(magic.begin(), magic.end(), kBlockMagic))
    throw StreamError("block container: bad magic");
  const std::uint8_t version = reader.get<std::uint8_t>();
  if (version < 1 || version > kBlockContainerVersionMax)
    throw StreamError("block container: unsupported version");
  BlockContainerHeader h;
  h.version = version;
  h.codec = reader.get<std::uint8_t>();
  h.scalar = reader.get<std::uint8_t>();
  const auto rank = reader.get<std::uint8_t>();
  if (rank < 1 || rank > kMaxRank)
    throw StreamError("block container: rank out of 1..3");
  h.extents.resize(rank);
  for (auto& e : h.extents) {
    e = reader.get_varint();
    if (e == 0) throw StreamError("block container: zero extent");
  }
  if (version >= 3) {
    // Full-rank tile geometry: one extent per axis.
    h.tile.resize(rank);
    for (std::size_t a = 0; a < rank; ++a) {
      h.tile[a] = reader.get_varint();
      if (h.tile[a] == 0)
        throw StreamError("block container: zero tile extent");
      if (h.tile[a] > h.extents[a])
        throw StreamError("block container: tile exceeds field extent");
    }
  } else {
    // v1/v2: a single axis-0 slab height; the other axes span the field.
    const std::uint64_t block_rows = reader.get_varint();
    if (block_rows == 0)
      throw StreamError("block container: zero tile extent");
    h.tile.assign(h.extents.begin(), h.extents.end());
    h.tile[0] = std::min(block_rows, h.extents[0]);
  }
  h.block_count = reader.get_varint();
  if (h.block_count == 0)
    throw StreamError("block container: empty block layout");
  // The tile grid must cover the field exactly: block_count is the product
  // of the per-axis tile counts ceil(extent / tile). The product is guarded
  // against wrap so a crafted header cannot alias a huge grid onto a small
  // block_count.
  std::uint64_t expect = 1;
  for (std::size_t a = 0; a < rank; ++a) {
    // Divide-then-round so extents near UINT64_MAX cannot wrap the sum.
    const std::uint64_t g =
        h.extents[a] / h.tile[a] + (h.extents[a] % h.tile[a] != 0 ? 1 : 0);
    if (g != 0 &&
        expect > std::numeric_limits<std::uint64_t>::max() / g)
      throw StreamError("block container: tile grid overflows");
    expect *= g;
  }
  if (h.block_count != expect)
    throw StreamError("block container: tile layout does not tile the field");
  h.eb_abs = reader.get<double>();
  h.value_range = reader.get<double>();
  h.control_mode = reader.get<std::uint8_t>();
  h.control_value = reader.get<double>();
  if (version >= 2) {
    h.budget_mode = reader.get<std::uint8_t>();
    if (h.budget_mode > 1)
      throw StreamError("block container: unknown budget mode");
  }
  if (version >= kBlockContainerVersionTemporal) {
    // v4 chain header. Every consistency rule the writer enforces is
    // re-checked here, so a tampered chain (flipped keyframe flag, zeroed
    // reference hash, stray mode bits) dies as a clean StreamError instead
    // of silently decoding against the wrong reference.
    h.temporal_flags = reader.get<std::uint8_t>();
    if ((h.temporal_flags & ~(kTemporalFlagDelta | kTemporalFlagSeries)) != 0)
      throw StreamError("block container: unknown temporal flags");
    if ((h.temporal_flags & kTemporalFlagSeries) == 0)
      throw StreamError("block container: v4 frame without series flag");
    h.series_id = reader.get<std::uint64_t>();
    h.timestep = reader.get<std::uint64_t>();
    h.ref_hash = reader.get<std::uint64_t>();
    const bool delta = (h.temporal_flags & kTemporalFlagDelta) != 0;
    if (delta && h.ref_hash == 0)
      throw StreamError("block container: delta frame without reference hash");
    if (!delta && h.ref_hash != 0)
      throw StreamError("block container: keyframe carries a reference hash");
    const std::size_t bitmap_bytes =
        static_cast<std::size_t>((h.block_count + 7) / 8);
    const auto bitmap = reader.get_bytes(bitmap_bytes);
    h.block_modes.assign(bitmap.begin(), bitmap.end());
    // Bits past block_count in the trailing byte are meaningless and must
    // be zero; a keyframe must not mark any block temporal.
    if (h.block_count % 8 != 0 && !h.block_modes.empty() &&
        (h.block_modes.back() >> (h.block_count % 8)) != 0)
      throw StreamError("block container: trailing mode bitmap bits set");
    if (!delta) {
      for (std::uint8_t byte : h.block_modes)
        if (byte != 0)
          throw StreamError("block container: temporal blocks in a keyframe");
    }
  }
  return h;
}

struct IndexEntry {
  std::uint64_t offset, size;
};

struct BlockIndex {
  std::vector<IndexEntry> entries;
  std::vector<double> sse;  ///< empty for v1 streams
};

BlockIndex read_block_index(ByteReader& reader, const BlockContainerHeader& h,
                            std::size_t payload_bytes) {
  BlockIndex index;
  index.entries.resize(h.block_count);
  for (auto& e : index.entries) e.offset = reader.get<std::uint64_t>();
  for (auto& e : index.entries) e.size = reader.get<std::uint64_t>();
  if (h.has_block_sse()) {
    index.sse.resize(h.block_count);
    for (auto& s : index.sse) {
      s = reader.get<double>();
      if (!std::isfinite(s) || s < 0.0)
        throw StreamError("block container: invalid per-block SSE");
    }
  }
  std::uint64_t expect = 0;
  for (const auto& e : index.entries) {
    if (e.offset != expect)
      throw StreamError("block container: non-contiguous index");
    expect += e.size;
  }
  if (expect != payload_bytes)
    throw StreamError("block container: index does not cover the payload");
  return index;
}

}  // namespace

BlockContainerWriter::BlockContainerWriter(BlockContainerHeader header)
    : header_(std::move(header)),
      blocks_(header_.block_count),
      sse_(header_.block_count, 0.0),
      present_(header_.block_count, 0),
      missing_(header_.block_count) {
  if (header_.block_count == 0)
    throw std::invalid_argument("block container: zero blocks");
}

void BlockContainerWriter::add_block(std::size_t index,
                                     std::vector<std::uint8_t> bytes,
                                     double achieved_sse) {
  std::lock_guard lock(mutex_);
  if (finished_)
    throw std::logic_error("block container: add_block after finish");
  if (index >= blocks_.size())
    throw std::out_of_range("block container: block index out of range");
  if (present_[index])
    throw std::logic_error("block container: duplicate block");
  if (!std::isfinite(achieved_sse) || achieved_sse < 0.0)
    throw std::invalid_argument("block container: invalid block SSE");
  blocks_[index] = std::move(bytes);
  sse_[index] = achieved_sse;
  present_[index] = 1;
  --missing_;
}

std::vector<std::uint8_t> BlockContainerWriter::finish() {
  std::lock_guard lock(mutex_);
  if (finished_) throw std::logic_error("block container: finish twice");
  if (missing_ != 0)
    throw std::logic_error("block container: " + std::to_string(missing_) +
                           " block(s) never delivered");
  finished_ = true;

  ByteWriter out;
  write_block_header(header_, out);
  std::uint64_t offset = 0;
  for (const auto& b : blocks_) {
    out.put<std::uint64_t>(offset);
    offset += b.size();
  }
  for (const auto& b : blocks_) out.put<std::uint64_t>(b.size());
  for (double s : sse_) out.put<double>(s);
  for (const auto& b : blocks_) out.put_bytes(b);
  return out.take();
}

bool is_block_container(std::span<const std::uint8_t> stream) {
  return stream.size() >= 4 &&
         std::equal(kBlockMagic, kBlockMagic + 4, stream.begin());
}

BlockContainerView open_block_container(std::span<const std::uint8_t> stream) {
  ByteReader reader(stream);
  BlockContainerView view;
  view.header = read_block_header(reader);
  const std::uint64_t count = view.header.block_count;
  const std::size_t entry_bytes = block_index_entry_bytes(view.header.version);
  const std::size_t index_bytes =
      reader.count(count, entry_bytes) * entry_bytes;
  const std::size_t payload_bytes = reader.remaining() - index_bytes;
  auto index = read_block_index(reader, view.header, payload_bytes);
  const std::size_t payload_start = reader.position();
  view.blocks.reserve(count);
  for (const auto& e : index.entries)
    view.blocks.push_back(stream.subspan(payload_start + e.offset, e.size));
  view.block_sse = std::move(index.sse);
  return view;
}

BlockContainerHeader block_container_header(
    std::span<const std::uint8_t> stream) {
  ByteReader reader(stream);
  return read_block_header(reader);
}

std::span<const std::uint8_t> block_container_entry(
    std::span<const std::uint8_t> stream, std::size_t index) {
  ByteReader reader(stream);
  const BlockContainerHeader h = read_block_header(reader);
  if (index >= h.block_count)
    throw std::out_of_range("block container: block index out of range");
  const std::size_t entry_bytes = block_index_entry_bytes(h.version);
  if (h.block_count > reader.remaining() / entry_bytes)
    throw StreamError("block container: truncated index");
  const std::size_t index_bytes =
      static_cast<std::size_t>(h.block_count) * entry_bytes;
  const std::size_t payload_bytes = reader.remaining() - index_bytes;
  const std::size_t table_start = reader.position();
  ByteReader offsets(stream.subspan(table_start + index * sizeof(std::uint64_t)));
  const auto offset = offsets.get<std::uint64_t>();
  ByteReader sizes(stream.subspan(table_start +
                                  (h.block_count + index) * sizeof(std::uint64_t)));
  const auto size = sizes.get<std::uint64_t>();
  if (offset + size > payload_bytes || offset + size < offset)
    throw StreamError("block container: index entry out of bounds");
  return stream.subspan(table_start + index_bytes + offset, size);
}

}  // namespace fpsnr::io
