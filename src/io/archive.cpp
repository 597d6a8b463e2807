#include "io/archive.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <utility>

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
  if (h.scalar > 1) throw StreamError("block container: unknown scalar type");
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

BlockContainerWriter::BlockContainerWriter(BlockContainerHeader header) {
  if (header.block_count == 0)
    throw std::invalid_argument("block container: zero blocks");
  sizes_.assign(header.block_count, 0);
  sse_.assign(header.block_count, 0.0);
  present_.assign(header.block_count, 0);
  stats_.tile = header.tile;
  stats_.block_count = header.block_count;
  // The header, then the index region (offsets, sizes, then the v2
  // per-block SSE column) reserved as zeros; finish() fills it once every
  // block size is known.
  ByteWriter head;
  write_block_header(header, head);
  index_pos_ = head.size();
  const std::size_t index_bytes =
      static_cast<std::size_t>(header.block_count) *
      block_index_entry_bytes(header.version);
  std::vector<std::uint8_t> first = head.take();
  first.resize(first.size() + index_bytes, 0);
  payload_pos_ = first.size();
  chunks_.push_back(std::move(first));
}

BlockContainerWriter::BlockContainerWriter(std::string path,
                                           BlockContainerHeader header)
    : BlockContainerWriter(std::move(header)) {
  // An empty path_ means the memory output, so it must not name a file.
  if (path.empty()) throw StreamError("block container: empty path");
  // finish() renames onto `path`, replacing whatever sits there: write
  // through a symlink to the file it names, and refuse anything that is
  // not a regular file rather than replace it.
  std::error_code ec;
  const std::filesystem::path target = std::filesystem::canonical(path, ec);
  if (!ec) {
    if (!std::filesystem::is_regular_file(target))
      throw StreamError("block container: " + path +
                        " is not a regular file");
    path = target.string();
  }
  path_ = std::move(path);
  partial_path_ = path_ + ".partial";
  // The delegated constructor has completed, so a throw from here on runs
  // the destructor, which removes the partial file.
  file_.open(partial_path_, std::ios::binary | std::ios::trunc);
  if (!file_)
    throw StreamError("block container: cannot create " + partial_path_);
  std::vector<std::uint8_t> head = std::move(chunks_.front());
  chunks_.clear();
  append(std::move(head));
}

BlockContainerWriter::~BlockContainerWriter() {
  std::unique_lock lock(mutex_);
  spill_done_.wait(lock, [&] { return !spilling_; });
  if (finished_ || path_.empty()) return;
  // Unfinished (an exception unwound past us): drop the partial file so no
  // truncated, index-less container masquerades as output.
  file_.close();
  std::error_code ec;
  std::filesystem::remove(partial_path_, ec);
}

void BlockContainerWriter::append(std::vector<std::uint8_t> bytes) {
  // Memory keeps each block as it came and finish() joins them once:
  // growing one vector here would copy the archive at every reallocation
  // and hand back up to twice its size in capacity.
  if (path_.empty()) {
    chunks_.push_back(std::move(bytes));
    return;
  }
  file_.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  if (!file_)
    throw StreamError("block container: write failed on " + partial_path_);
}

void BlockContainerWriter::write_at(std::uint64_t pos,
                                    std::vector<std::uint8_t> bytes) {
  if (path_.empty()) {  // `pos` lies in the first chunk, header and index
    std::copy(bytes.begin(), bytes.end(),
              chunks_.front().begin() + static_cast<std::ptrdiff_t>(pos));
    return;
  }
  file_.seekp(static_cast<std::streamoff>(pos));
  if (!file_)
    throw StreamError("block container: seek failed on " + partial_path_);
  append(std::move(bytes));
}

void BlockContainerWriter::add_block(std::size_t index,
                                     std::vector<std::uint8_t> bytes,
                                     double achieved_sse) {
  std::unique_lock lock(mutex_);
  if (finished_)
    throw std::logic_error("block container: add_block after finish");
  if (index >= sizes_.size())
    throw std::out_of_range("block container: block index out of range");
  if (present_[index])
    throw std::logic_error("block container: duplicate block");
  if (!std::isfinite(achieved_sse) || achieved_sse < 0.0)
    throw std::invalid_argument("block container: invalid block SSE");
  present_[index] = 1;
  sizes_[index] = bytes.size();
  sse_[index] = achieved_sse;

  if (index != next_to_spill_ || spilling_) {
    // Ahead of the payload prefix — or an append is in flight and the
    // output is busy: park the bytes; the active spiller (or a later
    // in-order delivery) drains them. Parking is pure memory work, so
    // workers never wait on the output here.
    buffered_bytes_ += bytes.size();
    reorder_.emplace(index, std::move(bytes));
    stats_.peak_buffered_bytes =
        std::max(stats_.peak_buffered_bytes, buffered_bytes_);
    stats_.peak_buffered_blocks =
        std::max(stats_.peak_buffered_blocks, reorder_.size());
    return;
  }

  // This thread owns the spill until the prefix is no longer extendable.
  // Appends happen OUTSIDE the lock: other workers keep compressing and
  // parking while the output catches up.
  spilling_ = true;
  std::vector<std::vector<std::uint8_t>> batch;
  batch.push_back(std::move(bytes));
  ++next_to_spill_;
  try {
    for (;;) {
      for (auto it = reorder_.begin();
           it != reorder_.end() && it->first == next_to_spill_;
           it = reorder_.erase(it), ++next_to_spill_) {
        buffered_bytes_ -= it->second.size();
        batch.push_back(std::move(it->second));
      }
      lock.unlock();
      for (auto& b : batch) append(std::move(b));
      batch.clear();
      lock.lock();
      if (reorder_.empty() || reorder_.begin()->first != next_to_spill_)
        break;  // nothing new became contiguous while we were appending
    }
  } catch (...) {
    if (!lock.owns_lock()) lock.lock();
    spilling_ = false;
    spill_done_.notify_all();
    throw;
  }
  spilling_ = false;
  spill_done_.notify_all();
}

std::vector<std::uint8_t> BlockContainerWriter::finish() {
  std::unique_lock lock(mutex_);
  spill_done_.wait(lock, [&] { return !spilling_; });
  if (finished_) throw std::logic_error("block container: finish twice");
  if (next_to_spill_ != sizes_.size())
    throw std::logic_error(
        "block container: " +
        std::to_string(sizes_.size() - next_to_spill_ - reorder_.size()) +
        " block(s) never delivered");

  ByteWriter index;
  std::uint64_t offset = 0;
  for (std::uint64_t s : sizes_) {
    index.put<std::uint64_t>(offset);
    offset += s;
  }
  for (std::uint64_t s : sizes_) index.put<std::uint64_t>(s);
  for (double s : sse_) index.put<double>(s);
  write_at(index_pos_, index.take());
  stats_.total_bytes = payload_pos_ + offset;
  if (path_.empty()) {
    finished_ = true;
    std::vector<std::uint8_t> out;
    out.reserve(stats_.total_bytes);
    for (const auto& c : chunks_) out.insert(out.end(), c.begin(), c.end());
    chunks_.clear();
    return out;
  }

  file_.flush();
  if (!file_)
    throw StreamError("block container: flush failed on " + partial_path_);
  file_.close();
  // The archive becomes visible at `path` only now, complete: readers can
  // never observe a half-written container.
  std::error_code ec;
  std::filesystem::rename(partial_path_, path_, ec);
  if (ec)
    throw StreamError("block container: cannot move " + partial_path_ +
                      " to " + path_ + ": " + ec.message());
  finished_ = true;
  return {};
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
