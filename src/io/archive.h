// Minimal named-blob archive: one file for a whole multi-field dataset.
//
// Scientific dumps carry tens of variables per snapshot (CESM: 79+); the
// archive packs one compressed stream per field with a name index so the
// CLI and examples can round-trip entire datasets through a single buffer
// or file. Format (little-endian):
//   magic "FPAR", version u8, varint entry count,
//   per entry: varint name length, name bytes, u64-length-prefixed blob.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "io/bytebuffer.h"

namespace fpsnr::io {

struct ArchiveEntry {
  std::string name;
  std::vector<std::uint8_t> bytes;
};

/// Serialize entries in order. Names may repeat (last one wins on lookup).
std::vector<std::uint8_t> write_archive(std::span<const ArchiveEntry> entries);

/// Parse a full archive. Throws StreamError on malformed input.
std::vector<ArchiveEntry> read_archive(std::span<const std::uint8_t> archive);

/// Entry names only (cheap index scan; blobs are skipped, not copied).
std::vector<std::string> list_archive(std::span<const std::uint8_t> archive);

/// Extract a single entry by name. Throws std::out_of_range if absent.
std::vector<std::uint8_t> archive_entry(std::span<const std::uint8_t> archive,
                                        const std::string& name);

// ---------------------------------------------------------------------------
// Block-indexed container — the on-wire format of the block-parallel
// pipeline engine (core/pipeline.h). One field is stored as `block_count`
// independently compressed full-rank tiles plus a fixed-width offset/size
// index, so workers can emit blocks out of order at compress time and
// readers can decode any single block without touching the rest.
//
// Layout (little-endian):
//   magic "FPBK", version u8 (1..4),
//   codec u8, scalar u8, rank u8, extents varint x rank,
//   tile varint x rank                 (v3+; v1/v2 store block_rows varint),
//   block_count varint,
//   eb_abs f64, value_range f64, control_mode u8, control_value f64,
//   budget_mode u8                     (v2+ only),
//   temporal_flags u8                  (v4 only; bit0 delta, bit1 series),
//   series_id u64, timestep u64, ref_hash u64          (v4 only),
//   mode bitmap, ceil(block_count/8) bytes             (v4 only),
//   offset u64 x block_count (relative to payload start),
//   size   u64 x block_count,
//   sse    f64 x block_count           (v2+ only; achieved per-block SSE),
//   payload bytes (blocks concatenated in index order).
//
// v2 extended v1 with non-uniform budget metadata: a budget-mode byte in the
// header and a third fixed-width index column recording each block's exact
// achieved sum of squared errors, so a reader can report the *measured*
// global PSNR without touching the payload.
//
// v3 replaces the axis-0 slab geometry (a single block_rows varint) with a
// full-rank tile shape: one varint per axis giving the tile's extent along
// that axis. Blocks are the tiles of the C-order tile grid (last axis
// fastest); the trailing tile on each axis may be short. Spatial writers
// always emit v3; readers accept all versions — a v1/v2 block_rows header
// is an axis-0 slab, i.e. the synthesized tile {block_rows, dims[1], ...}.
//
// v4 adds the temporal chain header for time-series frames (the temporal
// subsystem, src/temporal/): a flags byte (bit0 = this frame codes deltas
// against the previous reconstruction; bit1 = member of a series — ALWAYS
// set in v4, other bits must be zero), the series id (FNV-1a of the series
// name), the timestep index, the reference hash (FNV-1a over the raw value
// bytes of the reference reconstruction; nonzero iff delta — it is what
// lets a decoder refuse to apply a delta to the wrong reference), and a
// per-block mode bitmap (bit b = block b codes the temporal delta; all-zero
// and required to be so for keyframes). Only series frames are v4; plain
// spatial archives keep emitting v3, so v1–v3 readers and fixtures are
// byte-for-byte unaffected.
// ---------------------------------------------------------------------------

/// Version written for plain spatial archives (every non-series write).
inline constexpr std::uint8_t kBlockContainerVersion = 3;
/// Version written for temporal-series frames (v4 chain header present).
inline constexpr std::uint8_t kBlockContainerVersionTemporal = 4;
/// Highest version any reader accepts.
inline constexpr std::uint8_t kBlockContainerVersionMax =
    kBlockContainerVersionTemporal;

/// v4 temporal_flags bits.
inline constexpr std::uint8_t kTemporalFlagDelta = 0x01;
inline constexpr std::uint8_t kTemporalFlagSeries = 0x02;

struct BlockContainerHeader {
  std::uint8_t version = kBlockContainerVersion;  ///< set by the readers
  std::uint8_t codec = 0;   ///< core::CodecId of the per-block codec
  std::uint8_t scalar = 0;  ///< sz::ScalarType of the original data
  std::vector<std::uint64_t> extents;  ///< full-field dims, C order
  /// Per-axis tile extents, same rank/order as `extents`; the trailing tile
  /// on each axis may be short. Readers of v1/v2 streams synthesize
  /// {block_rows, extents[1], ...} so every decode path sees one geometry.
  std::vector<std::uint64_t> tile;
  std::uint64_t block_count = 0;
  double eb_abs = 0.0;        ///< base per-block error budget
  double value_range = 0.0;   ///< global range the budget was derived from
  std::uint8_t control_mode = 0;  ///< core::ControlMode of the user request
  double control_value = 0.0;     ///< the request's value (PSNR dB, bound, ...)
  std::uint8_t budget_mode = 0;   ///< core::BudgetMode (v2+; 0 = uniform)

  // v4 temporal chain header (all zero for v1..v3).
  std::uint8_t temporal_flags = 0;  ///< kTemporalFlagDelta | kTemporalFlagSeries
  std::uint64_t series_id = 0;      ///< FNV-1a of the series name
  std::uint64_t timestep = 0;       ///< 0-based position in the series
  std::uint64_t ref_hash = 0;       ///< FNV-1a of the reference recon bytes
  /// Per-block prediction mode, bit b of byte b/8 at position b%8: 1 means
  /// block b stores the temporal delta, 0 means spatial-from-scratch.
  /// ceil(block_count/8) bytes in a v4 stream; empty otherwise.
  std::vector<std::uint8_t> block_modes;

  /// True when the stream carries the per-block achieved-SSE index column.
  bool has_block_sse() const { return version >= 2; }
  /// True when the stream carries the v4 temporal chain header.
  bool has_temporal_chain() const {
    return version >= kBlockContainerVersionTemporal;
  }
  bool is_delta_frame() const {
    return (temporal_flags & kTemporalFlagDelta) != 0;
  }
  /// True when block `b`'s payload is a temporal delta (v4 only).
  bool block_is_temporal(std::size_t b) const {
    return b / 8 < block_modes.size() &&
           (block_modes[b / 8] >> (b % 8)) & 1;
  }
};

/// Serialize `h` (magic byte through budget_mode, plus the v4 chain fields
/// when h.version >= 4) — the byte prefix of every FPBK container, written
/// by BlockContainerWriter below. Writes h.version; throws
/// std::invalid_argument on an unwritable version or an inconsistent v4
/// chain (bad flag bits, wrong bitmap size).
void write_block_header(const BlockContainerHeader& h, ByteWriter& out);

/// Width of one per-block index entry for the given container version
/// (offset u64 + size u64, + sse f64 from v2). Single source of truth for
/// the readers and the writer's reserved index region.
std::size_t block_index_entry_bytes(std::uint8_t version);

/// Layout and memory high-water marks observed by a BlockContainerWriter;
/// the pipeline reports them so callers can describe the archive and check
/// that the writer held only the in-flight blocks, never the container.
struct StreamingStats {
  std::uint64_t total_bytes = 0;          ///< final archive size
  std::vector<std::uint64_t> tile;        ///< per-axis tile extents
  std::uint64_t block_count = 0;
  std::size_t peak_buffered_bytes = 0;    ///< reorder-buffer high-water mark
  std::size_t peak_buffered_blocks = 0;   ///< ... in blocks
};

/// The one FPBK writer. It writes the header and a zeroed index region
/// first, then the payload in index order: `add_block` is thread-safe and
/// accepts blocks in any completion order, so pipeline workers can finish
/// out of order. A block whose predecessors have all landed is appended at
/// once (outside the lock, so other workers keep going); an early block
/// waits in the reorder buffer until the prefix reaches it. finish() fills
/// the index. Beyond its output the writer holds only the reorder buffer,
/// which is O(threads) blocks in practice.
///
/// Two outputs, same bytes: memory (the container comes back from
/// finish()) or a file. Only append, write_at and finish() tell them
/// apart. The file output is all-or-nothing: bytes
/// accumulate in `path + ".partial"`, which finish() renames onto `path`,
/// so a failure partway (codec exception, full disk) never destroys a
/// pre-existing archive and never leaves a truncated container that looks
/// like output; the partial file is removed when an unfinished writer is
/// destroyed.
class BlockContainerWriter {
 public:
  /// Memory output: finish() returns the container bytes.
  explicit BlockContainerWriter(BlockContainerHeader header);
  /// File output. A symlink at `path` is followed to the file it names.
  /// Throws StreamError if `path` is empty, names something other than a
  /// regular file (the rename would replace a device or FIFO instead of
  /// writing to it), or `path + ".partial"` cannot be created.
  BlockContainerWriter(std::string path, BlockContainerHeader header);
  ~BlockContainerWriter();

  BlockContainerWriter(const BlockContainerWriter&) = delete;
  BlockContainerWriter& operator=(const BlockContainerWriter&) = delete;

  /// Store block `index`'s bytes (0-based; must be < header.block_count and
  /// not yet filled). `achieved_sse` is the block's exact sum of squared
  /// reconstruction errors, recorded in the v2 index column — deliberately
  /// not defaulted: 0 claims "this block decodes losslessly", which must
  /// be an explicit statement, never an accident. Safe to call
  /// concurrently from pool workers.
  void add_block(std::size_t index, std::vector<std::uint8_t> bytes,
                 double achieved_sse);

  /// Fill the index and complete the output: memory returns the container
  /// bytes; a file is flushed and renamed onto its path, and the returned
  /// vector is empty. Throws std::logic_error if any block slot is still
  /// empty or finish() was already called, StreamError on a write failure.
  std::vector<std::uint8_t> finish();

  const StreamingStats& stats() const { return stats_; }

 private:
  void append(std::vector<std::uint8_t> bytes);
  void write_at(std::uint64_t pos, std::vector<std::uint8_t> bytes);

  std::string path_;          ///< empty for the memory output
  std::string partial_path_;  ///< path + ".partial" until finish() renames
  std::ofstream file_;
  /// The memory output: the header and index, then each block as it was
  /// appended; finish() joins them into one exact-size vector.
  std::vector<std::vector<std::uint8_t>> chunks_;
  std::uint64_t index_pos_ = 0;    ///< offset of the reserved index
  std::uint64_t payload_pos_ = 0;  ///< offset of the payload start
  std::vector<std::uint64_t> sizes_;
  std::vector<double> sse_;
  std::vector<char> present_;
  std::size_t next_to_spill_ = 0;  ///< first block not yet appended
  std::map<std::size_t, std::vector<std::uint8_t>> reorder_;  ///< early blocks
  std::size_t buffered_bytes_ = 0;
  StreamingStats stats_;
  bool finished_ = false;
  bool spilling_ = false;  ///< one thread is appending outside the lock
  std::mutex mutex_;
  std::condition_variable spill_done_;
};

/// True if `stream` starts with the block-container magic "FPBK".
bool is_block_container(std::span<const std::uint8_t> stream);

/// Parsed header plus borrowed views of every block's bytes.
struct BlockContainerView {
  BlockContainerHeader header;
  std::vector<std::span<const std::uint8_t>> blocks;  ///< views into stream
  /// Achieved per-block SSE from the v2 index column; empty for v1 streams.
  std::vector<double> block_sse;
};

/// Parse a complete container. Throws StreamError on malformed input.
BlockContainerView open_block_container(std::span<const std::uint8_t> stream);

/// Parse the header only (no index walk, no payload access).
BlockContainerHeader block_container_header(
    std::span<const std::uint8_t> stream);

/// Random access: bytes of block `index` only (index-table seek; the other
/// blocks' payloads are never touched). Throws std::out_of_range on a bad
/// index, StreamError on malformed input.
std::span<const std::uint8_t> block_container_entry(
    std::span<const std::uint8_t> stream, std::size_t index);

}  // namespace fpsnr::io
