// Memory-mapped FPBK decode: read an archive without loading its payload.
//
// MmapArchiveReader memory-maps an archive read-only. Decoding one block
// through the O(1) index touches only the header, two index entries, and
// that block's extent — the OS never faults in the rest of the payload, so
// random access into a TB-scale archive stays cheap. The write side, with
// its file output that spills blocks as workers finish, is
// BlockContainerWriter (io/archive.h).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "io/archive.h"

namespace fpsnr::io {

/// Read-only memory map of an FPBK archive. The header is parsed (and
/// validated) eagerly; block payloads are faulted in only when touched.
class MmapArchiveReader {
 public:
  /// Maps `path`. Throws StreamError if the file cannot be opened/mapped or
  /// does not start with a valid FPBK header.
  explicit MmapArchiveReader(const std::string& path);
  ~MmapArchiveReader();

  MmapArchiveReader(const MmapArchiveReader&) = delete;
  MmapArchiveReader& operator=(const MmapArchiveReader&) = delete;

  /// The whole mapping (header + index + payload). Spans into it are valid
  /// for the reader's lifetime.
  std::span<const std::uint8_t> bytes() const { return {data_, size_}; }

  const BlockContainerHeader& header() const { return header_; }
  std::size_t block_count() const { return header_.block_count; }

  /// Bytes of block `index` via the O(1) index seek — no other block's
  /// payload is touched. Throws like io::block_container_entry.
  std::span<const std::uint8_t> block(std::size_t index) const {
    return block_container_entry(bytes(), index);
  }

 private:
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  void* map_ = nullptr;               ///< non-null when mmap backed
  std::vector<std::uint8_t> owned_;   ///< fallback when mmap is unavailable
  BlockContainerHeader header_;
};

}  // namespace fpsnr::io
