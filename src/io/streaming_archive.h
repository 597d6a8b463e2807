// Read-only file mapping: how every archive file reaches a decoder.
//
// MappedFile memory-maps a file read-only and hands out its bytes as a
// span; it knows nothing of archive formats. The facade maps every archive
// Source::file this way, FPBK and flat streams alike, and decodes the span
// exactly as it decodes an archive held in memory. Decoding one FPBK block
// through the O(1) index touches only the header, two index entries, and
// that block's extent, so the OS never faults in the rest of the payload
// and random access into a TB-scale archive stays cheap. The write side,
// with its file output that spills blocks as workers finish, is
// BlockContainerWriter (io/archive.h).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace fpsnr::io {

/// Read-only memory map of a whole file. Pages are faulted in only when
/// touched.
class MappedFile {
 public:
  /// Maps `path`. Throws StreamError if the file cannot be opened, sized
  /// or mapped. An empty file has nothing to map and yields empty bytes,
  /// which every decoder rejects as it rejects an empty buffer.
  explicit MappedFile(const std::string& path);
  ~MappedFile();

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// The whole file. Spans into it are valid for the mapping's lifetime.
  std::span<const std::uint8_t> bytes() const { return {data_, size_}; }

 private:
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  void* map_ = nullptr;               ///< non-null when mmap backed
  std::vector<std::uint8_t> owned_;   ///< fallback when mmap is unavailable
};

}  // namespace fpsnr::io
