// fpsnr public API — Source and Sink value types.
//
// One signature covers every I/O shape the library supports: in-memory
// spans, raw value files, and archive files, which compress spills block
// by block as workers finish and decompress / inspect memory-map.
// A Source names where a job's input comes from; a Sink names where a
// compression job's archive goes. Both are cheap value types — a Source
// over memory BORROWS the span (the caller keeps it alive for the call),
// file variants carry only the path.
//
// Self-contained: installed under <prefix>/include/fpsnr and includes only
// the C++ standard library.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace fpsnr {

namespace detail {
struct Access;  // session.cpp's window into Source/Sink internals
}

/// Input of a session job.
///
/// Field sources (for compress): memory(values, dims) over float or double
/// spans, or raw_file(path, dims) for a little-endian float32 value file.
/// Archive sources (for decompress / decompress_block / inspect):
/// memory(bytes) over an archive already in memory, or file(path), which is
/// memory-mapped and then read exactly like memory(bytes) — so single-block
/// reads touch only that block's extent.
class Source {
 public:
  /// In-memory float32 field; `dims` is C-order (last extent fastest).
  static Source memory(std::span<const float> values,
                       std::vector<std::size_t> dims) {
    Source s(Kind::FieldF32);
    s.data_ = values.data();
    s.count_ = values.size();
    s.dims_ = std::move(dims);
    return s;
  }

  /// In-memory float64 field.
  static Source memory(std::span<const double> values,
                       std::vector<std::size_t> dims) {
    Source s(Kind::FieldF64);
    s.data_ = values.data();
    s.count_ = values.size();
    s.dims_ = std::move(dims);
    return s;
  }

  /// In-memory archive bytes (any stream the library ever wrote).
  static Source memory(std::span<const std::uint8_t> archive) {
    Source s(Kind::ArchiveMemory);
    s.data_ = archive.data();
    s.count_ = archive.size();
    return s;
  }

  /// Archive on disk. Every archive file is memory-mapped read-only, FPBK
  /// containers and legacy flat streams alike; the same bytes give the
  /// same result, or the same exception type, as Source::memory.
  static Source file(std::string path) {
    Source s(Kind::ArchiveFile);
    s.path_ = std::move(path);
    return s;
  }

  /// Raw little-endian float32 values on disk (the CLI's input format).
  static Source raw_file(std::string path, std::vector<std::size_t> dims) {
    Source s(Kind::RawFileF32);
    s.path_ = std::move(path);
    s.dims_ = std::move(dims);
    return s;
  }

  /// True when this source describes field values (compress input) rather
  /// than an existing archive.
  bool is_field() const {
    return kind_ == Kind::FieldF32 || kind_ == Kind::FieldF64 ||
           kind_ == Kind::RawFileF32;
  }

 private:
  enum class Kind : std::uint8_t {
    FieldF32,
    FieldF64,
    ArchiveMemory,
    ArchiveFile,
    RawFileF32,
  };

  explicit Source(Kind kind) : kind_(kind) {}

  friend struct detail::Access;

  Kind kind_;
  const void* data_ = nullptr;  ///< borrowed; memory variants only
  std::size_t count_ = 0;
  std::vector<std::size_t> dims_;
  std::string path_;
};

/// Output of a compression job.
///
/// memory(): the archive bytes come back in CompressReport::archive.
/// file(path): blocks spill to `path + ".partial"` as workers finish, in
/// index order, and the finished archive is renamed onto `path` — peak
/// memory is the in-flight reorder buffer, never the whole archive, and a
/// failed job leaves whatever was at `path` untouched. The file is
/// byte-identical to the memory sink's archive for the same job.
/// stream(path): a synonym for file(path), kept for existing callers.
class Sink {
 public:
  static Sink memory() { return Sink(Kind::Memory); }

  static Sink file(std::string path) {
    Sink s(Kind::File);
    s.path_ = std::move(path);
    return s;
  }

  static Sink stream(std::string path) { return file(std::move(path)); }

 private:
  enum class Kind : std::uint8_t { Memory, File };

  explicit Sink(Kind kind) : kind_(kind) {}

  friend struct detail::Access;

  Kind kind_;
  std::string path_;
};

}  // namespace fpsnr
