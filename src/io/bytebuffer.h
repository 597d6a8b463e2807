// Byte-granular serialization buffers: the one little-endian reader and
// writer behind every archive, codec payload and fpsnrd wire frame.
//
// ByteWriter/ByteReader provide little-endian primitive encoding, varints,
// length-prefixed blobs (u64 prefix), strings (u32 prefix) and typed arrays.
//
// ByteReader fails closed: every read throws StreamError when it would pass
// the end of the span. The check is `n > remaining()`, which cannot wrap,
// so a hostile u64 length is rejected however large it is. A decoded count
// must pass count() before it sizes an allocation: count() rejects any
// count whose minimum encoded size exceeds the bytes that are left.
#pragma once

#include <cstdint>
#include <cstddef>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "io/bitstream.h"  // for StreamError

namespace fpsnr::io {

/// The raw bytes of a span of trivially-copyable values.
template <typename T>
std::span<const std::uint8_t> bytes_of(std::span<const T> values) {
  static_assert(std::is_trivially_copyable_v<T>);
  return {reinterpret_cast<const std::uint8_t*>(values.data()),
          values.size_bytes()};
}

/// Growable little-endian byte sink.
class ByteWriter {
 public:
  ByteWriter() = default;

  /// Append a trivially-copyable scalar in little-endian byte order.
  template <typename T>
  void put(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    unsigned char raw[sizeof(T)];
    std::memcpy(raw, &value, sizeof(T));
    // This library targets little-endian hosts (asserted in bytebuffer.cpp);
    // memcpy order is the wire order.
    buf_.insert(buf_.end(), raw, raw + sizeof(T));
  }

  /// Append raw bytes.
  void put_bytes(std::span<const std::uint8_t> bytes) {
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }

  /// Append an unsigned LEB128 varint.
  void put_varint(std::uint64_t v);

  /// Append a u64 length prefix followed by the bytes.
  void put_blob(std::span<const std::uint8_t> bytes);

  /// Append a u32 length prefix followed by the characters.
  void put_string(std::string_view s);

  std::size_t size() const { return buf_.size(); }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  const std::vector<std::uint8_t>& buffer() const { return buf_; }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian byte source over a borrowed span.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    require(sizeof(T));
    T out;
    std::memcpy(&out, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return out;
  }

  /// Read an unsigned LEB128 varint.
  std::uint64_t get_varint();

  /// Read a u64-length-prefixed blob as an owned vector.
  std::vector<std::uint8_t> get_blob();

  /// Borrow a u64-length-prefixed blob without copying.
  std::span<const std::uint8_t> get_blob_view();

  /// Read a u32-length-prefixed string.
  std::string get_string();

  /// Copy n raw bytes.
  std::vector<std::uint8_t> get_bytes(std::size_t n);

  /// Check a decoded element count before it sizes anything: throws
  /// StreamError unless n elements of at least `min_bytes` (>= 1) encoded
  /// bytes each fit in what is left. Returns n.
  std::size_t count(std::uint64_t n, std::size_t min_bytes);

  /// Copy n raw elements of T into a new vector (n checked by count()).
  template <typename T>
  std::vector<T> get_array(std::uint64_t n) {
    std::vector<T> out(count(n, sizeof(T)));
    get_into(std::span<T>(out));
    return out;
  }

  /// Fill `out` with out.size() raw elements of T.
  template <typename T>
  void get_into(std::span<T> out) {
    static_assert(std::is_trivially_copyable_v<T>);
    require(out.size_bytes());
    if (!out.empty())
      std::memcpy(out.data(), data_.data() + pos_, out.size_bytes());
    pos_ += out.size_bytes();
  }

  /// Throws StreamError unless every byte has been read: trailing bytes
  /// mean writer and reader disagree about the layout.
  void expect_end() const;

  std::size_t position() const { return pos_; }
  std::size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return pos_ == data_.size(); }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;

  // `n > remaining()`, never a sum with the position: a sum can wrap.
  void require(std::uint64_t n) const {
    if (n > remaining()) past_end(n);
  }
  [[noreturn]] void past_end(std::uint64_t n) const;
};

}  // namespace fpsnr::io
