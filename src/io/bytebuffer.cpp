#include "io/bytebuffer.h"

#include <bit>
#include <limits>
#include <stdexcept>

namespace fpsnr::io {

static_assert(std::endian::native == std::endian::little,
              "fpsnr targets little-endian hosts; the wire format is "
              "little-endian and ByteWriter::put relies on host order");

void ByteWriter::put_varint(std::uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<std::uint8_t>(v) | 0x80u);
    v >>= 7;
  }
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::put_blob(std::span<const std::uint8_t> bytes) {
  put<std::uint64_t>(bytes.size());
  put_bytes(bytes);
}

void ByteWriter::put_string(std::string_view s) {
  if (s.size() > std::numeric_limits<std::uint32_t>::max())
    throw std::length_error("ByteWriter: string longer than a u32 prefix");
  put<std::uint32_t>(static_cast<std::uint32_t>(s.size()));
  put_bytes(bytes_of(std::span<const char>(s)));
}

void ByteReader::past_end(std::uint64_t n) const {
  throw StreamError("ByteReader: read of " + std::to_string(n) +
                    " byte(s) past the end (" + std::to_string(remaining()) +
                    " left)");
}

std::uint64_t ByteReader::get_varint() {
  std::uint64_t out = 0;
  unsigned shift = 0;
  for (;;) {
    require(1);
    std::uint8_t b = data_[pos_++];
    if (shift >= 64 || (shift == 63 && (b & 0x7Fu) > 1))
      throw StreamError("ByteReader: varint overflows 64 bits");
    out |= static_cast<std::uint64_t>(b & 0x7Fu) << shift;
    if ((b & 0x80u) == 0) return out;
    shift += 7;
  }
}

std::vector<std::uint8_t> ByteReader::get_blob() {
  auto view = get_blob_view();
  return {view.begin(), view.end()};
}

std::span<const std::uint8_t> ByteReader::get_blob_view() {
  const auto len = get<std::uint64_t>();
  require(len);
  std::span<const std::uint8_t> view = data_.subspan(pos_, len);
  pos_ += len;
  return view;
}

std::string ByteReader::get_string() {
  const auto len = get<std::uint32_t>();
  require(len);
  std::string out(reinterpret_cast<const char*>(data_.data() + pos_), len);
  pos_ += len;
  return out;
}

std::vector<std::uint8_t> ByteReader::get_bytes(std::size_t n) {
  require(n);
  const auto view = data_.subspan(pos_, n);
  pos_ += n;
  return {view.begin(), view.end()};
}

std::size_t ByteReader::count(std::uint64_t n, std::size_t min_bytes) {
  if (n > remaining() / min_bytes)
    throw StreamError("ByteReader: count " + std::to_string(n) + " of " +
                      std::to_string(min_bytes) +
                      "-byte elements exceeds the " +
                      std::to_string(remaining()) + " byte(s) left");
  return static_cast<std::size_t>(n);
}

void ByteReader::expect_end() const {
  if (!exhausted())
    throw StreamError("ByteReader: " + std::to_string(remaining()) +
                      " trailing byte(s) after the last field");
}

}  // namespace fpsnr::io
