#include "io/bitstream.h"

namespace fpsnr::io {

void BitWriter::flush_full_bytes() {
  while (acc_bits_ >= 8) {
    bytes_.push_back(static_cast<std::uint8_t>(acc_ & 0xFFu));
    acc_ >>= 8;
    acc_bits_ -= 8;
  }
}

void BitWriter::write_bits(std::uint64_t value, unsigned nbits) {
  if (nbits > 64) throw StreamError("BitWriter: nbits > 64");
  if (nbits == 0) return;
  if (nbits < 64) value &= (std::uint64_t{1} << nbits) - 1;
  // The accumulator can hold at most 63 pending bits after flush, so split
  // writes that would overflow the 64-bit accumulator.
  if (acc_bits_ + nbits > 64) {
    unsigned first = 64 - acc_bits_;
    write_bits(value, first);
    write_bits(value >> first, nbits - first);
    return;
  }
  acc_ |= value << acc_bits_;
  acc_bits_ += nbits;
  bit_count_ += nbits;
  flush_full_bytes();
}

void BitWriter::align_to_byte() {
  unsigned rem = bit_count_ % 8;
  if (rem != 0) write_bits(0, 8 - rem);
}

void BitWriter::write_bytes(std::span<const std::uint8_t> bytes) {
  if (bit_count_ % 8 != 0)
    throw StreamError("BitWriter: write_bytes requires byte alignment");
  bytes_.insert(bytes_.end(), bytes.begin(), bytes.end());
  bit_count_ += bytes.size() * 8;
}

std::vector<std::uint8_t> BitWriter::take() {
  align_to_byte();
  // align_to_byte flushed everything into bytes_.
  acc_ = 0;
  acc_bits_ = 0;
  std::vector<std::uint8_t> out = std::move(bytes_);
  bytes_.clear();
  bit_count_ = 0;
  return out;
}

std::uint64_t BitReader::read_bits(unsigned nbits) {
  if (nbits > 64) throw StreamError("BitReader: nbits > 64");
  if (nbits == 0) return 0;
  if (nbits > bits_remaining())
    throw StreamError("BitReader: read past end of stream");
  std::uint64_t out = 0;
  unsigned got = 0;
  while (got < nbits) {
    std::size_t byte_idx = bit_pos_ >> 3;
    unsigned bit_off = static_cast<unsigned>(bit_pos_ & 7);
    unsigned avail = 8 - bit_off;
    unsigned take_n = std::min(avail, nbits - got);
    std::uint64_t chunk =
        (static_cast<std::uint64_t>(data_[byte_idx]) >> bit_off) &
        ((std::uint64_t{1} << take_n) - 1);
    out |= chunk << got;
    got += take_n;
    bit_pos_ += take_n;
  }
  return out;
}

std::uint64_t BitReader::peek_bits(unsigned nbits) const {
  if (nbits > 64) throw StreamError("BitReader: nbits > 64");
  std::uint64_t out = 0;
  unsigned got = 0;
  std::size_t pos = bit_pos_;
  const std::size_t end = bit_size();
  while (got < nbits && pos < end) {
    const std::size_t byte_idx = pos >> 3;
    const unsigned bit_off = static_cast<unsigned>(pos & 7);
    const unsigned avail = 8 - bit_off;
    const unsigned take_n = std::min<unsigned>(avail, nbits - got);
    const std::uint64_t chunk =
        (static_cast<std::uint64_t>(data_[byte_idx]) >> bit_off) &
        ((std::uint64_t{1} << take_n) - 1);
    out |= chunk << got;
    got += take_n;
    pos += take_n;
  }
  return out;  // bits past the end stay zero
}

void BitReader::skip_bits(std::size_t n) {
  if (n > bits_remaining())
    throw StreamError("BitReader: skip past end of stream");
  bit_pos_ += n;
}

void BitReader::align_to_byte() {
  std::size_t rem = bit_pos_ % 8;
  if (rem != 0) {
    if (8 - rem > bits_remaining())
      throw StreamError("BitReader: align past end of stream");
    bit_pos_ += 8 - rem;
  }
}

std::vector<std::uint8_t> BitReader::read_bytes(std::size_t n) {
  if (bit_pos_ % 8 != 0)
    throw StreamError("BitReader: read_bytes requires byte alignment");
  std::size_t byte_idx = bit_pos_ >> 3;
  if (n > data_.size() - byte_idx)
    throw StreamError("BitReader: read_bytes past end of stream");
  std::vector<std::uint8_t> out(data_.begin() + static_cast<std::ptrdiff_t>(byte_idx),
                                data_.begin() + static_cast<std::ptrdiff_t>(byte_idx + n));
  bit_pos_ += n * 8;
  return out;
}

}  // namespace fpsnr::io
