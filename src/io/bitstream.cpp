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

std::uint64_t BitReader::tail_window(std::size_t pos) const {
  std::uint64_t out = 0;
  for (std::size_t byte = pos >> 3, shift = 0;
       byte < data_.size() && shift < 64; ++byte, shift += 8)
    out |= std::uint64_t{data_[byte]} << shift;
  return out >> (pos & 7);  // bits past the end stay zero
}

std::uint64_t BitReader::peek_wide(unsigned nbits) const {
  if (nbits > 64) throw StreamError("BitReader: nbits > 64");
  // Two windows: the low 32 bits, then the rest from 32 bits further on.
  const std::uint64_t lo = window_at(bit_pos_) & low_mask(32);
  return lo | (window_at(bit_pos_ + 32) & low_mask(nbits - 32)) << 32;
}

std::uint64_t BitReader::read_wide(unsigned nbits) {
  if (nbits > 64) throw StreamError("BitReader: nbits > 64");
  if (nbits > bits_remaining()) throw_past_end("read");
  const std::uint64_t out = peek_wide(nbits);
  bit_pos_ += nbits;
  return out;
}

void BitReader::throw_past_end(const char* op) {
  throw StreamError(std::string("BitReader: ") + op + " past end of stream");
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
