// Bit-granular output/input streams.
//
// BitWriter packs bits LSB-first into a growable byte vector; BitReader
// consumes them in the same order. Both are substrates for the canonical
// Huffman coder (src/huffman) and the DEFLATE-like backend (src/lossless).
//
// Conventions:
//  * write_bits(value, n) emits the n low bits of `value`, least-significant
//    bit first (DEFLATE convention), so bit k of the stream is bit (k & 7)
//    of byte k >> 3.
//  * BitReader reads a 64-bit window at a time: one unaligned 8-byte
//    little-endian load at the cursor's byte, shifted by its bit offset,
//    holds at least 56 stream bits. Within the last 8 bytes the window is
//    assembled byte by byte instead, so no load reaches past the span.
//  * Reading or skipping past the end throws fpsnr::io::StreamError —
//    corrupted inputs must fail loudly, never invoke UB. Peeking past the
//    end reads zero bits.
#pragma once

#include <bit>
#include <cstdint>
#include <cstddef>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace fpsnr::io {

/// Thrown on malformed or truncated streams.
class StreamError : public std::runtime_error {
 public:
  explicit StreamError(const std::string& what) : std::runtime_error(what) {}
};

/// Append-only bit sink. Bits are packed LSB-first within each byte.
class BitWriter {
 public:
  BitWriter() = default;

  /// Emit the `nbits` low-order bits of `value`, LSB first. nbits in [0,64].
  void write_bits(std::uint64_t value, unsigned nbits);

  /// Emit a single bit.
  void write_bit(bool bit) { write_bits(bit ? 1u : 0u, 1); }

  /// Pad with zero bits to the next byte boundary.
  void align_to_byte();

  /// Append raw bytes (must be byte-aligned; call align_to_byte() first).
  void write_bytes(std::span<const std::uint8_t> bytes);

  /// Number of bits written so far.
  std::size_t bit_count() const { return bit_count_; }

  /// Finish (pads to byte boundary) and move out the underlying buffer.
  std::vector<std::uint8_t> take();

  /// Read-only view of the (possibly unaligned) current contents.
  const std::vector<std::uint8_t>& buffer() const { return bytes_; }

 private:
  std::vector<std::uint8_t> bytes_;
  std::uint64_t acc_ = 0;      // bit accumulator, LSB-first
  unsigned acc_bits_ = 0;      // bits currently held in acc_
  std::size_t bit_count_ = 0;

  void flush_full_bytes();
};

/// Bit source over a borrowed byte span. LSB-first, mirroring BitWriter.
class BitReader {
 public:
  /// Bits a window() is guaranteed to hold past the cursor.
  static constexpr unsigned kWindowBits = 56;

  explicit BitReader(std::span<const std::uint8_t> data) : data_(data) {}

  /// The stream from the cursor on, LSB-first: the low kWindowBits bits are
  /// the next stream bits, zero past the end of the stream.
  std::uint64_t window() const { return window_at(bit_pos_); }

  /// Look at the next `nbits` bits without consuming them. Bits past the
  /// end of the stream read as zero (callers must bounds-check separately
  /// before consuming). nbits in [0,64].
  std::uint64_t peek_bits(unsigned nbits) const {
    if (nbits > kWindowBits) return peek_wide(nbits);
    return window_at(bit_pos_) & low_mask(nbits);
  }

  /// Read `nbits` bits (LSB-first) as an unsigned value. nbits in [0,64].
  std::uint64_t read_bits(unsigned nbits) {
    if (nbits > kWindowBits) return read_wide(nbits);
    if (nbits > bits_remaining()) throw_past_end("read");
    const std::uint64_t out = window_at(bit_pos_) & low_mask(nbits);
    bit_pos_ += nbits;
    return out;
  }

  /// Advance the cursor by `n` bits. Throws StreamError past the end.
  void skip_bits(std::size_t n) {
    if (n > bits_remaining()) throw_past_end("skip");
    bit_pos_ += n;
  }

  /// Read one bit.
  bool read_bit() { return read_bits(1) != 0; }

  /// Skip ahead to the next byte boundary.
  void align_to_byte();

  /// Copy `n` raw bytes (requires byte alignment).
  std::vector<std::uint8_t> read_bytes(std::size_t n);

  /// Bits consumed so far.
  std::size_t bit_position() const { return bit_pos_; }

  /// Total bits available.
  std::size_t bit_size() const { return data_.size() * 8; }

  /// Bits remaining.
  std::size_t bits_remaining() const { return bit_size() - bit_pos_; }

  /// True while window() comes from one 8-byte load, i.e. the cursor's
  /// byte is 8 or more bytes from the end: then all kWindowBits low bits of
  /// the window are stream bits, so codes within them need no end check.
  bool window_is_full() const { return full_at(bit_pos_ >> 3); }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t bit_pos_ = 0;

  static constexpr std::uint64_t low_mask(unsigned nbits) {
    return nbits == 0 ? 0 : ~std::uint64_t{0} >> (64 - nbits);
  }

  bool full_at(std::size_t byte) const {
    return data_.size() >= 8 && byte <= data_.size() - 8;
  }

  std::uint64_t window_at(std::size_t pos) const {
    const std::size_t byte = pos >> 3;
    if (!full_at(byte)) return tail_window(pos);
    std::uint64_t word;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&word, data_.data() + byte, sizeof word);
    } else {
      word = 0;
      for (unsigned i = 0; i < 8; ++i)
        word |= std::uint64_t{data_[byte + i]} << (8 * i);
    }
    return word >> (pos & 7);
  }

  std::uint64_t tail_window(std::size_t pos) const;
  std::uint64_t peek_wide(unsigned nbits) const;
  std::uint64_t read_wide(unsigned nbits);
  [[noreturn]] static void throw_past_end(const char* op);
};

}  // namespace fpsnr::io
