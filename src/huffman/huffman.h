// Canonical Huffman coding over an unsigned-integer alphabet [0, n).
//
// This is SZ's step (2) substrate: the quantization-code array (alphabet
// 0..2n, typically 2^16 codes) is entropy-coded with a Huffman code built
// from the empirical symbol frequencies. The same coder doubles as the
// entropy stage of the DEFLATE-like lossless backend (src/lossless).
//
// The encoder is not dense over the alphabet: it holds tables only for the
// range of symbols its input uses (a tile of quantization codes typically
// spans a few hundred of the 65,536). The serialized table still describes
// the whole alphabet, byte for byte what a dense build would write.
//
// Properties:
//  * Length-limited codes (default cap 32 bits) via the zlib-style
//    bl_count overflow repair, so the decoder can use fixed-size tables.
//  * Canonical code assignment — only code *lengths* are serialized
//    (run-length encoded), exactly like DEFLATE.
//  * Codes are emitted bit-reversed into the LSB-first BitWriter, so the
//    low bits of a BitReader window hold the next code, first bit lowest:
//    the decoder resolves it with one table lookup on those bits, and
//    Decoder::decode resolves several codes from each 64-bit window.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "io/bitstream.h"
#include "io/bytebuffer.h"

namespace fpsnr::huffman {

/// Maximum supported code length (bits).
inline constexpr unsigned kMaxCodeLength = 32;

/// Compute optimal (then length-limited) Huffman code lengths for the given
/// symbol frequencies. freq[i] is the count of symbol i; zero-frequency
/// symbols get length 0 (no code). Guarantees the Kraft inequality holds
/// with equality when >= 2 symbols are present.
std::vector<std::uint8_t> build_code_lengths(std::span<const std::uint64_t> freq,
                                             unsigned max_length = kMaxCodeLength);

/// Canonical (MSB-first) code values for the given lengths.
std::vector<std::uint32_t> canonical_codes(std::span<const std::uint8_t> lengths);

/// Huffman encoder for the alphabet [0, alphabet_size), with tables over
/// the coded range [base, base + range) only.
class Encoder {
 public:
  /// Build from frequencies (freq.size() == alphabet size).
  static Encoder from_frequencies(std::span<const std::uint64_t> freq,
                                  unsigned max_length = kMaxCodeLength);

  /// Build from an explicit symbol stream, over the range of symbols it
  /// uses; the lengths equal a build from the dense histogram. Throws
  /// std::invalid_argument for a symbol >= alphabet_size.
  static Encoder from_symbols(std::span<const std::uint32_t> symbols,
                              std::uint32_t alphabet_size,
                              unsigned max_length = kMaxCodeLength);

  /// Append the code of one symbol to the bit stream.
  void encode_symbol(std::uint32_t symbol, io::BitWriter& out) const;

  /// Append codes for a whole symbol stream.
  void encode(std::span<const std::uint32_t> symbols, io::BitWriter& out) const;

  /// Serialize the code table (lengths only, RLE over the whole alphabet)
  /// so a Decoder can rebuild it.
  void write_table(io::ByteWriter& out) const;

  /// Code length of `symbol` (0 = symbol has no code). Throws
  /// std::out_of_range for a symbol >= alphabet_size().
  unsigned code_length(std::uint32_t symbol) const;

  std::size_t alphabet_size() const { return alphabet_; }

  /// Exact size in bits of encoding `symbols` with this table.
  std::uint64_t encoded_bits(std::span<const std::uint32_t> symbols) const;

  /// Code lengths over the whole alphabet (built on demand).
  std::vector<std::uint8_t> lengths() const;

 private:
  std::size_t alphabet_ = 0;
  std::uint32_t base_ = 0;            // first symbol of the coded range
  std::vector<std::uint8_t> lengths_;  // of symbols base_, base_ + 1, ...
  std::vector<std::uint32_t> codes_;   // canonical, MSB-first
  // Packed encode table for the bulk path: bit-reversed (LSB-first) code in
  // the low word, code length in the high word; 0 for symbols with no code.
  std::vector<std::uint64_t> entries_;

  Encoder(std::size_t alphabet, std::uint32_t base,
          std::vector<std::uint8_t> lengths, std::vector<std::uint32_t> codes);
};

/// Entropy-code `symbols` as every quantizing codec lays it out: the
/// Encoder::from_symbols code table, then the encoded bits as one blob.
void encode_stream(std::span<const std::uint32_t> symbols,
                   std::uint32_t alphabet_size, io::ByteWriter& out);

/// Huffman decoder built from serialized or in-memory code lengths.
class Decoder {
 public:
  /// Rebuild from a table serialized by Encoder::write_table.
  static Decoder read_table(io::ByteReader& in);

  /// Build directly from code lengths.
  static Decoder from_lengths(std::span<const std::uint8_t> lengths);

  /// Decode one symbol. Throws io::StreamError on an invalid code or one
  /// that runs past the end of the stream.
  std::uint32_t decode_symbol(io::BitReader& in) const;

  /// Decode exactly `count` symbols: the same symbols, final position and
  /// errors as `count` decode_symbol calls.
  std::vector<std::uint32_t> decode(io::BitReader& in, std::size_t count) const;

 private:
  /// Consecutive symbols [symbol, symbol + count) sharing one code length.
  struct Run {
    std::uint32_t symbol;
    std::uint32_t count;
    std::uint8_t length;
  };
  /// A run in canonical order: `rank` is the index of its first symbol
  /// among the symbols of its code length.
  struct RankedRun {
    std::uint32_t rank;
    std::uint32_t symbol;
  };

  // Canonical decoding state per code length L (1-indexed):
  //   first_code_[L] : canonical code value of the first symbol of length L
  //   count_[L]      : number of symbols with length L
  //   offset_[L]     : where those symbols start, in canonical order: one
  //                    per entry in sorted_symbols_ for L <= kListedLength,
  //                    as runs in runs_ (through offset_[L + 1]) beyond
  // Kraft caps the listed symbols at 2^kListedLength. Longer codes are kept
  // as runs, so a table claiming billions of them costs memory in
  // proportion to its own size, not to the claim.
  static constexpr unsigned kListedLength = 20;
  unsigned max_length_ = 0;
  std::vector<std::uint32_t> first_code_;
  std::vector<std::uint32_t> count_;
  std::vector<std::uint32_t> offset_;
  std::vector<std::uint32_t> sorted_symbols_;
  std::vector<RankedRun> runs_;

  // Single-level lookup acceleration: peek `table_width_` stream bits and
  // resolve any code of length <= table_width_ in one step (the common
  // case — long codes fall back to the canonical walk). decode() also
  // takes the code after it from the same peek when both fit the width.
  struct FastEntry {
    std::uint32_t symbol = 0;
    std::uint32_t second = 0;  // the next code's symbol when step == 2
    std::uint8_t length = 0;   // 0 = no code of width <= table_width_ here
    std::uint8_t bits = 0;     // length of the step's codes together
    std::uint8_t step = 0;     // codes resolved by decode(): 1 or 2
  };
  unsigned table_width_ = 0;
  std::vector<FastEntry> fast_table_;

  /// `runs` lists the coded symbols (length >= 1) in ascending order.
  explicit Decoder(std::span<const Run> runs);
  std::uint32_t decode_symbol_slow(io::BitReader& in) const;
};

inline std::uint32_t Decoder::decode_symbol(io::BitReader& in) const {
  if (table_width_ != 0) {
    const FastEntry e = fast_table_[in.peek_bits(table_width_)];
    if (e.length != 0 && e.length <= in.bits_remaining()) {
      in.skip_bits(e.length);
      return e.symbol;
    }
  }
  return decode_symbol_slow(in);
}

}  // namespace fpsnr::huffman
