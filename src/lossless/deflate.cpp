#include "lossless/deflate.h"

#include <array>
#include <cstring>
#include <stdexcept>

#include "huffman/huffman.h"
#include "io/bitstream.h"
#include "io/bytebuffer.h"

namespace fpsnr::lossless {

namespace {

// RFC 1951 §3.2.5 length code table: base length and extra bits for
// symbols 257..285.
constexpr std::array<unsigned, 29> kLengthBase = {
    3,  4,  5,  6,  7,  8,  9,  10, 11,  13,  15,  17,  19,  23, 27,
    31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258};
constexpr std::array<unsigned, 29> kLengthExtra = {
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2,
    2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0};

// RFC 1951 §3.2.5 distance code table: symbols 0..29.
constexpr std::array<unsigned, 30> kDistBase = {
    1,    2,    3,    4,    5,    7,     9,     13,    17,   25,
    33,   49,   65,   97,   129,  193,   257,   385,   513,  769,
    1025, 1537, 2049, 3073, 4097, 6145,  8193,  12289, 16385, 24577};
constexpr std::array<unsigned, 30> kDistExtra = {
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6,
    6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13};

}  // namespace

LengthSym length_to_symbol(unsigned length) {
  if (length < kMinMatch || length > kMaxMatch)
    throw std::invalid_argument("deflate: length out of 3..258");
  // Linear scan is fine: table has 29 entries and this is not the hot loop
  // (the matcher is), but binary-search semantics: find last base <= length.
  unsigned idx = 0;
  for (unsigned i = 0; i < kLengthBase.size(); ++i)
    if (kLengthBase[i] <= length) idx = i;
  // Length 258 has its own dedicated symbol (285) with 0 extra bits.
  if (length == kMaxMatch) idx = 28;
  return {257 + idx, kLengthExtra[idx], length - kLengthBase[idx]};
}

LengthInfo length_symbol_info(std::uint32_t symbol) {
  if (symbol < 257 || symbol > 285)
    throw std::invalid_argument("deflate: bad length symbol");
  const unsigned idx = symbol - 257;
  return {kLengthBase[idx], kLengthExtra[idx]};
}

DistanceSym distance_to_symbol(unsigned distance) {
  if (distance < 1 || distance > kWindowSize)
    throw std::invalid_argument("deflate: distance out of 1..32768");
  unsigned idx = 0;
  for (unsigned i = 0; i < kDistBase.size(); ++i)
    if (kDistBase[i] <= distance) idx = i;
  return {idx, kDistExtra[idx], distance - kDistBase[idx]};
}

DistanceInfo distance_symbol_info(std::uint32_t symbol) {
  if (symbol >= kDistAlphabet)
    throw std::invalid_argument("deflate: bad distance symbol");
  return {kDistBase[symbol], kDistExtra[symbol]};
}

std::vector<std::uint8_t> deflate_compress(std::span<const std::uint8_t> input,
                                           const MatcherConfig& config) {
  const std::vector<Token> tokens = tokenize(input, config);

  // Pass 1: symbol frequencies for the two tables.
  std::vector<std::uint64_t> litlen_freq(kLitLenAlphabet, 0);
  std::vector<std::uint64_t> dist_freq(kDistAlphabet, 0);
  for (const Token& t : tokens) {
    if (t.kind == Token::Kind::Literal) {
      ++litlen_freq[t.literal];
    } else {
      ++litlen_freq[length_to_symbol(t.length).symbol];
      ++dist_freq[distance_to_symbol(t.distance).symbol];
    }
  }
  ++litlen_freq[kEndOfBlock];

  const auto litlen_enc = huffman::Encoder::from_frequencies(litlen_freq);
  const auto dist_enc = huffman::Encoder::from_frequencies(dist_freq);

  // Pass 2: emit container + bitstream.
  io::ByteWriter header;
  header.put_varint(input.size());
  litlen_enc.write_table(header);
  dist_enc.write_table(header);

  io::BitWriter bits;
  for (const Token& t : tokens) {
    if (t.kind == Token::Kind::Literal) {
      litlen_enc.encode_symbol(t.literal, bits);
    } else {
      const LengthSym ls = length_to_symbol(t.length);
      litlen_enc.encode_symbol(ls.symbol, bits);
      bits.write_bits(ls.extra_value, ls.extra_bits);
      const DistanceSym ds = distance_to_symbol(t.distance);
      dist_enc.encode_symbol(ds.symbol, bits);
      bits.write_bits(ds.extra_value, ds.extra_bits);
    }
  }
  litlen_enc.encode_symbol(kEndOfBlock, bits);

  auto payload = bits.take();
  header.put_blob(payload);
  return header.take();
}

std::vector<std::uint8_t> deflate_decompress(std::span<const std::uint8_t> compressed) {
  io::ByteReader reader(compressed);
  const std::uint64_t original_size = reader.get_varint();
  const auto litlen_dec = huffman::Decoder::read_table(reader);
  const auto dist_dec = huffman::Decoder::read_table(reader);
  const auto payload = reader.get_blob_view();
  // Every coded symbol takes at least one bit and yields at most 258 bytes.
  if (original_size / 258 > std::uint64_t{payload.size()} * 8)
    throw io::StreamError("deflate: declared size exceeds the payload");

  // The output is sized once to the validated size and written in place:
  // every literal and match checks its room before it writes.
  io::BitReader bits(payload);
  std::vector<std::uint8_t> out(original_size);
  std::uint8_t* const dst = out.data();
  std::size_t pos = 0;
  for (;;) {
    const std::uint32_t sym = litlen_dec.decode_symbol(bits);
    if (sym < 256) {
      if (pos == out.size())
        throw io::StreamError("deflate: output exceeds declared size");
      dst[pos++] = static_cast<std::uint8_t>(sym);
      continue;
    }
    if (sym == kEndOfBlock) break;
    if (sym >= kLitLenAlphabet)
      throw io::StreamError("deflate: bad length symbol");
    const unsigned length =
        kLengthBase[sym - 257] +
        static_cast<unsigned>(bits.read_bits(kLengthExtra[sym - 257]));
    const std::uint32_t dsym = dist_dec.decode_symbol(bits);
    if (dsym >= kDistAlphabet)
      throw io::StreamError("deflate: bad distance symbol");
    const std::size_t distance =
        kDistBase[dsym] + static_cast<std::size_t>(bits.read_bits(kDistExtra[dsym]));
    if (distance > pos)
      throw io::StreamError("deflate: back-reference outside window");
    if (length > out.size() - pos)
      throw io::StreamError("deflate: output exceeds declared size");
    // A distance shorter than the length repeats bytes this copy writes,
    // so only a distant source may be copied in one block.
    std::uint8_t* const to = dst + pos;
    const std::uint8_t* from = to - distance;
    if (distance >= length)
      std::memcpy(to, from, length);
    else
      for (unsigned i = 0; i < length; ++i) to[i] = from[i];
    pos += length;
  }
  if (pos != original_size)
    throw io::StreamError("deflate: output size mismatch with header");
  return out;
}

}  // namespace fpsnr::lossless
