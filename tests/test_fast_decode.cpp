// Tests pinning down the BitReader peek/skip primitives and the Huffman
// fast-table decode path (including its fallback for codes longer than the
// table width), and that the bulk Decoder::decode is exactly repeated
// decode_symbol calls wherever the stream starts and ends. Every stream is
// held in an exactly sized vector, so a sanitized build catches any read
// of the 8-byte window past its end.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>

#include "huffman/huffman.h"
#include "io/bitstream.h"

namespace huffman = fpsnr::huffman;
namespace io = fpsnr::io;

namespace {

/// A copy whose allocation holds exactly its bytes.
std::vector<std::uint8_t> exact(const std::vector<std::uint8_t>& v) {
  return std::vector<std::uint8_t>(v.begin(), v.end());
}

/// Code lengths of a random complete prefix code (Kraft sum 1) whose
/// longest code has exactly `max_length` bits: the deepest leaf is split
/// down to max_length, then random leaves shallower than it, and the codes
/// are scattered over an alphabet with a few unused symbols.
std::vector<std::uint8_t> random_complete_lengths(unsigned max_length,
                                                  std::mt19937_64& rng) {
  std::vector<unsigned> leaves = {0};
  for (;;) {
    auto deepest = std::max_element(leaves.begin(), leaves.end());
    if (*deepest == max_length) break;
    leaves.push_back(++*deepest);
  }
  const std::size_t target = 2 + rng() % 40;
  for (int tries = 0; leaves.size() < target && tries < 1000; ++tries) {
    unsigned& leaf = leaves[rng() % leaves.size()];
    if (leaf < max_length) leaves.push_back(++leaf);
  }
  std::vector<std::uint8_t> lengths(leaves.size() + rng() % 10, 0);
  std::vector<std::size_t> slots(lengths.size());
  std::iota(slots.begin(), slots.end(), std::size_t{0});
  std::shuffle(slots.begin(), slots.end(), rng);
  for (std::size_t j = 0; j < leaves.size(); ++j)
    lengths[slots[j]] = static_cast<std::uint8_t>(leaves[j]);
  return lengths;
}

/// `n` coded symbols: nine in ten drawn with probability 2^-length, as a
/// stream the code fits would hold, one in ten uniformly, so the longest
/// codes occur too.
std::vector<std::uint32_t> draw_symbols(std::span<const std::uint8_t> lengths,
                                        std::size_t n, std::mt19937_64& rng) {
  std::vector<std::uint32_t> coded;
  std::vector<double> weight;
  for (std::uint32_t s = 0; s < lengths.size(); ++s)
    if (lengths[s] != 0) {
      coded.push_back(s);
      weight.push_back(std::ldexp(1.0, -static_cast<int>(lengths[s])));
    }
  std::discrete_distribution<std::size_t> fitted(weight.begin(), weight.end());
  std::vector<std::uint32_t> out(n);
  for (auto& s : out)
    s = coded[rng() % 10 == 0 ? rng() % coded.size() : fitted(rng)];
  return out;
}

/// Reference encoder: each canonical code written bit by bit, MSB first.
void write_codes(std::span<const std::uint8_t> lengths,
                 std::span<const std::uint32_t> symbols, io::BitWriter& w) {
  const auto codes = huffman::canonical_codes(lengths);
  for (const std::uint32_t s : symbols)
    for (unsigned b = lengths[s]; b-- > 0;) w.write_bit((codes[s] >> b) & 1u);
}

}  // namespace

TEST(BitReaderPeek, PeekDoesNotConsume) {
  io::BitWriter w;
  w.write_bits(0b1011010, 7);
  const auto bytes = w.take();
  io::BitReader r(bytes);
  EXPECT_EQ(r.peek_bits(4), 0b1010u);
  EXPECT_EQ(r.bit_position(), 0u);
  EXPECT_EQ(r.read_bits(4), 0b1010u);
  EXPECT_EQ(r.peek_bits(3), 0b101u);
}

TEST(BitReaderPeek, PeekPastEndZeroPads) {
  io::BitWriter w;
  w.write_bits(0b11, 2);
  const auto bytes = w.take();  // one byte: 0b00000011
  io::BitReader r(bytes);
  r.skip_bits(6);
  // Only 2 real bits remain (zero padding), peek 8 must not throw.
  EXPECT_EQ(r.peek_bits(8), 0u);
  EXPECT_EQ(r.bits_remaining(), 2u);
}

TEST(BitReaderPeek, SkipBoundsChecked) {
  io::BitWriter w;
  w.write_bits(0xFF, 8);
  const auto bytes = w.take();
  io::BitReader r(bytes);
  r.skip_bits(8);
  EXPECT_THROW(r.skip_bits(1), io::StreamError);
}

TEST(BitReaderPeek, PeekMatchesReadForRandomStreams) {
  std::mt19937_64 rng(44);
  io::BitWriter w;
  for (int i = 0; i < 200; ++i) w.write_bits(rng(), 1 + rng() % 64);
  const auto bytes = w.take();
  io::BitReader peeker(bytes);
  io::BitReader reader(bytes);
  while (reader.bits_remaining() > 0) {
    const unsigned n = static_cast<unsigned>(
        1 + rng() % std::min<std::size_t>(24, reader.bits_remaining()));
    ASSERT_EQ(peeker.peek_bits(n), reader.read_bits(n));
    peeker.skip_bits(n);
  }
}

TEST(HuffmanFastDecode, LongCodesFallBackCorrectly) {
  // Fibonacci frequencies with a 20-bit cap produce codes well beyond the
  // 12-bit fast table, forcing the canonical fallback for rare symbols
  // while the frequent ones use the table.
  std::vector<std::uint64_t> freq(40);
  std::uint64_t a = 1, b = 1;
  for (auto& f : freq) {
    f = a;
    const std::uint64_t c = a + b;
    a = b;
    b = c;
  }
  const auto enc = huffman::Encoder::from_frequencies(freq, 20);
  unsigned longest = 0;
  for (std::uint32_t s = 0; s < freq.size(); ++s)
    longest = std::max(longest, enc.code_length(s));
  ASSERT_GT(longest, 12u) << "test needs codes beyond the fast-table width";

  // Stream that covers every symbol several times, rare ones included.
  std::mt19937_64 rng(7);
  std::vector<std::uint32_t> symbols;
  for (std::uint32_t s = 0; s < freq.size(); ++s)
    for (int rep = 0; rep < 5; ++rep) symbols.push_back(s);
  std::shuffle(symbols.begin(), symbols.end(), rng);

  io::BitWriter bits;
  enc.encode(symbols, bits);
  const auto payload = bits.take();
  const auto dec = huffman::Decoder::from_lengths(enc.lengths());
  io::BitReader br(payload);
  EXPECT_EQ(dec.decode(br, symbols.size()), symbols);
}

TEST(HuffmanFastDecode, FinalSymbolAtExactStreamEnd) {
  // The fast path peeks past the end (zero padded); the last code must
  // still decode without over-consuming.
  const std::vector<std::uint32_t> symbols = {0, 1, 2, 1, 0, 2, 2};
  const auto enc = huffman::Encoder::from_symbols(symbols, 3);
  io::BitWriter bits;
  enc.encode(symbols, bits);
  const auto payload = bits.take();
  const auto dec = huffman::Decoder::from_lengths(enc.lengths());
  io::BitReader br(payload);
  EXPECT_EQ(dec.decode(br, symbols.size()), symbols);
  // Whatever remains is byte padding only.
  EXPECT_LT(br.bits_remaining(), 8u);
}

TEST(HuffmanFastDecode, EquivalentAcrossAlphabetSizes) {
  std::mt19937_64 rng(99);
  for (std::uint32_t alphabet : {2u, 17u, 300u, 5000u}) {
    std::vector<std::uint32_t> symbols(4000);
    for (auto& s : symbols) {
      const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
      s = static_cast<std::uint32_t>(alphabet * u * u) % alphabet;
    }
    const auto enc = huffman::Encoder::from_symbols(symbols, alphabet);
    io::BitWriter bits;
    enc.encode(symbols, bits);
    const auto payload = bits.take();
    const auto dec = huffman::Decoder::from_lengths(enc.lengths());
    io::BitReader br(payload);
    ASSERT_EQ(dec.decode(br, symbols.size()), symbols) << alphabet;
  }
}

TEST(HuffmanBulkDecode, EqualsSingleSymbolDecodeAtEveryOffsetAndEnd) {
  // Max code lengths 1..32, so codes longer than the table width land
  // inside the bulk loop's window; streams start at every bit offset
  // 0..63 and stop well before the end, inside the last 8 bytes, and
  // (for one offset in eight) exactly at the last bit of the stream.
  std::mt19937_64 rng(2026);
  std::size_t ended_at_last_bit = 0;
  for (unsigned max_length = 1; max_length <= 32; ++max_length) {
    SCOPED_TRACE(max_length);
    const auto lengths = random_complete_lengths(max_length, rng);
    const auto dec = huffman::Decoder::from_lengths(lengths);
    const auto symbols = draw_symbols(lengths, 300, rng);
    for (unsigned offset = 0; offset < 64; ++offset) {
      io::BitWriter w;
      w.write_bits(rng(), offset);
      write_codes(lengths, symbols, w);
      const auto bytes = exact(w.take());
      for (const std::size_t count :
           {symbols.size(), symbols.size() - 1, symbols.size() - 7,
            symbols.size() / 2, std::size_t{1}}) {
        io::BitReader bulk(bytes);
        io::BitReader single(bytes);
        bulk.skip_bits(offset);
        single.skip_bits(offset);
        const auto got = dec.decode(bulk, count);
        std::vector<std::uint32_t> want(count);
        for (auto& s : want) s = dec.decode_symbol(single);
        ASSERT_EQ(got, want) << "offset " << offset << " count " << count;
        ASSERT_TRUE(std::equal(want.begin(), want.end(), symbols.begin()));
        ASSERT_EQ(bulk.bit_position(), single.bit_position())
            << "offset " << offset << " count " << count;
        if (count == symbols.size()) {
          ASSERT_LT(bulk.bits_remaining(), 8u);
          ended_at_last_bit += bulk.bits_remaining() == 0;
        }
      }
    }
  }
  EXPECT_GE(ended_at_last_bit, 32u * 64u / 8u);
}

TEST(HuffmanBulkDecode, PayloadTruncatedInsideTheWindowThrows) {
  // Cut a quarter off the stream: the symbol count still passes the
  // bits-left check, the bulk loop runs over whole windows, and the
  // decode must then run out of bits with a StreamError, as repeated
  // decode_symbol calls do.
  std::mt19937_64 rng(11);
  for (const unsigned max_length : {2u, 5u, 10u, 11u, 16u, 32u}) {
    SCOPED_TRACE(max_length);
    const auto lengths = random_complete_lengths(max_length, rng);
    const auto dec = huffman::Decoder::from_lengths(lengths);
    const auto symbols = draw_symbols(lengths, 2000, rng);
    io::BitWriter w;
    write_codes(lengths, symbols, w);
    const auto full = w.take();
    const auto bytes = exact(std::vector<std::uint8_t>(
        full.begin(), full.begin() + static_cast<std::ptrdiff_t>(full.size() * 3 / 4)));
    ASSERT_GE(bytes.size(), 16u);
    io::BitReader bulk(bytes);
    ASSERT_LE(symbols.size(), bulk.bits_remaining());
    EXPECT_THROW((void)dec.decode(bulk, symbols.size()), io::StreamError);
    io::BitReader single(bytes);
    const auto decode_each = [&] {
      for (std::size_t i = 0; i < symbols.size(); ++i) (void)dec.decode_symbol(single);
    };
    EXPECT_THROW(decode_each(), io::StreamError);
  }
}

TEST(HuffmanBulkDecode, UnassignedPatternMidWindowThrows) {
  // Drop one longest code from a complete code (Kraft sum below 1): the
  // all-ones pattern of the longest length is then no code's. Put it after
  // 100 valid symbols with 100 more behind it, so it falls inside a full
  // window; the decode must fail with a StreamError, not read on.
  std::mt19937_64 rng(23);
  for (const unsigned max_length : {1u, 2u, 7u, 10u, 11u, 13u, 20u, 32u}) {
    SCOPED_TRACE(max_length);
    auto lengths = random_complete_lengths(max_length, rng);
    *std::find(lengths.begin(), lengths.end(), max_length) = 0;
    const auto dec = huffman::Decoder::from_lengths(lengths);
    const auto before = draw_symbols(lengths, 100, rng);
    const auto after = draw_symbols(lengths, 100, rng);
    io::BitWriter w;
    write_codes(lengths, before, w);
    w.write_bits(~std::uint64_t{0}, max_length);
    write_codes(lengths, after, w);
    const auto bytes = exact(w.take());

    io::BitReader single(bytes);
    for (const std::uint32_t s : before) ASSERT_EQ(dec.decode_symbol(single), s);
    ASSERT_GE(single.bits_remaining(), 8u * 8u);
    EXPECT_THROW((void)dec.decode_symbol(single), io::StreamError);

    io::BitReader bulk(bytes);
    EXPECT_THROW((void)dec.decode(bulk, before.size() + 1 + after.size()),
                 io::StreamError);
  }
}
