// Unit and property tests for the canonical Huffman coder.
#include "huffman/huffman.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <random>

namespace huffman = fpsnr::huffman;
namespace io = fpsnr::io;

namespace {

std::vector<std::uint32_t> round_trip(std::span<const std::uint32_t> symbols,
                                      std::uint32_t alphabet) {
  const auto enc = huffman::Encoder::from_symbols(symbols, alphabet);
  io::ByteWriter table;
  enc.write_table(table);
  io::BitWriter bits;
  enc.encode(symbols, bits);
  const auto table_bytes = table.take();
  const auto payload = bits.take();

  io::ByteReader table_reader(table_bytes);
  const auto dec = huffman::Decoder::read_table(table_reader);
  io::BitReader bit_reader(payload);
  return dec.decode(bit_reader, symbols.size());
}

}  // namespace

TEST(Huffman, KraftEqualityForOptimalCodes) {
  const std::vector<std::uint64_t> freq = {5, 9, 12, 13, 16, 45};
  const auto lengths = huffman::build_code_lengths(freq);
  double kraft = 0.0;
  for (std::uint8_t L : lengths)
    if (L > 0) kraft += std::pow(2.0, -static_cast<double>(L));
  EXPECT_NEAR(kraft, 1.0, 1e-12);
}

TEST(Huffman, ClassicTextbookLengths) {
  // Frequencies 5,9,12,13,16,45 give the canonical Huffman example:
  // symbol with f=45 gets 1 bit, the rest 3-4 bits.
  const std::vector<std::uint64_t> freq = {5, 9, 12, 13, 16, 45};
  const auto lengths = huffman::build_code_lengths(freq);
  EXPECT_EQ(lengths[5], 1);
  EXPECT_EQ(lengths[0], 4);
  EXPECT_EQ(lengths[1], 4);
  // Total weighted length is the known optimum (224).
  std::uint64_t cost = 0;
  for (std::size_t i = 0; i < freq.size(); ++i) cost += freq[i] * lengths[i];
  EXPECT_EQ(cost, 224u);
}

TEST(Huffman, CanonicalCodesArePrefixFree) {
  const std::vector<std::uint64_t> freq = {1, 1, 2, 3, 5, 8, 13, 21};
  const auto lengths = huffman::build_code_lengths(freq);
  const auto codes = huffman::canonical_codes(lengths);
  for (std::size_t i = 0; i < codes.size(); ++i) {
    for (std::size_t j = 0; j < codes.size(); ++j) {
      if (i == j || lengths[i] == 0 || lengths[j] == 0) continue;
      if (lengths[i] <= lengths[j]) {
        // code_i must not be a prefix of code_j
        const std::uint32_t prefix = codes[j] >> (lengths[j] - lengths[i]);
        EXPECT_FALSE(prefix == codes[i] && i != j && lengths[i] < lengths[j])
            << "code " << i << " is a prefix of code " << j;
      }
    }
  }
}

TEST(Huffman, SingleSymbolAlphabet) {
  const std::vector<std::uint32_t> symbols(100, 7);
  const auto back = round_trip(symbols, 16);
  EXPECT_EQ(back, symbols);
}

TEST(Huffman, EmptyStream) {
  const std::vector<std::uint32_t> symbols;
  const auto enc = huffman::Encoder::from_symbols(symbols, 8);
  io::BitWriter bits;
  enc.encode(symbols, bits);
  EXPECT_EQ(bits.bit_count(), 0u);
}

TEST(Huffman, TwoSymbols) {
  std::vector<std::uint32_t> symbols;
  for (int i = 0; i < 50; ++i) symbols.push_back(i % 2);
  EXPECT_EQ(round_trip(symbols, 2), symbols);
}

TEST(Huffman, SkewedDistributionCompresses) {
  std::mt19937_64 rng(3);
  std::vector<std::uint32_t> symbols;
  for (int i = 0; i < 10000; ++i)
    symbols.push_back(rng() % 100 < 90 ? 0 : 1 + rng() % 255);
  const auto enc = huffman::Encoder::from_symbols(symbols, 256);
  // ~90% of symbols should use a 1-bit code => ~0.9*1 + 0.1*~9 bits avg.
  const double bits_per_symbol =
      static_cast<double>(enc.encoded_bits(symbols)) / symbols.size();
  EXPECT_LT(bits_per_symbol, 2.5);
  EXPECT_EQ(round_trip(symbols, 256), symbols);
}

TEST(Huffman, LengthLimitRespected) {
  // Fibonacci-like frequencies force very skewed optimal lengths; cap at 8.
  std::vector<std::uint64_t> freq(30);
  std::uint64_t a = 1, b = 1;
  for (auto& f : freq) {
    f = a;
    const std::uint64_t c = a + b;
    a = b;
    b = c;
  }
  const auto lengths = huffman::build_code_lengths(freq, 8);
  double kraft = 0.0;
  for (std::uint8_t L : lengths) {
    EXPECT_LE(L, 8);
    EXPECT_GE(L, 1);  // all symbols had nonzero frequency
    kraft += std::pow(2.0, -static_cast<double>(L));
  }
  EXPECT_LE(kraft, 1.0 + 1e-12);
}

TEST(Huffman, LengthLimitedStillDecodes) {
  std::vector<std::uint64_t> freq(64);
  std::uint64_t f = 1;
  for (auto& x : freq) {
    x = f;
    f = f * 3 / 2 + 1;
  }
  std::mt19937_64 rng(17);
  std::vector<std::uint32_t> symbols;
  for (int i = 0; i < 5000; ++i)
    symbols.push_back(static_cast<std::uint32_t>(rng() % 64));
  const auto enc = huffman::Encoder::from_frequencies(freq, 10);
  io::ByteWriter table;
  enc.write_table(table);
  io::BitWriter bits;
  enc.encode(symbols, bits);
  const auto tb = table.take();
  io::ByteReader tr(tb);
  const auto dec = huffman::Decoder::read_table(tr);
  const auto payload = bits.take();
  io::BitReader br(payload);
  EXPECT_EQ(dec.decode(br, symbols.size()), symbols);
}

TEST(Huffman, LargeAlphabetRoundTrip) {
  // SZ uses 65536 quantization codes; exercise a large, sparse alphabet.
  std::mt19937_64 rng(23);
  std::normal_distribution<double> gauss(32768.0, 40.0);
  std::vector<std::uint32_t> symbols;
  for (int i = 0; i < 20000; ++i) {
    const double x = std::clamp(gauss(rng), 0.0, 65535.0);
    symbols.push_back(static_cast<std::uint32_t>(x));
  }
  EXPECT_EQ(round_trip(symbols, 65536), symbols);
}

TEST(Huffman, EncodeUnknownSymbolThrows) {
  const std::vector<std::uint32_t> symbols = {0, 1, 0};
  const auto enc = huffman::Encoder::from_symbols(symbols, 4);
  io::BitWriter bits;
  EXPECT_THROW(enc.encode_symbol(3, bits), std::invalid_argument);  // freq 0
  EXPECT_THROW(enc.encode_symbol(99, bits), std::invalid_argument);
}

TEST(Huffman, SymbolOutOfAlphabetThrows) {
  const std::vector<std::uint32_t> symbols = {0, 9};
  EXPECT_THROW(huffman::Encoder::from_symbols(symbols, 4), std::invalid_argument);
}

namespace {

/// from_symbols builds over the used range only; its table bytes, code
/// lengths and encoded bits must equal a dense from_frequencies build.
void expect_range_build_matches_dense(std::span<const std::uint32_t> symbols,
                                      std::uint32_t alphabet,
                                      unsigned max_length) {
  std::vector<std::uint64_t> freq(alphabet, 0);
  for (const std::uint32_t s : symbols) ++freq[s];
  const auto dense = huffman::Encoder::from_frequencies(freq, max_length);
  const auto range = huffman::Encoder::from_symbols(symbols, alphabet,
                                                    max_length);
  EXPECT_EQ(range.alphabet_size(), dense.alphabet_size());
  EXPECT_EQ(range.lengths(), dense.lengths());
  io::ByteWriter dense_table, range_table;
  dense.write_table(dense_table);
  range.write_table(range_table);
  EXPECT_EQ(range_table.buffer(), dense_table.buffer());
  // Start both streams at a non-zero bit offset.
  io::BitWriter dense_bits, range_bits;
  dense_bits.write_bits(0x5, 3);
  range_bits.write_bits(0x5, 3);
  dense.encode(symbols, dense_bits);
  range.encode(symbols, range_bits);
  EXPECT_EQ(range_bits.take(), dense_bits.take());
  EXPECT_EQ(range.encoded_bits(symbols), dense.encoded_bits(symbols));
  for (const std::uint32_t s : {0u, alphabet / 2, alphabet - 1}) {
    if (s < alphabet) {
      EXPECT_EQ(range.code_length(s), dense.code_length(s));
    }
  }
  EXPECT_THROW((void)range.code_length(alphabet), std::out_of_range);
}

}  // namespace

TEST(Huffman, RangeBuildAtTheAlphabetEdges) {
  std::mt19937_64 rng(41);
  std::vector<std::uint32_t> low, high, both;
  for (int i = 0; i < 3000; ++i) {
    const auto s = static_cast<std::uint32_t>(rng() % 40);
    low.push_back(s);                 // lo == 0
    high.push_back(65535u - s);       // hi == alphabet - 1
    both.push_back(i % 2 ? s : 65535u - s);
  }
  expect_range_build_matches_dense(low, 65536, huffman::kMaxCodeLength);
  expect_range_build_matches_dense(high, 65536, huffman::kMaxCodeLength);
  expect_range_build_matches_dense(both, 65536, huffman::kMaxCodeLength);
}

TEST(Huffman, RangeBuildOfFewSymbols) {
  const std::vector<std::uint32_t> one(17, 32768);
  const std::vector<std::uint32_t> two = {32768, 32770, 32770, 32768, 32770};
  const std::vector<std::uint32_t> none;
  expect_range_build_matches_dense(one, 65536, huffman::kMaxCodeLength);
  expect_range_build_matches_dense(two, 65536, huffman::kMaxCodeLength);
  expect_range_build_matches_dense(none, 65536, huffman::kMaxCodeLength);
  expect_range_build_matches_dense(none, 1, huffman::kMaxCodeLength);
}

TEST(Huffman, RangeBuildUnderLengthLimitRepair) {
  // Fibonacci counts on 30 symbols from 1000 up: the optimal code is far
  // deeper than 10 bits, so the cap forces the length-limit repair.
  std::vector<std::uint32_t> symbols;
  std::uint64_t a = 1, b = 1;
  for (std::uint32_t k = 0; k < 30; ++k) {
    for (std::uint64_t i = 0; i < a; ++i) symbols.push_back(1000 + k);
    const std::uint64_t c = a + b;
    a = b;
    b = c;
  }
  const auto uncapped = huffman::Encoder::from_symbols(symbols, 65536);
  EXPECT_GT(uncapped.code_length(1000), 10u);
  const auto capped = huffman::Encoder::from_symbols(symbols, 65536, 10);
  EXPECT_EQ(capped.code_length(1000), 10u);
  expect_range_build_matches_dense(symbols, 65536, 10);
}

TEST(Huffman, RangeBuildUnusedSymbolsHaveNoCode) {
  const std::vector<std::uint32_t> symbols = {200, 205, 205, 300};
  const auto enc = huffman::Encoder::from_symbols(symbols, 1024);
  EXPECT_EQ(enc.alphabet_size(), 1024u);
  EXPECT_EQ(enc.code_length(0), 0u);      // below the used range
  EXPECT_EQ(enc.code_length(201), 0u);    // a gap inside it
  EXPECT_EQ(enc.code_length(1023), 0u);   // above it
  EXPECT_GT(enc.code_length(205), 0u);
  EXPECT_THROW((void)enc.code_length(1024), std::out_of_range);
  io::BitWriter bits;
  for (const std::uint32_t s : {0u, 199u, 201u, 301u, 5000u})
    EXPECT_THROW(enc.encode_symbol(s, bits), std::invalid_argument);
  for (const std::uint32_t bad : {199u, 201u, 301u}) {
    const std::vector<std::uint32_t> stream = {205, bad};
    EXPECT_THROW(enc.encode(stream, bits), std::invalid_argument);
    EXPECT_THROW((void)enc.encoded_bits(stream), std::invalid_argument);
  }
}

TEST(Huffman, TableSerializationIsCompact) {
  // A dense run of equal lengths should RLE well: alphabet 65536 with two
  // used symbols must serialize to a handful of bytes, not 65 KB.
  std::vector<std::uint64_t> freq(65536, 0);
  freq[100] = 10;
  freq[200] = 20;
  const auto enc = huffman::Encoder::from_frequencies(freq);
  io::ByteWriter table;
  enc.write_table(table);
  EXPECT_LT(table.size(), 64u);
}

TEST(Huffman, CorruptTableRejected) {
  io::ByteWriter w;
  w.put_varint(10);        // alphabet 10
  w.put_varint(20);        // run longer than alphabet
  w.put<std::uint8_t>(3);
  const auto buf = w.take();
  io::ByteReader r(buf);
  EXPECT_THROW(huffman::Decoder::read_table(r), io::StreamError);
}

TEST(Huffman, OverlongCodeLengthRejected) {
  io::ByteWriter w;
  w.put_varint(2);
  w.put_varint(2);
  w.put<std::uint8_t>(60);  // > kMaxCodeLength
  const auto buf = w.take();
  io::ByteReader r(buf);
  EXPECT_THROW(huffman::Decoder::read_table(r), io::StreamError);
}

TEST(Huffman, HugeAlphabetClaimRejectedBeforeAllocating) {
  // Eight bytes that claim 2^40 code lengths: a StreamError, not an
  // attempt to reserve a terabyte.
  io::ByteWriter w;
  w.put_varint(std::uint64_t{1} << 40);
  w.put_varint(1);
  w.put<std::uint8_t>(3);
  const auto buf = w.take();
  ASSERT_EQ(buf.size(), 8u);
  io::ByteReader r(buf);
  EXPECT_THROW(huffman::Decoder::read_table(r), io::StreamError);
}

TEST(Huffman, RunPastTheKraftBudgetRejected) {
  // 2^32-1 codes of length 5: only 32 fit. Rejected from the run itself,
  // before anything is sized per symbol.
  io::ByteWriter w;
  w.put_varint((std::uint64_t{1} << 32) - 1);
  w.put_varint((std::uint64_t{1} << 32) - 1);
  w.put<std::uint8_t>(5);
  const auto buf = w.take();
  io::ByteReader r(buf);
  EXPECT_THROW(huffman::Decoder::read_table(r), io::StreamError);
}

TEST(Huffman, LongZeroRunIsNotMaterialised) {
  // One coded symbol after a zero run of 2^32-2: a valid table whose only
  // code is '0' for the last symbol.
  const std::uint32_t last = 0xFFFFFFFEu;
  io::ByteWriter w;
  w.put_varint(std::uint64_t{last} + 1);
  w.put_varint(last);
  w.put<std::uint8_t>(0);
  w.put_varint(1);
  w.put<std::uint8_t>(1);
  const auto buf = w.take();
  io::ByteReader r(buf);
  const auto dec = huffman::Decoder::read_table(r);
  EXPECT_TRUE(r.exhausted());
  const std::vector<std::uint8_t> zeros = {0x00};
  io::BitReader br(zeros);
  EXPECT_EQ(dec.decode_symbol(br), last);
}

TEST(Huffman, DecodeCountBeyondTheBitsLeftRejected) {
  // Every code is at least one bit: 2^60 symbols cannot come out of one
  // byte, and the claim must fail before the output is reserved.
  const std::vector<std::uint8_t> lengths = {1, 1};
  const auto dec = huffman::Decoder::from_lengths(lengths);
  const std::vector<std::uint8_t> one_byte = {0x5a};
  io::BitReader br(one_byte);
  EXPECT_THROW((void)dec.decode(br, std::size_t{1} << 60), io::StreamError);
  io::BitReader again(one_byte);
  EXPECT_EQ(dec.decode(again, 8).size(), 8u);
}

TEST(Huffman, LongCodesDecodeThroughRuns) {
  // Symbols 0..19 get lengths 1..20, leaving 2^-20 of the Kraft budget for
  // four length-22 codes split into runs by zero gaps (100-101, 200, 300).
  // Codes longer than the decoder's listed range resolve through runs.
  std::vector<std::uint8_t> lengths(301, 0);
  for (std::uint32_t s = 0; s < 20; ++s)
    lengths[s] = static_cast<std::uint8_t>(s + 1);
  for (const std::uint32_t s : {100u, 101u, 200u, 300u}) lengths[s] = 22;
  const auto codes = huffman::canonical_codes(lengths);
  std::vector<std::uint32_t> symbols;
  for (std::uint32_t s = 0; s < lengths.size(); ++s)
    if (lengths[s] > 0) symbols.push_back(s);
  std::reverse(symbols.begin(), symbols.end());
  io::BitWriter bits;
  for (const std::uint32_t s : symbols) {
    std::uint32_t reversed = 0;  // codes go out bit-reversed, LSB first
    for (unsigned b = 0; b < lengths[s]; ++b)
      reversed |= ((codes[s] >> b) & 1u) << (lengths[s] - 1 - b);
    bits.write_bits(reversed, lengths[s]);
  }
  const auto payload = bits.take();

  io::BitReader direct(payload);
  EXPECT_EQ(huffman::Decoder::from_lengths(lengths).decode(direct,
                                                            symbols.size()),
            symbols);
  io::ByteWriter rle;  // the same lengths as a serialized table
  rle.put_varint(lengths.size());
  for (std::size_t i = 0; i < lengths.size();) {
    std::size_t j = i;
    while (j < lengths.size() && lengths[j] == lengths[i]) ++j;
    rle.put_varint(j - i);
    rle.put<std::uint8_t>(lengths[i]);
    i = j;
  }
  io::ByteReader r(rle.buffer());
  io::BitReader from_table(payload);
  EXPECT_EQ(huffman::Decoder::read_table(r).decode(from_table, symbols.size()),
            symbols);
}

TEST(Huffman, KraftViolationRejected) {
  // Three codes of length 1 cannot coexist.
  const std::vector<std::uint8_t> bad_lengths = {1, 1, 1};
  EXPECT_THROW(huffman::Decoder::from_lengths(bad_lengths), io::StreamError);
}

TEST(Huffman, GarbageBitstreamThrows) {
  const std::vector<std::uint8_t> lengths = {2, 2, 2};  // incomplete code set
  const auto dec = huffman::Decoder::from_lengths(lengths);
  const std::vector<std::uint8_t> garbage = {0xFF, 0xFF};
  io::BitReader br(garbage);
  // 0b11 is not an assigned code (only 00,01,10 exist).
  EXPECT_THROW({ for (int i = 0; i < 8; ++i) dec.decode_symbol(br); },
               io::StreamError);
}

// Property sweep: random alphabets and streams always round-trip.
class HuffmanPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(HuffmanPropertyTest, RandomRoundTrip) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()));
  const std::uint32_t alphabet = 2 + static_cast<std::uint32_t>(rng() % 1000);
  const std::size_t n = 1 + rng() % 5000;
  std::vector<std::uint32_t> symbols(n);
  // Zipf-ish skew to exercise varied code lengths.
  for (auto& s : symbols) {
    const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    s = static_cast<std::uint32_t>(alphabet * u * u * u) % alphabet;
  }
  EXPECT_EQ(round_trip(symbols, alphabet), symbols);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HuffmanPropertyTest, ::testing::Range(0, 12));
