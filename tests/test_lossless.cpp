// Unit and property tests for the lossless substrates: LZ77, DEFLATE-like
// coder, RLE, and the self-describing backend.
#include "io/bitstream.h"
#include "io/bytebuffer.h"
#include "lossless/backend.h"
#include "lossless/deflate.h"
#include "lossless/lz77.h"
#include "lossless/rle.h"

#include <gtest/gtest.h>

#include <numeric>
#include <random>
#include <string>

namespace lossless = fpsnr::lossless;
namespace io = fpsnr::io;

namespace {

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng());
  return v;
}

std::vector<std::uint8_t> repetitive_bytes(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint8_t> v;
  const std::string words[] = {"compression", "scientific", "data", "lossy",
                               "PSNR", " fixed ", "0000000000"};
  while (v.size() < n) {
    const auto& w = words[rng() % std::size(words)];
    v.insert(v.end(), w.begin(), w.end());
  }
  v.resize(n);
  return v;
}

}  // namespace

// ---- LZ77 ----------------------------------------------------------------

TEST(Lz77, LiteralOnlyInput) {
  const auto input = bytes_of("abcdefg");
  const auto tokens = lossless::tokenize(input);
  EXPECT_EQ(tokens.size(), input.size());
  for (const auto& t : tokens) EXPECT_EQ(t.kind, lossless::Token::Kind::Literal);
  EXPECT_EQ(lossless::detokenize(tokens), input);
}

TEST(Lz77, FindsRepeats) {
  const auto input = bytes_of("abcabcabcabcabcabc");
  const auto tokens = lossless::tokenize(input);
  bool has_match = false;
  for (const auto& t : tokens)
    if (t.kind == lossless::Token::Kind::Match) has_match = true;
  EXPECT_TRUE(has_match);
  EXPECT_LT(tokens.size(), input.size());
  EXPECT_EQ(lossless::detokenize(tokens), input);
}

TEST(Lz77, OverlappingMatchRunLengthStyle) {
  // "aaaa..." compresses to a literal + one overlapping match (dist 1).
  const std::vector<std::uint8_t> input(300, 'a');
  const auto tokens = lossless::tokenize(input);
  EXPECT_LE(tokens.size(), 4u);
  EXPECT_EQ(lossless::detokenize(tokens), input);
}

TEST(Lz77, EmptyInput) {
  const auto tokens = lossless::tokenize({});
  EXPECT_TRUE(tokens.empty());
  EXPECT_TRUE(lossless::detokenize(tokens).empty());
}

TEST(Lz77, MatchLengthBounds) {
  const std::vector<std::uint8_t> input(5000, 'x');
  for (const auto& t : lossless::tokenize(input)) {
    if (t.kind == lossless::Token::Kind::Match) {
      EXPECT_GE(t.length, lossless::kMinMatch);
      EXPECT_LE(t.length, lossless::kMaxMatch);
      EXPECT_GE(t.distance, 1u);
    }
  }
}

TEST(Lz77, BadDistanceThrows) {
  std::vector<lossless::Token> tokens = {
      lossless::Token::make_literal('a'),
      lossless::Token::make_match(5, 10),  // distance 10 > output size 1
  };
  EXPECT_THROW(lossless::detokenize(tokens), io::StreamError);
}

TEST(Lz77, BadLengthThrows) {
  std::vector<lossless::Token> tokens = {
      lossless::Token::make_literal('a'),
      lossless::Token::make_match(2, 1),  // below kMinMatch
  };
  EXPECT_THROW(lossless::detokenize(tokens), io::StreamError);
}

TEST(Lz77, LazyMatchingNotWorseThanGreedy) {
  const auto input = repetitive_bytes(20000, 5);
  lossless::MatcherConfig lazy;
  lazy.lazy_matching = true;
  lossless::MatcherConfig greedy;
  greedy.lazy_matching = false;
  const auto t_lazy = lossless::tokenize(input, lazy);
  const auto t_greedy = lossless::tokenize(input, greedy);
  EXPECT_EQ(lossless::detokenize(t_lazy), input);
  EXPECT_EQ(lossless::detokenize(t_greedy), input);
  EXPECT_LE(t_lazy.size(), t_greedy.size() + t_greedy.size() / 10);
}

// ---- DEFLATE symbol tables -------------------------------------------------

TEST(Deflate, LengthSymbolMappingInvertible) {
  for (unsigned len = lossless::kMinMatch; len <= lossless::kMaxMatch; ++len) {
    const auto s = lossless::length_to_symbol(len);
    EXPECT_GE(s.symbol, 257u);
    EXPECT_LE(s.symbol, 285u);
    const auto info = lossless::length_symbol_info(s.symbol);
    EXPECT_EQ(info.base + s.extra_value, len);
    EXPECT_LT(s.extra_value, 1u << info.extra_bits | 1u);
  }
}

TEST(Deflate, Length258HasDedicatedSymbol) {
  const auto s = lossless::length_to_symbol(258);
  EXPECT_EQ(s.symbol, 285u);
  EXPECT_EQ(s.extra_bits, 0u);
}

TEST(Deflate, DistanceSymbolMappingInvertible) {
  for (unsigned d = 1; d <= lossless::kWindowSize; d = d * 2 + 1) {
    const auto s = lossless::distance_to_symbol(d);
    EXPECT_LT(s.symbol, lossless::kDistAlphabet);
    const auto info = lossless::distance_symbol_info(s.symbol);
    EXPECT_EQ(info.base + s.extra_value, d);
  }
}

TEST(Deflate, OutOfRangeMappingThrows) {
  EXPECT_THROW(lossless::length_to_symbol(2), std::invalid_argument);
  EXPECT_THROW(lossless::length_to_symbol(259), std::invalid_argument);
  EXPECT_THROW(lossless::distance_to_symbol(0), std::invalid_argument);
  EXPECT_THROW(lossless::distance_to_symbol(40000), std::invalid_argument);
  EXPECT_THROW(lossless::length_symbol_info(100), std::invalid_argument);
  EXPECT_THROW(lossless::distance_symbol_info(30), std::invalid_argument);
}

// ---- DEFLATE round trips ---------------------------------------------------

TEST(Deflate, EmptyInput) {
  const auto c = lossless::deflate_compress({});
  EXPECT_TRUE(lossless::deflate_decompress(c).empty());
}

TEST(Deflate, ShortStrings) {
  for (const char* s : {"a", "ab", "abc", "hello world", "aaaa"}) {
    const auto input = bytes_of(s);
    EXPECT_EQ(lossless::deflate_decompress(lossless::deflate_compress(input)),
              input) << s;
  }
}

TEST(Deflate, RepetitiveTextCompressesWell) {
  const auto input = repetitive_bytes(100000, 1);
  const auto c = lossless::deflate_compress(input);
  EXPECT_LT(c.size(), input.size() / 3);
  EXPECT_EQ(lossless::deflate_decompress(c), input);
}

TEST(Deflate, RandomBytesRoundTripEvenIfIncompressible) {
  const auto input = random_bytes(50000, 2);
  const auto c = lossless::deflate_compress(input);
  EXPECT_EQ(lossless::deflate_decompress(c), input);
}

TEST(Deflate, TruncatedStreamThrows) {
  const auto input = repetitive_bytes(1000, 3);
  auto c = lossless::deflate_compress(input);
  c.resize(c.size() / 2);
  EXPECT_THROW(lossless::deflate_decompress(c), io::StreamError);
}

TEST(Deflate, SizeMismatchDetected) {
  const auto input = bytes_of("some sample data here");
  auto c = lossless::deflate_compress(input);
  // Corrupt the declared size varint (first byte, small value).
  c[0] = static_cast<std::uint8_t>(c[0] ^ 0x01);
  EXPECT_THROW(lossless::deflate_decompress(c), io::StreamError);
}

TEST(Deflate, HugeDeclaredSizeRejectedBeforeAllocating) {
  // A valid stream whose original_size varint is rewritten to 2^50: more
  // than its payload could expand to (258 bytes per coded bit).
  const auto input = repetitive_bytes(1000, 3);
  const auto c = lossless::deflate_compress(input);
  std::size_t varint_bytes = 0;
  while (c[varint_bytes] & 0x80u) ++varint_bytes;
  ++varint_bytes;
  io::ByteWriter w;
  w.put_varint(std::uint64_t{1} << 50);
  w.put_bytes(std::span<const std::uint8_t>(c).subspan(varint_bytes));
  EXPECT_THROW(lossless::deflate_decompress(w.buffer()), io::StreamError);
}

class DeflatePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(DeflatePropertyTest, RandomStructuredRoundTrip) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 977 + 13);
  // Mix of runs, repeated blocks, and noise.
  std::vector<std::uint8_t> input;
  const std::size_t target = 1000 + rng() % 30000;
  while (input.size() < target) {
    switch (rng() % 3) {
      case 0:
        input.insert(input.end(), 10 + rng() % 100,
                     static_cast<std::uint8_t>(rng()));
        break;
      case 1: {
        const std::size_t start = input.empty() ? 0 : rng() % input.size();
        const std::size_t len = std::min<std::size_t>(
            input.size() - start, 5 + rng() % 200);
        // self-copy (creates cross-references)
        for (std::size_t i = 0; i < len; ++i) input.push_back(input[start + i]);
        break;
      }
      default:
        for (int i = 0; i < 50; ++i)
          input.push_back(static_cast<std::uint8_t>(rng()));
    }
  }
  EXPECT_EQ(lossless::deflate_decompress(lossless::deflate_compress(input)), input);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeflatePropertyTest, ::testing::Range(0, 10));

// ---- RLE -------------------------------------------------------------------

TEST(Rle, RoundTripBasic) {
  for (const char* s : {"", "a", "aaaaaaa", "abababab", "aaabbbcccd"}) {
    const auto input = bytes_of(s);
    EXPECT_EQ(lossless::rle_decompress(lossless::rle_compress(input)), input) << s;
  }
}

TEST(Rle, LongRunsCompress) {
  const std::vector<std::uint8_t> input(100000, 0);
  const auto c = lossless::rle_compress(input);
  EXPECT_LT(c.size(), 2000u);
  EXPECT_EQ(lossless::rle_decompress(c), input);
}

TEST(Rle, RandomRoundTrip) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const auto input = random_bytes(10000 + seed * 997, seed);
    EXPECT_EQ(lossless::rle_decompress(lossless::rle_compress(input)), input);
  }
}

TEST(Rle, LiteralRunBoundary129Plus) {
  // Exercise max literal run splitting (128) and long repeats (129 cap).
  std::vector<std::uint8_t> input;
  for (int i = 0; i < 400; ++i) input.push_back(static_cast<std::uint8_t>(i));
  input.insert(input.end(), 400, 7);
  EXPECT_EQ(lossless::rle_decompress(lossless::rle_compress(input)), input);
}

TEST(Rle, TruncatedStreamThrows) {
  std::vector<std::uint8_t> bad = {0x05};  // literal run of 6, no payload
  EXPECT_THROW(lossless::rle_decompress(bad), io::StreamError);
  bad = {0x80 + 10};  // repeat run, missing payload byte
  EXPECT_THROW(lossless::rle_decompress(bad), io::StreamError);
}

// ---- backend ---------------------------------------------------------------

TEST(Backend, AllMethodsRoundTrip) {
  const auto input = repetitive_bytes(5000, 9);
  for (auto m : {lossless::Method::Store, lossless::Method::Rle,
                 lossless::Method::Deflate, lossless::Method::Auto}) {
    const auto c = lossless::backend_compress(input, m);
    EXPECT_EQ(lossless::backend_decompress(c), input)
        << lossless::method_name(m);
  }
}

TEST(Backend, SelfDescribingTag) {
  const auto input = bytes_of("data");
  const auto c = lossless::backend_compress(input, lossless::Method::Rle);
  EXPECT_EQ(lossless::backend_method(c), lossless::Method::Rle);
}

TEST(Backend, AutoPicksSmallest) {
  // Incompressible data: auto must fall back to Store (size + 1 tag byte).
  const auto noise = random_bytes(4096, 10);
  const auto c = lossless::backend_compress(noise, lossless::Method::Auto);
  EXPECT_EQ(lossless::backend_method(c), lossless::Method::Store);
  EXPECT_EQ(c.size(), noise.size() + 1);

  // Highly repetitive data: auto must do (much) better than store.
  const std::vector<std::uint8_t> runs(100000, 42);
  const auto c2 = lossless::backend_compress(runs, lossless::Method::Auto);
  EXPECT_LT(c2.size(), runs.size() / 10);
  EXPECT_EQ(lossless::backend_decompress(c2), runs);
}

TEST(Backend, EmptyAndUnknownTagThrow) {
  EXPECT_THROW(lossless::backend_decompress({}), io::StreamError);
  const std::vector<std::uint8_t> bad = {99, 1, 2, 3};
  EXPECT_THROW(lossless::backend_decompress(bad), io::StreamError);
}

TEST(Backend, MethodNames) {
  EXPECT_EQ(lossless::method_name(lossless::Method::Store), "store");
  EXPECT_EQ(lossless::method_name(lossless::Method::Deflate), "deflate");
}
