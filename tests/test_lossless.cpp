// Unit and property tests for the lossless substrates: LZ77, DEFLATE-like
// coder, RLE, and the self-describing backend.
#include "huffman/huffman.h"
#include "io/bitstream.h"
#include "io/bytebuffer.h"
#include "lossless/backend.h"
#include "lossless/deflate.h"
#include "lossless/lz77.h"
#include "lossless/rle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <string>

namespace huffman = fpsnr::huffman;
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

/// A deflate stream written straight from `tokens`, with no check that
/// they are consistent with `declared_size`: the container deflate_compress
/// writes (declared size, the two code tables, the coded tokens, end of
/// block), for streams the compressor would never produce.
std::vector<std::uint8_t> deflate_from_tokens(std::span<const lossless::Token> tokens,
                                              std::uint64_t declared_size) {
  std::vector<std::uint64_t> litlen_freq(lossless::kLitLenAlphabet, 0);
  std::vector<std::uint64_t> dist_freq(lossless::kDistAlphabet, 0);
  for (const auto& t : tokens) {
    if (t.kind == lossless::Token::Kind::Literal) {
      ++litlen_freq[t.literal];
    } else {
      ++litlen_freq[lossless::length_to_symbol(t.length).symbol];
      ++dist_freq[lossless::distance_to_symbol(t.distance).symbol];
    }
  }
  ++litlen_freq[lossless::kEndOfBlock];
  ++dist_freq[0];  // a distance table even for literal-only streams
  const auto litlen = huffman::Encoder::from_frequencies(litlen_freq);
  const auto dist = huffman::Encoder::from_frequencies(dist_freq);
  io::ByteWriter out;
  out.put_varint(declared_size);
  litlen.write_table(out);
  dist.write_table(out);
  io::BitWriter bits;
  for (const auto& t : tokens) {
    if (t.kind == lossless::Token::Kind::Literal) {
      litlen.encode_symbol(t.literal, bits);
      continue;
    }
    const auto ls = lossless::length_to_symbol(t.length);
    litlen.encode_symbol(ls.symbol, bits);
    bits.write_bits(ls.extra_value, ls.extra_bits);
    const auto ds = lossless::distance_to_symbol(t.distance);
    dist.encode_symbol(ds.symbol, bits);
    bits.write_bits(ds.extra_value, ds.extra_bits);
  }
  litlen.encode_symbol(lossless::kEndOfBlock, bits);
  out.put_blob(bits.take());
  return out.take();
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

TEST(Deflate, OverlappingDistanceOneMatchesOfLength258) {
  // A run decodes as one literal and distance-1 matches, each copying the
  // byte it just wrote; the longest (258) has its own symbol.
  std::vector<std::uint8_t> input(5000, 0x5A);
  input.push_back(0x01);
  input.insert(input.end(), 1000, 0x00);
  const auto tokens = lossless::tokenize(input);
  const auto is_run = [](const lossless::Token& t) {
    return t.kind == lossless::Token::Kind::Match && t.distance == 1 &&
           t.length == lossless::kMaxMatch;
  };
  ASSERT_GE(std::count_if(tokens.begin(), tokens.end(), is_run), 20);
  const auto c = lossless::deflate_compress(input);
  EXPECT_EQ(lossless::deflate_decompress(std::vector<std::uint8_t>(c.begin(), c.end())),
            input);

  // Short overlaps too: distance 1..4 under every length class.
  std::vector<lossless::Token> hand = {lossless::Token::make_literal(7),
                                       lossless::Token::make_literal(8),
                                       lossless::Token::make_literal(9),
                                       lossless::Token::make_literal(10)};
  std::vector<std::uint8_t> want = {7, 8, 9, 10};
  for (std::uint16_t length = 3; length <= lossless::kMaxMatch; length += 17)
    for (std::uint16_t distance = 1; distance <= 4; ++distance) {
      hand.push_back(lossless::Token::make_match(length, distance));
      for (std::uint16_t i = 0; i < length; ++i)
        want.push_back(want[want.size() - distance]);
    }
  EXPECT_EQ(lossless::detokenize(hand), want);
  EXPECT_EQ(lossless::deflate_decompress(deflate_from_tokens(hand, want.size())),
            want);
}

TEST(Deflate, ExtraBitsAtEveryWordOffsetRoundTrip) {
  // Matches of every length and distance class, 13 distance extra bits
  // included, in a stream long enough that their extra bits fall at every
  // bit offset of the 8-byte window and straddle its word boundaries.
  std::mt19937_64 rng(5);
  std::vector<std::uint8_t> input = random_bytes(lossless::kWindowSize, 6);
  std::size_t far_matches = 0;
  while (input.size() < 6 * lossless::kWindowSize) {
    const std::size_t length = lossless::kMinMatch + rng() % (lossless::kMaxMatch - 2);
    const std::size_t distance = 1 + rng() % lossless::kWindowSize;
    far_matches += distance > 16384;
    for (std::size_t i = 0; i < length; ++i)
      input.push_back(input[input.size() - distance]);
    for (std::size_t i = rng() % 4; i > 0; --i)
      input.push_back(static_cast<std::uint8_t>(rng()));
  }
  ASSERT_GT(far_matches, 300u);
  const auto c = lossless::deflate_compress(input);
  EXPECT_EQ(lossless::deflate_decompress(c), input);
}

TEST(Deflate, BackReferenceBeforeTheOutputStartThrows) {
  const std::vector<lossless::Token> first = {lossless::Token::make_match(3, 1)};
  EXPECT_THROW(lossless::deflate_decompress(deflate_from_tokens(first, 3)),
               io::StreamError);
  const std::vector<lossless::Token> past = {
      lossless::Token::make_literal(1), lossless::Token::make_literal(2),
      lossless::Token::make_match(4, 3)};
  EXPECT_THROW(lossless::deflate_decompress(deflate_from_tokens(past, 6)),
               io::StreamError);
}

TEST(Deflate, OutputPastTheDeclaredSizeThrows) {
  // The output is sized to the declared size; a literal or a match that
  // would write past it is rejected before it writes (a sanitized build
  // would flag the write otherwise).
  const std::vector<lossless::Token> literals = {
      lossless::Token::make_literal(1), lossless::Token::make_literal(2),
      lossless::Token::make_literal(3)};
  EXPECT_THROW(lossless::deflate_decompress(deflate_from_tokens(literals, 2)),
               io::StreamError);
  const std::vector<lossless::Token> match = {
      lossless::Token::make_literal(1), lossless::Token::make_literal(2),
      lossless::Token::make_match(258, 2)};
  EXPECT_THROW(lossless::deflate_decompress(deflate_from_tokens(match, 259)),
               io::StreamError);
  EXPECT_EQ(lossless::deflate_decompress(deflate_from_tokens(match, 260)).size(), 260u);
  // Fewer bytes than declared is a mismatch too.
  EXPECT_THROW(lossless::deflate_decompress(deflate_from_tokens(match, 261)),
               io::StreamError);
}

TEST(Deflate, SymbolsOutsideTheDeflateAlphabetsAreStreamErrors) {
  // The tables are read from the stream, so a corrupted one may code a
  // length symbol above 285 or a distance symbol above 29; decoding it is
  // a malformed stream, not an argument error.
  const auto stream = [](std::uint32_t litlen_symbol, std::uint32_t dist_symbol) {
    std::vector<std::uint64_t> litlen_freq(300, 0), dist_freq(40, 0);
    litlen_freq['a'] = litlen_freq[litlen_symbol] = litlen_freq[lossless::kEndOfBlock] = 1;
    dist_freq[dist_symbol] = dist_freq[0] = 1;
    const auto litlen = huffman::Encoder::from_frequencies(litlen_freq);
    const auto dist = huffman::Encoder::from_frequencies(dist_freq);
    io::ByteWriter out;
    out.put_varint(10);
    litlen.write_table(out);
    dist.write_table(out);
    io::BitWriter bits;
    litlen.encode_symbol('a', bits);
    litlen.encode_symbol(litlen_symbol, bits);  // length 3 when <= 285
    dist.encode_symbol(dist_symbol, bits);      // distance 1 when 0
    litlen.encode_symbol(lossless::kEndOfBlock, bits);
    out.put_blob(bits.take());
    return out.take();
  };
  EXPECT_THROW(lossless::deflate_decompress(stream(290, 0)), io::StreamError);
  EXPECT_THROW(lossless::deflate_decompress(stream(257, 35)), io::StreamError);
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
