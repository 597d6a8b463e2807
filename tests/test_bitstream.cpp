// Unit tests for io::BitWriter / io::BitReader.
#include "io/bitstream.h"

#include <gtest/gtest.h>

#include <random>
#include <vector>

namespace io = fpsnr::io;

TEST(BitStream, SingleBitsRoundTrip) {
  io::BitWriter w;
  const bool pattern[] = {true, false, true, true, false, false, true, false, true};
  for (bool b : pattern) w.write_bit(b);
  const auto bytes = w.take();
  io::BitReader r(bytes);
  for (bool b : pattern) EXPECT_EQ(r.read_bit(), b);
}

TEST(BitStream, MultiBitValuesRoundTrip) {
  io::BitWriter w;
  w.write_bits(0b101, 3);
  w.write_bits(0xFFFF, 16);
  w.write_bits(0, 7);
  w.write_bits(0x123456789ABCDEFull, 60);
  const auto bytes = w.take();
  io::BitReader r(bytes);
  EXPECT_EQ(r.read_bits(3), 0b101u);
  EXPECT_EQ(r.read_bits(16), 0xFFFFu);
  EXPECT_EQ(r.read_bits(7), 0u);
  EXPECT_EQ(r.read_bits(60), 0x123456789ABCDEFull);
}

TEST(BitStream, ZeroBitWriteIsNoop) {
  io::BitWriter w;
  w.write_bits(0xFF, 0);
  EXPECT_EQ(w.bit_count(), 0u);
  w.write_bits(1, 1);
  EXPECT_EQ(w.bit_count(), 1u);
}

TEST(BitStream, ValueMaskedToWidth) {
  io::BitWriter w;
  w.write_bits(0xFF, 4);  // only low 4 bits kept
  const auto bytes = w.take();
  io::BitReader r(bytes);
  EXPECT_EQ(r.read_bits(4), 0xFu);
  EXPECT_EQ(r.read_bits(4), 0u);  // padding
}

TEST(BitStream, SixtyFourBitValue) {
  io::BitWriter w;
  w.write_bits(~0ull, 64);
  w.write_bits(0x8000000000000001ull, 64);
  const auto bytes = w.take();
  io::BitReader r(bytes);
  EXPECT_EQ(r.read_bits(64), ~0ull);
  EXPECT_EQ(r.read_bits(64), 0x8000000000000001ull);
}

TEST(BitStream, AlignToByte) {
  io::BitWriter w;
  w.write_bits(1, 1);
  w.align_to_byte();
  EXPECT_EQ(w.bit_count(), 8u);
  w.write_bits(0xAB, 8);
  const auto bytes = w.take();
  ASSERT_EQ(bytes.size(), 2u);
  EXPECT_EQ(bytes[1], 0xAB);
}

TEST(BitStream, WriteBytesRequiresAlignment) {
  io::BitWriter w;
  w.write_bit(true);
  const std::uint8_t raw[] = {1, 2, 3};
  EXPECT_THROW(w.write_bytes(raw), io::StreamError);
  w.align_to_byte();
  EXPECT_NO_THROW(w.write_bytes(raw));
}

TEST(BitStream, ReadPastEndThrows) {
  io::BitWriter w;
  w.write_bits(0x7, 3);
  const auto bytes = w.take();  // 1 byte after padding
  io::BitReader r(bytes);
  EXPECT_NO_THROW(r.read_bits(8));
  EXPECT_THROW(r.read_bits(1), io::StreamError);
}

TEST(BitStream, SkipAndReadBytesThatWrapAreRejected) {
  // Lengths near 2^64 must not wrap the position past the end check.
  const std::vector<std::uint8_t> bytes = {0xAB, 0xCD, 0xEF};
  io::BitReader skip(bytes);
  skip.skip_bits(8);
  EXPECT_THROW(skip.skip_bits(~std::size_t{0} - 3), io::StreamError);
  EXPECT_EQ(skip.bit_position(), 8u);
  io::BitReader raw(bytes);
  raw.skip_bits(8);
  EXPECT_THROW((void)raw.read_bytes(~std::size_t{0}), io::StreamError);
}

TEST(BitStream, ReadBytesRoundTrip) {
  io::BitWriter w;
  const std::uint8_t raw[] = {9, 8, 7, 6};
  w.write_bytes(raw);
  const auto bytes = w.take();
  io::BitReader r(bytes);
  const auto back = r.read_bytes(4);
  EXPECT_EQ(back, std::vector<std::uint8_t>({9, 8, 7, 6}));
  EXPECT_THROW(r.read_bytes(1), io::StreamError);
}

TEST(BitStream, BitPositionTracking) {
  io::BitWriter w;
  w.write_bits(0xFFFF, 13);
  const auto bytes = w.take();
  io::BitReader r(bytes);
  EXPECT_EQ(r.bit_size(), 16u);  // padded to 2 bytes
  r.read_bits(5);
  EXPECT_EQ(r.bit_position(), 5u);
  EXPECT_EQ(r.bits_remaining(), 11u);
}

TEST(BitStream, RandomizedRoundTrip) {
  std::mt19937_64 rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::pair<std::uint64_t, unsigned>> writes;
    io::BitWriter w;
    for (int i = 0; i < 500; ++i) {
      const unsigned nbits = static_cast<unsigned>(rng() % 64) + 1;
      const std::uint64_t value =
          nbits == 64 ? rng() : rng() & ((1ull << nbits) - 1);
      writes.emplace_back(value, nbits);
      w.write_bits(value, nbits);
    }
    const auto bytes = w.take();
    io::BitReader r(bytes);
    for (const auto& [value, nbits] : writes)
      ASSERT_EQ(r.read_bits(nbits), value);
  }
}

TEST(BitStream, TooWideWriteThrows) {
  io::BitWriter w;
  EXPECT_THROW(w.write_bits(0, 65), io::StreamError);
  io::BitReader r({});
  EXPECT_THROW(r.read_bits(65), io::StreamError);
}
