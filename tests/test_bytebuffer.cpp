// Unit tests for io::ByteWriter / io::ByteReader.
#include "io/bytebuffer.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

namespace io = fpsnr::io;

TEST(ByteBuffer, ScalarsRoundTrip) {
  io::ByteWriter w;
  w.put<std::uint8_t>(0xAB);
  w.put<std::uint32_t>(0xDEADBEEF);
  w.put<std::uint64_t>(0x0123456789ABCDEFull);
  w.put<double>(3.14159);
  w.put<float>(-2.5f);
  const auto buf = w.take();
  io::ByteReader r(buf);
  EXPECT_EQ(r.get<std::uint8_t>(), 0xAB);
  EXPECT_EQ(r.get<std::uint32_t>(), 0xDEADBEEFu);
  EXPECT_EQ(r.get<std::uint64_t>(), 0x0123456789ABCDEFull);
  EXPECT_DOUBLE_EQ(r.get<double>(), 3.14159);
  EXPECT_FLOAT_EQ(r.get<float>(), -2.5f);
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteBuffer, LittleEndianLayout) {
  io::ByteWriter w;
  w.put<std::uint32_t>(0x04030201);
  const auto buf = w.buffer();
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf[0], 1);
  EXPECT_EQ(buf[1], 2);
  EXPECT_EQ(buf[2], 3);
  EXPECT_EQ(buf[3], 4);
}

TEST(ByteBuffer, VarintBoundaries) {
  const std::uint64_t cases[] = {0,   1,    127,        128,
                                 129, 300,  16383,      16384,
                                 ~0ull, 1ull << 63, 0xFFFFFFFFull};
  io::ByteWriter w;
  for (std::uint64_t v : cases) w.put_varint(v);
  const auto buf = w.take();
  io::ByteReader r(buf);
  for (std::uint64_t v : cases) EXPECT_EQ(r.get_varint(), v);
}

TEST(ByteBuffer, VarintSizes) {
  io::ByteWriter w;
  w.put_varint(127);
  EXPECT_EQ(w.size(), 1u);
  w.put_varint(128);
  EXPECT_EQ(w.size(), 3u);  // 1 + 2
}

TEST(ByteBuffer, BlobRoundTrip) {
  io::ByteWriter w;
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  w.put_blob(payload);
  w.put_blob({});  // empty blob is legal
  const auto buf = w.take();
  io::ByteReader r(buf);
  EXPECT_EQ(r.get_blob(), payload);
  EXPECT_TRUE(r.get_blob().empty());
}

TEST(ByteBuffer, BlobViewDoesNotCopy) {
  io::ByteWriter w;
  const std::vector<std::uint8_t> payload = {7, 8, 9};
  w.put_blob(payload);
  const auto buf = w.take();
  io::ByteReader r(buf);
  const auto view = r.get_blob_view();
  EXPECT_EQ(view.size(), 3u);
  EXPECT_GE(view.data(), buf.data());
  EXPECT_LT(view.data(), buf.data() + buf.size());
}

TEST(ByteBuffer, ReadPastEndThrows) {
  io::ByteWriter w;
  w.put<std::uint16_t>(7);
  const auto buf = w.take();
  io::ByteReader r(buf);
  EXPECT_THROW(r.get<std::uint32_t>(), io::StreamError);
}

TEST(ByteBuffer, TruncatedBlobThrows) {
  io::ByteWriter w;
  w.put<std::uint64_t>(100);  // declared length 100, no payload
  const auto buf = w.take();
  io::ByteReader r(buf);
  EXPECT_THROW(r.get_blob(), io::StreamError);
}

TEST(ByteBuffer, TruncatedVarintThrows) {
  const std::uint8_t truncated[] = {0x80};  // continuation bit, no next byte
  io::ByteReader r(truncated);
  EXPECT_THROW(r.get_varint(), io::StreamError);
}

TEST(ByteBuffer, OverlongVarintThrows) {
  // 11 bytes of continuation would encode > 64 bits.
  std::vector<std::uint8_t> bad(11, 0xFF);
  bad.back() = 0x7F;
  io::ByteReader r(bad);
  EXPECT_THROW(r.get_varint(), io::StreamError);
}

TEST(ByteBuffer, PositionAndRemaining) {
  io::ByteWriter w;
  w.put<std::uint32_t>(1);
  w.put<std::uint32_t>(2);
  const auto buf = w.take();
  io::ByteReader r(buf);
  EXPECT_EQ(r.remaining(), 8u);
  r.get<std::uint32_t>();
  EXPECT_EQ(r.position(), 4u);
  EXPECT_EQ(r.remaining(), 4u);
  EXPECT_FALSE(r.exhausted());
}

TEST(ByteBuffer, RandomizedVarintRoundTrip) {
  std::mt19937_64 rng(7);
  io::ByteWriter w;
  std::vector<std::uint64_t> values(2000);
  for (auto& v : values) {
    const unsigned width = static_cast<unsigned>(rng() % 64) + 1;
    v = rng() & ((width == 64) ? ~0ull : ((1ull << width) - 1));
    w.put_varint(v);
  }
  const auto buf = w.take();
  io::ByteReader r(buf);
  for (std::uint64_t v : values) ASSERT_EQ(r.get_varint(), v);
}

TEST(ByteBuffer, BlobLengthThatWrapsIsRejected) {
  // A u64 blob length of 2^64-16 at offset 8 of a 24-byte buffer: with a
  // `pos + n > size` check the sum wraps and the read is accepted.
  io::ByteWriter w;
  w.put<std::uint64_t>(1);
  w.put<std::uint64_t>(~std::uint64_t{0} - 15);
  w.put<std::uint64_t>(2);
  const auto buf = w.take();
  ASSERT_EQ(buf.size(), 24u);
  io::ByteReader r(buf);
  EXPECT_EQ(r.get<std::uint64_t>(), 1u);
  EXPECT_THROW((void)r.get_blob_view(), io::StreamError);
  io::ByteReader again(buf);
  again.get<std::uint64_t>();
  EXPECT_THROW((void)again.get_blob(), io::StreamError);
  io::ByteReader raw(buf);
  raw.get<std::uint64_t>();
  EXPECT_THROW((void)raw.get_bytes(~std::size_t{0} - 7), io::StreamError);
}

TEST(ByteBuffer, StringRoundTripWithU32Prefix) {
  io::ByteWriter w;
  w.put_string("abc");
  w.put_string("");
  const auto buf = w.take();
  const std::vector<std::uint8_t> expected = {3, 0, 0, 0, 'a', 'b', 'c',
                                              0, 0, 0, 0};
  EXPECT_EQ(buf, expected);
  io::ByteReader r(buf);
  EXPECT_EQ(r.get_string(), "abc");
  EXPECT_EQ(r.get_string(), "");
  EXPECT_NO_THROW(r.expect_end());
}

TEST(ByteBuffer, TruncatedStringThrows) {
  io::ByteWriter w;
  w.put<std::uint32_t>(0xFFFFFFFFu);  // claims 4 GiB, carries 2 bytes
  w.put<std::uint16_t>(0x4141);
  const auto buf = w.take();
  io::ByteReader r(buf);
  EXPECT_THROW((void)r.get_string(), io::StreamError);
}

TEST(ByteBuffer, CountRejectsClaimsLargerThanTheInput) {
  const std::vector<std::uint8_t> buf(16, 0);
  io::ByteReader r(buf);
  EXPECT_EQ(r.count(0, 8), 0u);
  EXPECT_EQ(r.count(2, 8), 2u);
  EXPECT_EQ(r.count(16, 1), 16u);
  EXPECT_THROW((void)r.count(3, 8), io::StreamError);
  // n * 8 wraps to 8 here; the check must not multiply.
  EXPECT_THROW((void)r.count((std::uint64_t{1} << 61) + 1, 8), io::StreamError);
  EXPECT_THROW((void)r.count(std::numeric_limits<std::uint64_t>::max(), 1),
               io::StreamError);
  EXPECT_EQ(r.position(), 0u);  // count() reads nothing
}

TEST(ByteBuffer, ArrayRoundTripAndHugeArrayClaimRejected) {
  const std::vector<double> values = {1.5, -2.25, 1e300};
  io::ByteWriter w;
  w.put_bytes(io::bytes_of(std::span<const double>(values)));
  const auto buf = w.take();
  io::ByteReader r(buf);
  EXPECT_EQ(r.get_array<double>(3), values);
  EXPECT_NO_THROW(r.expect_end());

  io::ByteReader short_read(buf);
  EXPECT_THROW((void)short_read.get_array<double>(4), io::StreamError);
  io::ByteReader huge(buf);
  EXPECT_THROW((void)huge.get_array<double>(std::uint64_t{1} << 59),
               io::StreamError);
}

TEST(ByteBuffer, ExpectEndRejectsTrailingBytes) {
  const std::vector<std::uint8_t> buf = {1, 2, 3};
  io::ByteReader r(buf);
  r.get<std::uint16_t>();
  EXPECT_THROW(r.expect_end(), io::StreamError);
  r.get<std::uint8_t>();
  EXPECT_NO_THROW(r.expect_end());
}
