// Container-format and corruption-robustness tests.
#include "sz/stream_format.h"

#include <gtest/gtest.h>

#include <random>

#include "data/synth.h"
#include "sz/codec.h"

namespace sz = fpsnr::sz;
namespace data = fpsnr::data;
namespace io = fpsnr::io;

namespace {

std::vector<std::uint8_t> sample_stream(sz::CompressionInfo* info = nullptr) {
  const data::Dims dims{32, 32};
  const auto values = data::smoothed_noise(dims, 4, 2, 2);
  sz::Params params;
  params.mode = sz::ErrorBoundMode::ValueRangeRelative;
  params.bound = 1e-4;
  return sz::compress<float>(values, dims, params, info);
}

}  // namespace

TEST(StreamFormat, HeaderRoundTrip) {
  sz::StreamHeader h;
  h.scalar = sz::ScalarType::Float64;
  h.mode = sz::ErrorBoundMode::PointwiseRelative;
  h.dims = data::Dims{10, 20, 30};
  h.eb_abs = 1.5e-7;
  h.user_bound = 1e-3;
  h.value_range = 42.0;
  h.quant_bins = 4096;
  h.pwrel_zero_floor = 1e-20;

  io::ByteWriter w;
  sz::write_header(h, w);
  const auto buf = w.take();
  io::ByteReader r(buf);
  const auto back = sz::read_header(r);
  EXPECT_EQ(back.scalar, h.scalar);
  EXPECT_EQ(back.mode, h.mode);
  EXPECT_EQ(back.dims, h.dims);
  EXPECT_DOUBLE_EQ(back.eb_abs, h.eb_abs);
  EXPECT_DOUBLE_EQ(back.user_bound, h.user_bound);
  EXPECT_DOUBLE_EQ(back.value_range, h.value_range);
  EXPECT_EQ(back.quant_bins, h.quant_bins);
  EXPECT_DOUBLE_EQ(back.pwrel_zero_floor, h.pwrel_zero_floor);
}

TEST(StreamFormat, InspectRealStream) {
  const auto stream = sample_stream();
  const auto h = sz::inspect(stream);
  EXPECT_EQ(h.scalar, sz::ScalarType::Float32);
  EXPECT_EQ(h.mode, sz::ErrorBoundMode::ValueRangeRelative);
  EXPECT_EQ(h.dims, (data::Dims{32, 32}));
  EXPECT_DOUBLE_EQ(h.user_bound, 1e-4);
  EXPECT_GT(h.eb_abs, 0.0);
}

TEST(StreamFormat, BadMagicRejected) {
  auto stream = sample_stream();
  stream[0] = 'X';
  EXPECT_THROW(sz::inspect(stream), io::StreamError);
  EXPECT_THROW(sz::decompress<float>(stream), io::StreamError);
}

TEST(StreamFormat, BadVersionRejected) {
  auto stream = sample_stream();
  stream[4] = 99;
  EXPECT_THROW(sz::inspect(stream), io::StreamError);
}

TEST(StreamFormat, TruncationsNeverCrash) {
  const auto stream = sample_stream();
  // Every truncation point must throw StreamError, never crash or hang.
  for (std::size_t keep = 0; keep < stream.size();
       keep += std::max<std::size_t>(1, stream.size() / 97)) {
    std::vector<std::uint8_t> cut(stream.begin(),
                                  stream.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_THROW(sz::decompress<float>(cut), io::StreamError) << "keep=" << keep;
  }
}

TEST(StreamFormat, RandomByteFlipsEitherDecodeOrThrow) {
  // Bit flips may legitimately decode to different data (payload bits), but
  // must never produce UB / crash / infinite loop.
  const auto stream = sample_stream();
  std::mt19937_64 rng(12);
  for (int trial = 0; trial < 200; ++trial) {
    auto corrupted = stream;
    const std::size_t pos = rng() % corrupted.size();
    corrupted[pos] ^= static_cast<std::uint8_t>(1u << (rng() % 8));
    try {
      const auto out = sz::decompress<float>(corrupted);
      EXPECT_EQ(out.values.size(), 32u * 32u);
    } catch (const io::StreamError&) {
      // acceptable
    } catch (const std::invalid_argument&) {
      // acceptable (e.g. corrupted quantizer parameters)
    }
  }
}

TEST(StreamFormat, ZeroExtentRejected) {
  io::ByteWriter w;
  w.put_bytes(std::span<const std::uint8_t>(sz::kMagic, 4));
  w.put<std::uint8_t>(sz::kFormatVersion);
  w.put<std::uint8_t>(0);  // float32
  w.put<std::uint8_t>(0);  // abs
  w.put<std::uint8_t>(2);  // rank 2
  w.put_varint(4);
  w.put_varint(0);  // zero extent!
  const auto buf = w.take();
  io::ByteReader r(buf);
  EXPECT_THROW(sz::read_header(r), io::StreamError);
}

TEST(StreamFormat, QuantBinsAbove32BitsRejected) {
  // 2^32 + 8 would read as 8 bins (even, >= 4) if it were truncated to 32
  // bits; the largest valid count still reads back.
  auto header_with_bins = [](std::uint64_t bins) {
    io::ByteWriter w;
    w.put_bytes(std::span<const std::uint8_t>(sz::kMagic, 4));
    w.put<std::uint8_t>(sz::kFormatVersion);
    w.put<std::uint8_t>(0);  // float32
    w.put<std::uint8_t>(0);  // abs
    w.put<std::uint8_t>(0);  // lorenzo
    w.put<std::uint8_t>(2);  // rank 2
    w.put_varint(4);
    w.put_varint(4);
    w.put<double>(1e-3);  // eb_abs
    w.put<double>(1e-3);  // user bound
    w.put<double>(1.0);   // value range
    w.put_varint(bins);
    w.put<double>(0.0);  // pwrel zero floor
    return w.take();
  };
  const auto big = header_with_bins((std::uint64_t{1} << 32) + 8);
  io::ByteReader r(big);
  EXPECT_THROW(sz::read_header(r), io::StreamError);
  EXPECT_THROW((void)sz::decompress<float>(big), io::StreamError);

  const auto max = header_with_bins(4294967294u);
  io::ByteReader r2(max);
  EXPECT_EQ(sz::read_header(r2).quant_bins, 4294967294u);
}

TEST(StreamFormat, ModeNames) {
  EXPECT_EQ(sz::mode_name(sz::ErrorBoundMode::Absolute), "abs");
  EXPECT_EQ(sz::mode_name(sz::ErrorBoundMode::ValueRangeRelative), "vr-rel");
  EXPECT_EQ(sz::mode_name(sz::ErrorBoundMode::PointwiseRelative), "pw-rel");
}
