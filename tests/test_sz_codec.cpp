// Round-trip and error-bound property tests for the SZ-style codec.
#include "sz/codec.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <tuple>

#include "data/synth.h"
#include "metrics/metrics.h"
#include "simd/dispatch.h"
#include "sz/quantizer.h"

namespace sz = fpsnr::sz;
namespace data = fpsnr::data;
namespace metrics = fpsnr::metrics;
namespace io = fpsnr::io;
namespace simd = fpsnr::simd;

namespace {

std::vector<float> make_test_field(const data::Dims& dims, int pattern,
                                   std::uint64_t seed) {
  switch (pattern) {
    case 0:  // smooth correlated
      return data::smoothed_noise(dims, seed, 3, 2);
    case 1: {  // rough
      auto v = data::white_noise(dims.count(), seed);
      return v;
    }
    case 2: {  // large offset + small variation (tests precision handling)
      auto v = data::smoothed_noise(dims, seed, 2, 2);
      for (float& x : v) x = 1.0e6f + x;
      return v;
    }
    default: {  // sparse nonnegative
      auto v = data::smoothed_noise(dims, seed, 1, 2);
      data::rescale(v, -1.0f, 1.0f);
      data::sparsify_below(v, 0.4f);
      return v;
    }
  }
}

}  // namespace

// Parameter space: (rank, pattern, abs bound exponent)
class SzRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(SzRoundTrip, AbsoluteBoundHonoured) {
  const auto [rank, pattern, eb_exp] = GetParam();
  const data::Dims dims = rank == 1   ? data::Dims{4096}
                          : rank == 2 ? data::Dims{48, 64}
                                      : data::Dims{12, 16, 20};
  const auto values = make_test_field(dims, pattern, 1000 + pattern);
  const double eb = std::pow(10.0, eb_exp);

  sz::Params params;
  params.mode = sz::ErrorBoundMode::Absolute;
  params.bound = eb;
  sz::CompressionInfo info;
  const auto stream = sz::compress<float>(values, dims, params, &info);
  const auto out = sz::decompress<float>(stream);

  ASSERT_EQ(out.dims, dims);
  ASSERT_EQ(out.values.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i)
    ASSERT_LE(std::abs(static_cast<double>(values[i]) - out.values[i]),
              eb * (1.0 + 1e-9))
        << "point " << i;
  EXPECT_EQ(info.value_count, values.size());
  EXPECT_GT(info.compressed_bytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SzRoundTrip,
    ::testing::Combine(::testing::Values(1, 2, 3), ::testing::Values(0, 1, 2, 3),
                       ::testing::Values(-1, -3, -5)));

TEST(SzCodec, ValueRangeRelativeBound) {
  const data::Dims dims{64, 64};
  const auto values = make_test_field(dims, 0, 7);
  const double vr = metrics::value_range<float>(values);

  sz::Params params;
  params.mode = sz::ErrorBoundMode::ValueRangeRelative;
  params.bound = 1e-3;
  const auto stream = sz::compress<float>(values, dims, params);
  const auto out = sz::decompress<float>(stream);
  for (std::size_t i = 0; i < values.size(); ++i)
    ASSERT_LE(std::abs(static_cast<double>(values[i]) - out.values[i]),
              1e-3 * vr * (1.0 + 1e-9));
}

TEST(SzCodec, PointwiseRelativeBound) {
  const data::Dims dims{32, 48};
  auto values = data::smoothed_noise(dims, 21, 3, 2);
  data::rescale(values, 0.5f, 100.0f);  // strictly positive
  // Mix in negatives and exact zeros to exercise signs and exceptions.
  for (std::size_t i = 0; i < values.size(); i += 7) values[i] = -values[i];
  for (std::size_t i = 0; i < values.size(); i += 97) values[i] = 0.0f;

  const double eb = 1e-2;
  sz::Params params;
  params.mode = sz::ErrorBoundMode::PointwiseRelative;
  params.bound = eb;
  sz::CompressionInfo info;
  const auto stream = sz::compress<float>(values, dims, params, &info);
  const auto out = sz::decompress<float>(stream);
  double sse = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double o = values[i];
    const double r = out.values[i];
    if (o == 0.0) {
      ASSERT_EQ(r, 0.0) << "zeros must be restored exactly";
    } else {
      // Exact: values the log2/exp2 round trip would push past the bound
      // are stored as exceptions.
      ASSERT_LE(std::abs(r - o), eb * std::abs(o))
          << "point " << i << " orig " << o << " recon " << r;
    }
    sse += (r - o) * (r - o);
  }
  // The codec replays the decoder, so its SSE is the decoded one.
  EXPECT_DOUBLE_EQ(info.achieved_sse, sse);
}

TEST(SzCodec, PointwiseRelativeBoundHoldsAcrossMagnitudes) {
  // Regression: over a wide dynamic range the float log2 / exp2 round trip
  // let a few values on the edge of their log bin exceed eps * |x|.
  const data::Dims dims{256, 256};
  std::vector<float> values(dims.count());
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> exponent(-30.0, 30.0);
  for (auto& v : values)
    v = static_cast<float>((rng() % 2 ? 1.0 : -1.0) * std::exp2(exponent(rng)));
  sz::Params params;
  params.mode = sz::ErrorBoundMode::PointwiseRelative;
  params.bound = 1e-3;
  const auto out = sz::decompress<float>(sz::compress<float>(values, dims, params));
  for (std::size_t i = 0; i < values.size(); ++i)
    ASSERT_LE(std::abs(static_cast<double>(out.values[i]) - values[i]),
              1e-3 * std::abs(static_cast<double>(values[i])))
        << "point " << i;
}

TEST(SzCodec, PointwiseRelativePreservesSigns) {
  const data::Dims dims{512};
  std::vector<float> values(512);
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<float> mag(0.1f, 10.0f);
  for (auto& v : values) v = (rng() % 2 ? 1.0f : -1.0f) * mag(rng);
  sz::Params params;
  params.mode = sz::ErrorBoundMode::PointwiseRelative;
  params.bound = 0.05;
  const auto out = sz::decompress<float>(sz::compress<float>(values, dims, params));
  for (std::size_t i = 0; i < values.size(); ++i)
    ASSERT_GT(values[i] * out.values[i], 0.0f) << "sign flipped at " << i;
}

TEST(SzCodec, DoublePrecisionRoundTrip) {
  const data::Dims dims{24, 24};
  std::vector<double> values(dims.count());
  std::mt19937_64 rng(9);
  std::normal_distribution<double> dist(0.0, 1.0);
  for (auto& v : values) v = dist(rng);
  sz::Params params;
  params.mode = sz::ErrorBoundMode::Absolute;
  params.bound = 1e-8;
  const auto out = sz::decompress<double>(sz::compress<double>(values, dims, params));
  for (std::size_t i = 0; i < values.size(); ++i)
    ASSERT_LE(std::abs(values[i] - out.values[i]), 1e-8 * (1.0 + 1e-12));
}

TEST(SzCodec, ConstantFieldIsTiny) {
  const data::Dims dims{64, 64};
  const std::vector<float> values(dims.count(), 3.25f);
  sz::Params params;
  params.mode = sz::ErrorBoundMode::ValueRangeRelative;
  params.bound = 1e-4;
  sz::CompressionInfo info;
  const auto stream = sz::compress<float>(values, dims, params, &info);
  const auto out = sz::decompress<float>(stream);
  EXPECT_EQ(out.values, values);  // reproduced exactly
  EXPECT_GT(info.compression_ratio, 50.0);
}

TEST(SzCodec, NonFiniteValuesStoredExactly) {
  const data::Dims dims{64};
  std::vector<float> values(64, 1.0f);
  values[10] = std::numeric_limits<float>::quiet_NaN();
  values[20] = std::numeric_limits<float>::infinity();
  values[30] = -std::numeric_limits<float>::infinity();
  sz::Params params;
  params.mode = sz::ErrorBoundMode::Absolute;
  params.bound = 0.1;
  // NaN breaks value_range? No: range uses minmax which ignores NaN order...
  // The codec contract: non-finite points become exact outliers.
  const auto out = sz::decompress<float>(sz::compress<float>(values, dims, params));
  EXPECT_TRUE(std::isnan(out.values[10]));
  EXPECT_TRUE(std::isinf(out.values[20]));
  EXPECT_TRUE(std::isinf(out.values[30]) && out.values[30] < 0);
}

TEST(SzCodec, SmallQuantizerStillBounded) {
  // Tiny bin count forces many outliers; bound must still hold.
  const data::Dims dims{48, 48};
  const auto values = make_test_field(dims, 1, 31);
  sz::Params params;
  params.mode = sz::ErrorBoundMode::Absolute;
  params.bound = 1e-4;
  params.quantization_bins = 4;
  sz::CompressionInfo info;
  const auto out =
      sz::decompress<float>(sz::compress<float>(values, dims, params, &info));
  EXPECT_GT(info.outlier_count, 0u);
  for (std::size_t i = 0; i < values.size(); ++i)
    ASSERT_LE(std::abs(static_cast<double>(values[i]) - out.values[i]),
              1e-4 * (1.0 + 1e-9));
}

TEST(SzCodec, BackendVariantsProduceIdenticalData) {
  const data::Dims dims{32, 32};
  const auto values = make_test_field(dims, 0, 77);
  sz::Params params;
  params.mode = sz::ErrorBoundMode::Absolute;
  params.bound = 1e-3;
  std::vector<float> reference;
  for (auto backend : {fpsnr::lossless::Method::Store, fpsnr::lossless::Method::Rle,
                       fpsnr::lossless::Method::Deflate,
                       fpsnr::lossless::Method::Auto}) {
    params.backend = backend;
    const auto out =
        sz::decompress<float>(sz::compress<float>(values, dims, params));
    if (reference.empty())
      reference = out.values;
    else
      EXPECT_EQ(out.values, reference);  // lossless stage cannot change data
  }
}

TEST(SzCodec, DeterministicStream) {
  const data::Dims dims{40, 40};
  const auto values = make_test_field(dims, 0, 11);
  sz::Params params;
  params.mode = sz::ErrorBoundMode::ValueRangeRelative;
  params.bound = 1e-4;
  EXPECT_EQ(sz::compress<float>(values, dims, params),
            sz::compress<float>(values, dims, params));
}

TEST(SzCodec, MismatchedDimsThrow) {
  const std::vector<float> values(10);
  sz::Params params;
  EXPECT_THROW(sz::compress<float>(values, data::Dims{11}, params),
               std::invalid_argument);
  EXPECT_THROW(sz::prediction_trace<float>(values, data::Dims{9}, 0.1),
               std::invalid_argument);
}

TEST(SzCodec, BadParamsThrow) {
  const std::vector<float> values(16, 1.0f);
  sz::Params params;
  params.bound = -1.0;
  EXPECT_THROW(sz::compress<float>(values, data::Dims{16}, params),
               std::invalid_argument);
  params.bound = 1e-3;
  params.quantization_bins = 7;  // odd
  EXPECT_THROW(sz::compress<float>(values, data::Dims{16}, params),
               std::invalid_argument);
}

TEST(SzCodec, ScalarTypeMismatchThrows) {
  const data::Dims dims{16};
  const std::vector<float> values(16, 1.0f);
  sz::Params params;
  params.mode = sz::ErrorBoundMode::Absolute;
  params.bound = 0.5;
  const auto stream = sz::compress<float>(values, dims, params);
  EXPECT_THROW(sz::decompress<double>(stream), io::StreamError);
}

TEST(SzCodec, ResolveAbsoluteBound) {
  EXPECT_DOUBLE_EQ(
      sz::resolve_absolute_bound(sz::ErrorBoundMode::Absolute, 0.5, 100.0), 0.5);
  EXPECT_DOUBLE_EQ(sz::resolve_absolute_bound(sz::ErrorBoundMode::ValueRangeRelative,
                                              1e-3, 100.0),
                   0.1);
  EXPECT_NEAR(sz::resolve_absolute_bound(sz::ErrorBoundMode::PointwiseRelative,
                                         1.0, 0.0),
              1.0, 1e-12);  // log2(1+1) == 1
  EXPECT_GT(sz::resolve_absolute_bound(sz::ErrorBoundMode::ValueRangeRelative,
                                       1e-3, 0.0),
            0.0);  // constant field fallback stays positive
  EXPECT_THROW(sz::resolve_absolute_bound(sz::ErrorBoundMode::Absolute, 0.0, 1.0),
               std::invalid_argument);
}

TEST(SzCodec, PredictionTraceShape) {
  const data::Dims dims{20, 20};
  const auto values = make_test_field(dims, 0, 15);
  const auto trace = sz::prediction_trace<float>(values, dims, 1e-3);
  EXPECT_EQ(trace.pe.size(), values.size());
  EXPECT_EQ(trace.pe_recon.size(), values.size());
  // Quantized reconstruction error never exceeds the bound.
  for (std::size_t i = 0; i < trace.pe.size(); ++i)
    ASSERT_LE(std::abs(trace.pe[i] - trace.pe_recon[i]), 1e-3 * (1.0 + 1e-9));
}

TEST(SzCodec, Rank3KernelMatchesTracedGenericLoop) {
  // An untraced rank-3 quantize pass runs the Lorenzo kernel, while
  // prediction_trace runs the generic loop. The codes and outliers the
  // trace implies (a point is coded exactly when its recorded
  // reconstruction is the midpoint of its bin) must equal the kernel's on
  // every backend. 13 rows = three 4-row blocks + one leftover row.
  const data::Dims dims{9, 13, 21};
  auto values = make_test_field(dims, 0, 23);
  values[100] = std::numeric_limits<float>::quiet_NaN();
  values[500] = 1.0e4f;  // outside the radius of 1024 bins
  const double eb = 1e-3;
  const std::uint32_t bins = 1024;
  const auto trace = sz::prediction_trace<float>(values, dims, eb, bins);
  const sz::LinearQuantizer quant(eb, bins);
  std::vector<std::uint32_t> codes(values.size());
  std::vector<float> outliers;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const std::uint32_t code = quant.quantize(trace.pe[i]);
    if (code != 0 && quant.dequantize(code) == trace.pe_recon[i]) {
      codes[i] = code;
    } else {
      outliers.push_back(values[i]);
    }
  }
  ASSERT_GE(outliers.size(), 2u);

  for (const simd::Backend b : simd::supported_backends()) {
    SCOPED_TRACE(simd::backend_name(b));
    std::vector<std::uint32_t> k_codes(values.size());
    std::vector<float> k_recon(values.size()), k_outliers;
    simd::kernels_for(b).lorenzo3_quant_f32(values.data(), dims[0], dims[1],
                                            dims[2], eb, bins, k_codes.data(),
                                            k_recon.data());
    for (std::size_t i = 0; i < values.size(); ++i)
      if (k_codes[i] == 0) k_outliers.push_back(values[i]);
    EXPECT_EQ(k_codes, codes);
    ASSERT_EQ(k_outliers.size(), outliers.size());
    EXPECT_EQ(std::memcmp(k_outliers.data(), outliers.data(),
                          outliers.size() * sizeof(float)),
              0);
  }
}
