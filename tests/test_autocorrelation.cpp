// Tests for the autocorrelation / error-whiteness analysis.
#include "metrics/autocorrelation.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <random>

#include "core/pipeline.h"
#include "data/synth.h"

namespace metrics = fpsnr::metrics;
namespace core = fpsnr::core;
namespace data = fpsnr::data;

TEST(Autocorrelation, LagZeroIsOne) {
  const std::vector<double> s = {1.0, -2.0, 3.0, 0.5};
  const auto acf = metrics::autocorrelation(s, 2);
  EXPECT_DOUBLE_EQ(acf[0], 1.0);
}

TEST(Autocorrelation, ConstantSeriesZeroPastLagZero) {
  const std::vector<double> s(50, 3.0);
  const auto acf = metrics::autocorrelation(s, 5);
  for (std::size_t k = 1; k <= 5; ++k) EXPECT_EQ(acf[k], 0.0);
}

TEST(Autocorrelation, WhiteNoiseIsWhite) {
  std::mt19937_64 rng(3);
  std::normal_distribution<double> g(0.0, 1.0);
  std::vector<double> s(20000);
  for (auto& x : s) x = g(rng);
  const auto acf = metrics::autocorrelation(s, 10);
  for (std::size_t k = 1; k <= 10; ++k)
    EXPECT_LT(std::abs(acf[k]), 0.03) << "lag " << k;
}

TEST(Autocorrelation, PeriodicSignalShowsPeriod) {
  std::vector<double> s(1024);
  for (std::size_t i = 0; i < s.size(); ++i)
    s[i] = std::sin(2.0 * std::numbers::pi * static_cast<double>(i) / 16.0);
  const auto acf = metrics::autocorrelation(s, 20);
  EXPECT_GT(acf[16], 0.9);   // one full period
  EXPECT_LT(acf[8], -0.9);   // half period anti-correlates
}

TEST(Autocorrelation, AlternatingSeries) {
  std::vector<double> s(100);
  for (std::size_t i = 0; i < s.size(); ++i) s[i] = (i % 2) ? 1.0 : -1.0;
  const auto acf = metrics::autocorrelation(s, 2);
  EXPECT_NEAR(acf[1], -1.0, 0.05);
  EXPECT_NEAR(acf[2], 1.0, 0.05);
}

TEST(Autocorrelation, ValidationThrows) {
  const std::vector<double> s = {1.0, 2.0};
  EXPECT_THROW(metrics::autocorrelation(s, 2), std::invalid_argument);
  EXPECT_THROW(metrics::autocorrelation({}, 0), std::invalid_argument);
}

TEST(Autocorrelation, ErrorSeriesBasic) {
  const std::vector<float> a = {1.0f, 2.0f};
  const std::vector<float> b = {0.5f, 2.5f};
  const auto err = metrics::error_series<float>(a, b);
  EXPECT_DOUBLE_EQ(err[0], 0.5);
  EXPECT_DOUBLE_EQ(err[1], -0.5);
  const std::vector<float> c(3, 0.0f);
  EXPECT_THROW(metrics::error_series<float>(a, c), std::invalid_argument);
}

TEST(Autocorrelation, CompressionErrorsAreNearlyWhite) {
  // The quality property behind using PSNR as the control target: midpoint
  // uniform quantization decorrelates the error field. The compression
  // error of a smooth field must be far whiter than the field itself.
  const data::Dims dims{96, 96};
  auto values = data::smoothed_noise(dims, 21, 4, 2);
  data::rescale(values, 0.0f, 100.0f);

  const auto r = core::compress_blocked<float>(
      values, dims, core::ControlRequest::fixed_psnr(60.0));
  const auto out = core::decompress<float>(r.stream);

  const double err_white =
      metrics::error_whiteness<float>(values, out.values, 16);
  // The signal itself is strongly autocorrelated...
  std::vector<double> signal(values.begin(), values.end());
  const auto signal_acf = metrics::autocorrelation(signal, 1);
  EXPECT_GT(signal_acf[1], 0.9);
  // ...while the compression error shows far weaker structure.
  EXPECT_LT(err_white, 0.5);
  EXPECT_LT(err_white, signal_acf[1]);
}
