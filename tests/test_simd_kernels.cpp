// The SIMD kernel layer: dispatch plumbing and the bit-exactness contract.
//
// Every vector backend promises BIT-IDENTICAL output to the scalar
// reference for every kernel in the table (kernels.h documents why that is
// achievable: lanes only span independent outputs, no reassociation, no
// FMA contraction, proven rounding emulations). These tests enforce the
// contract three ways:
//
//   1. golden vectors — tiny hand-checkable cases with exact expected
//      outputs (ties, escapes, zero widths), pinned per kernel;
//   2. scalar-vs-backend parity — every supported backend replays random,
//      constant, tie-dense, and NaN/Inf-poisoned blocks across awkward
//      sizes, compared bit for bit (memcmp, not EXPECT_DOUBLE_EQ);
//   3. whole-archive identity — forcing each backend end-to-end through
//      every registered engine must reproduce the scalar archive bytes.
//
// The suite runs on whatever host executes it: on x86-64 with AVX2 it
// exercises scalar+avx2, on aarch64 scalar+neon, elsewhere scalar only
// (the loops below just see a one-element backend list).
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <numbers>
#include <random>
#include <string>
#include <vector>

#include "core/compressor.h"
#include "core/pipeline.h"
#include "data/synth.h"
#include "huffman/huffman.h"
#include "io/bitstream.h"
#include "simd/aligned.h"
#include "simd/dispatch.h"

namespace core = fpsnr::core;
namespace data = fpsnr::data;
namespace io = fpsnr::io;
namespace simd = fpsnr::simd;

namespace {

/// memcmp-backed equality: NaN payloads and signed zeros must survive too.
template <typename T>
::testing::AssertionResult bits_equal(const std::vector<T>& a,
                                      const std::vector<T>& b,
                                      const char* what) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure()
           << what << ": size " << a.size() << " vs " << b.size();
  if (!a.empty() &&
      std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) != 0) {
    for (std::size_t i = 0; i < a.size(); ++i)
      if (std::memcmp(&a[i], &b[i], sizeof(T)) != 0)
        return ::testing::AssertionFailure()
               << what << ": first mismatch at [" << i << "]: " << a[i]
               << " vs " << b[i];
  }
  return ::testing::AssertionSuccess();
}

template <typename T>
::testing::AssertionResult bits_equal(const simd::aligned_vector<T>& a,
                                      const simd::aligned_vector<T>& b,
                                      const char* what) {
  return bits_equal(std::vector<T>(a.begin(), a.end()),
                    std::vector<T>(b.begin(), b.end()), what);
}

/// Deterministic double blocks for the parity sweeps.
simd::aligned_vector<double> random_block(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> d(-6.0, 6.0);
  simd::aligned_vector<double> v(n);
  for (auto& x : v) x = d(rng);
  return v;
}

/// Every scaled value a multiple of 0.5 — maximum density of round()
/// half-way ties, where the AVX2 magic-number emulation has its fixups.
simd::aligned_vector<double> tie_block(std::size_t n) {
  simd::aligned_vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = 0.25 * static_cast<double>(static_cast<int>(i % 23) - 11);
  return v;
}

simd::aligned_vector<double> poisoned_block(std::size_t n,
                                            std::uint64_t seed) {
  auto v = random_block(n, seed);
  if (n > 0) v[0] = std::numeric_limits<double>::quiet_NaN();
  if (n > 2) v[2] = std::numeric_limits<double>::infinity();
  if (n > 5) v[5] = -std::numeric_limits<double>::infinity();
  return v;
}

const std::vector<std::size_t> kSizes = {0, 1, 2, 3, 4, 5, 7, 8,
                                         15, 16, 17, 33, 64, 257};

/// RAII pin so a failing assertion can't leak a forced backend into the
/// next test.
struct BackendPin {
  explicit BackendPin(simd::Backend b) { EXPECT_TRUE(simd::force_backend(b)); }
  ~BackendPin() { simd::reset_backend(); }
};

}  // namespace

// ---------------------------------------------------------------------------
// Dispatch plumbing
// ---------------------------------------------------------------------------

TEST(SimdDispatch, ParseBackendContract) {
  std::optional<simd::Backend> out;
  EXPECT_TRUE(simd::parse_backend("auto", &out));
  EXPECT_FALSE(out.has_value());  // auto = "no pin, use detection"
  EXPECT_TRUE(simd::parse_backend("scalar", &out));
  EXPECT_EQ(out, simd::Backend::Scalar);
  EXPECT_TRUE(simd::parse_backend("avx2", &out));
  EXPECT_EQ(out, simd::Backend::Avx2);
  EXPECT_TRUE(simd::parse_backend("neon", &out));
  EXPECT_EQ(out, simd::Backend::Neon);
  // Unknown and wrong-case names fail without touching *out.
  out = simd::Backend::Neon;
  EXPECT_FALSE(simd::parse_backend("AVX2", &out));
  EXPECT_FALSE(simd::parse_backend("sse2", &out));
  EXPECT_FALSE(simd::parse_backend("", &out));
  EXPECT_EQ(out, simd::Backend::Neon);
}

TEST(SimdDispatch, ScalarIsAlwaysSupportedAndFirst) {
  const auto backends = simd::supported_backends();
  ASSERT_FALSE(backends.empty());
  EXPECT_EQ(backends.front(), simd::Backend::Scalar);
  EXPECT_TRUE(simd::backend_supported(simd::Backend::Scalar));
  EXPECT_STREQ(simd::kernels_for(simd::Backend::Scalar).name, "scalar");
  // Table names agree with backend_name for every supported backend.
  for (const simd::Backend b : backends)
    EXPECT_STREQ(simd::kernels_for(b).name, simd::backend_name(b));
}

TEST(SimdDispatch, UnsupportedBackendIsLoudNotLethal) {
  for (const simd::Backend b : {simd::Backend::Avx2, simd::Backend::Neon}) {
    if (simd::backend_supported(b)) continue;
    const simd::Backend before = simd::active_backend();
    EXPECT_FALSE(simd::force_backend(b));
    EXPECT_EQ(simd::active_backend(), before);  // pin state unchanged
    EXPECT_THROW(simd::kernels_for(b), std::logic_error);
  }
}

TEST(SimdDispatch, ForceBackendPinsKernelTable) {
  for (const simd::Backend b : simd::supported_backends()) {
    BackendPin pin(b);
    EXPECT_EQ(simd::active_backend(), b);
    EXPECT_STREQ(simd::kernels().name, simd::backend_name(b));
  }
  // After the pins are dropped the active backend is supported here.
  EXPECT_TRUE(simd::backend_supported(simd::active_backend()));
}

// ---------------------------------------------------------------------------
// Per-kernel golden vectors + scalar-vs-backend bitwise parity
// ---------------------------------------------------------------------------

class SimdKernelParity : public ::testing::TestWithParam<simd::Backend> {
 protected:
  const simd::KernelTable& ref() const {
    return simd::kernels_for(simd::Backend::Scalar);
  }
  const simd::KernelTable& kt() const { return simd::kernels_for(GetParam()); }
};

INSTANTIATE_TEST_SUITE_P(
    Backends, SimdKernelParity,
    ::testing::ValuesIn(simd::supported_backends()),
    [](const ::testing::TestParamInfo<simd::Backend>& info) {
      return std::string(simd::backend_name(info.param));
    });

TEST_P(SimdKernelParity, HaarButterflies) {
  const double c = 1.0 / std::numbers::sqrt2;
  for (const std::size_t pairs : kSizes) {
    SCOPED_TRACE("pairs=" + std::to_string(pairs));
    for (int block = 0; block < 3; ++block) {
      const auto line = block == 0   ? random_block(2 * pairs, 11 + pairs)
                        : block == 1 ? tie_block(2 * pairs)
                                     : poisoned_block(2 * pairs, 13 + pairs);
      simd::aligned_vector<double> a_ref(pairs), d_ref(pairs);
      simd::aligned_vector<double> a_kt(pairs), d_kt(pairs);
      ref().haar_fwd_pairs(line.data(), a_ref.data(), d_ref.data(), pairs, c);
      kt().haar_fwd_pairs(line.data(), a_kt.data(), d_kt.data(), pairs, c);
      EXPECT_TRUE(bits_equal(a_ref, a_kt, "haar fwd approx"));
      EXPECT_TRUE(bits_equal(d_ref, d_kt, "haar fwd detail"));

      simd::aligned_vector<double> l_ref(2 * pairs), l_kt(2 * pairs);
      ref().haar_inv_pairs(a_ref.data(), d_ref.data(), l_ref.data(), pairs, c);
      kt().haar_inv_pairs(a_ref.data(), d_ref.data(), l_kt.data(), pairs, c);
      EXPECT_TRUE(bits_equal(l_ref, l_kt, "haar inv line"));
    }
  }
}

TEST_P(SimdKernelParity, HaarGoldenVector) {
  // (a,b) -> ((a+b)c, (a-b)c) with c = 1/sqrt(2): for a=3, b=1 the exact
  // doubles are 4c and 2c (both products are exact powers-of-two scalings).
  const double c = 1.0 / std::numbers::sqrt2;
  const simd::aligned_vector<double> line = {3.0, 1.0, -5.0, -5.0};
  simd::aligned_vector<double> approx(2), detail(2);
  kt().haar_fwd_pairs(line.data(), approx.data(), detail.data(), 2, c);
  EXPECT_EQ(approx[0], 4.0 * c);
  EXPECT_EQ(detail[0], 2.0 * c);
  EXPECT_EQ(approx[1], -10.0 * c);
  EXPECT_EQ(detail[1], 0.0);
}

namespace {

/// The exact table layout dct.cpp caches (same formula, both layouts).
struct TestDctTables {
  simd::aligned_vector<double> jk, kj;
  explicit TestDctTables(std::size_t m) : jk(m * m), kj(m * m) {
    for (std::size_t j = 0; j < m; ++j)
      for (std::size_t k = 0; k < m; ++k) {
        const double c =
            std::cos(std::numbers::pi * (static_cast<double>(j) + 0.5) *
                     static_cast<double>(k) / static_cast<double>(m));
        jk[j * m + k] = c;
        kj[k * m + j] = c;
      }
  }
};

}  // namespace

TEST_P(SimdKernelParity, DctLines) {
  for (const std::size_t m : {std::size_t{2}, std::size_t{3}, std::size_t{5},
                              std::size_t{8}, std::size_t{16},
                              std::size_t{31}, std::size_t{64},
                              std::size_t{256}}) {
    SCOPED_TRACE("m=" + std::to_string(m));
    const TestDctTables tabs(m);
    const double s0 = std::sqrt(1.0 / static_cast<double>(m));
    const double sk = std::sqrt(2.0 / static_cast<double>(m));
    for (int block = 0; block < 3; ++block) {
      const auto x = block == 0   ? random_block(m, 29 + m)
                     : block == 1 ? tie_block(m)
                                  : poisoned_block(m, 31 + m);
      simd::aligned_vector<double> y_ref(m), y_kt(m);
      ref().dct2_line(x.data(), y_ref.data(), m, tabs.jk.data(),
                      tabs.kj.data(), s0, sk);
      kt().dct2_line(x.data(), y_kt.data(), m, tabs.jk.data(), tabs.kj.data(),
                     s0, sk);
      EXPECT_TRUE(bits_equal(y_ref, y_kt, "dct2 line"));

      simd::aligned_vector<double> x_ref(m), x_kt(m);
      ref().dct3_line(y_ref.data(), x_ref.data(), m, tabs.jk.data(),
                      tabs.kj.data(), s0, sk);
      kt().dct3_line(y_ref.data(), x_kt.data(), m, tabs.jk.data(),
                     tabs.kj.data(), s0, sk);
      EXPECT_TRUE(bits_equal(x_ref, x_kt, "dct3 line"));
    }
  }
}

TEST_P(SimdKernelParity, DctGoldenVector) {
  // A constant line has only a DC coefficient: y[0] = s0 * m * v exactly
  // (every k=0 cosine is exactly 1.0), and the k>0 sums cancel pairwise to
  // the same tiny residues the scalar loop produces — pin y[0] exactly.
  const std::size_t m = 8;
  const TestDctTables tabs(m);
  const double s0 = std::sqrt(1.0 / 8.0), sk = std::sqrt(2.0 / 8.0);
  simd::aligned_vector<double> x(m, 2.5), y(m);
  kt().dct2_line(x.data(), y.data(), m, tabs.jk.data(), tabs.kj.data(), s0,
                 sk);
  // 2.5 summed 8 times is exactly 20.0.
  EXPECT_EQ(y[0], s0 * 20.0);
}

TEST_P(SimdKernelParity, ZfprGroups) {
  const double bin = 0.125;
  for (const std::size_t n : kSizes) {
    SCOPED_TRACE("n=" + std::to_string(n));
    for (int block = 0; block < 4; ++block) {
      auto c = block == 0   ? random_block(n, 41 + n)
               : block == 1 ? tie_block(n)
               : block == 2 ? simd::aligned_vector<double>(n, 0.0)
                            : poisoned_block(n, 43 + n);
      if (block == 1)
        // Multiples of bin/2: every quotient is a half-integer tie.
        for (auto& v : c) v *= 0.25;
      simd::aligned_vector<std::uint64_t> zz_ref(n), zz_kt(n);
      simd::aligned_vector<double> rec_ref(n), rec_kt(n);
      const unsigned w_ref =
          ref().zfpr_quant_group(c.data(), n, bin, zz_ref.data(),
                                 rec_ref.data());
      const unsigned w_kt =
          kt().zfpr_quant_group(c.data(), n, bin, zz_kt.data(),
                                rec_kt.data());
      EXPECT_EQ(w_ref, w_kt);
      if (w_ref != simd::kZfprEscape) {
        // zz/recon are unspecified on escape; otherwise exact.
        EXPECT_TRUE(bits_equal(zz_ref, zz_kt, "zfpr zigzag"));
        EXPECT_TRUE(bits_equal(rec_ref, rec_kt, "zfpr recon"));
      }
    }
  }
}

TEST_P(SimdKernelParity, ZfprGoldenVectors) {
  simd::aligned_vector<std::uint64_t> zz(4);
  simd::aligned_vector<double> rec(4);
  // Ties away from zero: 2.5 -> 3, -2.5 -> -3 (zigzag 6 and 5), plus the
  // zigzag of +1 / -1. max zz = 6 -> width 3.
  const simd::aligned_vector<double> ties = {2.5, -2.5, 1.0, -1.0};
  EXPECT_EQ(kt().zfpr_quant_group(ties.data(), 4, 1.0, zz.data(), rec.data()),
            3u);
  EXPECT_EQ(zz[0], 6u);
  EXPECT_EQ(zz[1], 5u);
  EXPECT_EQ(zz[2], 2u);
  EXPECT_EQ(zz[3], 1u);
  EXPECT_EQ(rec[0], 3.0);
  EXPECT_EQ(rec[1], -3.0);
  // All zeros: width 0, nothing to store.
  const simd::aligned_vector<double> zeros = {0.0, -0.0, 0.0, 0.0};
  EXPECT_EQ(kt().zfpr_quant_group(zeros.data(), 4, 1.0, zz.data(),
                                  rec.data()),
            0u);
  // One index past the escape threshold poisons the whole group.
  const simd::aligned_vector<double> huge = {1.0, 5.0e18, 2.0, 3.0};
  EXPECT_EQ(kt().zfpr_quant_group(huge.data(), 4, 1.0, zz.data(), rec.data()),
            simd::kZfprEscape);
  const simd::aligned_vector<double> nan = {
      1.0, std::numeric_limits<double>::quiet_NaN(), 2.0, 3.0};
  EXPECT_EQ(kt().zfpr_quant_group(nan.data(), 4, 1.0, zz.data(), rec.data()),
            simd::kZfprEscape);
}

TEST_P(SimdKernelParity, HuffmanPackMatchesPerSymbolWrites) {
  // Hand-built canonical table: lengths {1,2,3,3} give MSB-first codes
  // {0, 10, 110, 111}; the pack entries hold them bit-reversed.
  const std::vector<std::uint64_t> entries = {
      0 | (std::uint64_t{1} << 32), 1 | (std::uint64_t{2} << 32),
      3 | (std::uint64_t{3} << 32), 7 | (std::uint64_t{3} << 32)};
  std::mt19937_64 rng(59);
  for (const std::size_t n : kSizes) {
    SCOPED_TRACE("n=" + std::to_string(n));
    std::vector<std::uint32_t> syms(n);
    for (auto& s : syms) s = static_cast<std::uint32_t>(rng() % 4);

    // Reference stream: one write_bits call per symbol, after a 3-bit
    // preamble so the pack also proves itself at a non-zero bit offset.
    io::BitWriter ref_bits;
    ref_bits.write_bits(0x5, 3);
    for (const std::uint32_t s : syms)
      ref_bits.write_bits(entries[s] & 0xFFFFFFFFu,
                          static_cast<unsigned>(entries[s] >> 32));
    const auto ref_bytes = ref_bits.take();

    // Kernel stream, split into two calls to exercise the carry handoff.
    io::BitWriter out;
    out.write_bits(0x5, 3);
    std::vector<std::uint64_t> words((n * 3 + 63) / 64 + 1);
    std::uint64_t carry = 0;
    unsigned carry_bits = 0;
    const std::size_t half = n / 2;
    for (const auto& [off, len] :
         {std::pair<std::size_t, std::size_t>{0, half},
          std::pair<std::size_t, std::size_t>{half, n - half}}) {
      std::size_t bad = simd::kNoBadSymbol;
      const std::size_t nw =
          kt().huffman_pack(syms.data() + off, len, entries.data(), 0,
                            entries.size(), words.data(), &carry,
                            &carry_bits, &bad);
      EXPECT_EQ(bad, simd::kNoBadSymbol);
      for (std::size_t w = 0; w < nw; ++w) out.write_bits(words[w], 64);
    }
    if (carry_bits > 0) out.write_bits(carry, carry_bits);
    EXPECT_EQ(out.take(), ref_bytes);
  }
}

TEST_P(SimdKernelParity, HuffmanPackReportsBadSymbols) {
  const std::vector<std::uint64_t> entries = {
      0 | (std::uint64_t{1} << 32), 1 | (std::uint64_t{2} << 32),
      0,  // symbol 2: no code assigned
      7 | (std::uint64_t{3} << 32)};
  const std::vector<std::uint32_t> no_code = {0, 1, 2, 0};
  const std::vector<std::uint32_t> out_of_alphabet = {0, 1, 9};
  for (const auto& syms : {no_code, out_of_alphabet}) {
    std::vector<std::uint64_t> words(8);
    std::uint64_t carry = 0;
    unsigned carry_bits = 0;
    std::size_t bad = simd::kNoBadSymbol;
    kt().huffman_pack(syms.data(), syms.size(), entries.data(), 0,
                      entries.size(), words.data(), &carry, &carry_bits,
                      &bad);
    EXPECT_EQ(bad, 2u);  // both streams break at index 2
  }
}

namespace {

template <typename T>
struct LorenzoRun {
  simd::aligned_vector<std::uint32_t> codes;
  simd::aligned_vector<T> recon;
  simd::aligned_vector<T> outliers;
};

template <typename T>
LorenzoRun<T> run_lorenzo(const simd::KernelTable& kt,
                          const simd::aligned_vector<T>& values,
                          std::size_t n0, std::size_t n1, double eb,
                          std::uint32_t bins) {
  LorenzoRun<T> r;
  r.codes.resize(values.size());
  r.recon.resize(values.size());
  r.outliers.resize(values.size());
  std::size_t n_out;
  if constexpr (std::is_same_v<T, float>)
    n_out = kt.lorenzo2_quant_f32(values.data(), n0, n1, eb, bins,
                                  r.codes.data(), r.recon.data(),
                                  r.outliers.data());
  else
    n_out = kt.lorenzo2_quant_f64(values.data(), n0, n1, eb, bins,
                                  r.codes.data(), r.recon.data(),
                                  r.outliers.data());
  r.outliers.resize(n_out);
  return r;
}

template <typename T>
void lorenzo_parity_sweep(const simd::KernelTable& ref,
                          const simd::KernelTable& kt) {
  const std::vector<std::pair<std::size_t, std::size_t>> shapes = {
      {1, 1},  {1, 64}, {64, 1}, {2, 9},  {3, 8},   {4, 8},
      {5, 5},  {7, 31}, {8, 8},  {13, 4}, {16, 33}, {40, 40}};
  for (const auto& [n0, n1] : shapes) {
    SCOPED_TRACE(std::to_string(n0) + "x" + std::to_string(n1));
    const std::size_t n = n0 * n1;
    for (int block = 0; block < 4; ++block) {
      const auto src = block == 0   ? random_block(n, 71 + n)
                       : block == 1 ? tie_block(n)
                       : block == 2 ? simd::aligned_vector<double>(n, 1.5)
                                    : poisoned_block(n, 73 + n);
      simd::aligned_vector<T> values(src.begin(), src.end());
      // eb = 0.25 against the tie block's multiples of 0.25 puts every
      // prediction residual on a half-integer quantization tie.
      for (const double eb : {0.25, 1e-3}) {
        for (const std::uint32_t bins : {16u, 65536u}) {
          const auto a = run_lorenzo<T>(ref, values, n0, n1, eb, bins);
          const auto b = run_lorenzo<T>(kt, values, n0, n1, eb, bins);
          EXPECT_TRUE(bits_equal(a.codes, b.codes, "lorenzo codes"));
          EXPECT_TRUE(bits_equal(a.recon, b.recon, "lorenzo recon"));
          EXPECT_TRUE(bits_equal(a.outliers, b.outliers, "lorenzo outliers"));
        }
      }
    }
  }
}

}  // namespace

TEST_P(SimdKernelParity, Lorenzo2dFloat) {
  lorenzo_parity_sweep<float>(ref(), kt());
}

TEST_P(SimdKernelParity, Lorenzo2dDouble) {
  lorenzo_parity_sweep<double>(ref(), kt());
}

TEST_P(SimdKernelParity, Lorenzo2dGoldenVector) {
  // eb = 0.25, first point of a row: pred = 0, scaled = 0.75/0.5 = 1.5 —
  // a tie that must round away from zero to 2 (code = radius + 2).
  const simd::aligned_vector<float> values = {0.75f, 0.75f, 10.0f, 10.25f};
  const auto r = run_lorenzo<float>(kt(), values, 1, 4, 0.25, 16);
  EXPECT_EQ(r.codes[0], 8u + 2u);
  // Second point: pred = recon[0] = 1.0, scaled = -0.5 -> -1 (tie away).
  EXPECT_EQ(r.codes[1], 8u - 1u);
  // 10.0 jumps out of the 16-bin radius: exact outlier, code 0.
  EXPECT_EQ(r.codes[2], 0u);
  ASSERT_EQ(r.outliers.size(), 1u);
  EXPECT_EQ(r.outliers[0], 10.0f);
  EXPECT_EQ(r.recon[2], 10.0f);
}

namespace {

/// The rank-3 kernel marks outliers with code 0; collect them the way
/// sz::quantize_pass does, in scan order.
template <typename T>
LorenzoRun<T> run_lorenzo3(const simd::KernelTable& kt,
                           const simd::aligned_vector<T>& values,
                           std::size_t n0, std::size_t n1, std::size_t n2,
                           double eb, std::uint32_t bins) {
  LorenzoRun<T> r;
  r.codes.resize(values.size());
  r.recon.resize(values.size());
  if constexpr (std::is_same_v<T, float>)
    kt.lorenzo3_quant_f32(values.data(), n0, n1, n2, eb, bins,
                          r.codes.data(), r.recon.data());
  else
    kt.lorenzo3_quant_f64(values.data(), n0, n1, n2, eb, bins,
                          r.codes.data(), r.recon.data());
  for (std::size_t i = 0; i < values.size(); ++i)
    if (r.codes[i] == 0) r.outliers.push_back(values[i]);
  return r;
}

/// Shapes cover the thin-shape fallback (n1 < 4 or n2 < 8), whole 4-row
/// blocks, and leftover rows after them, in one and several planes.
template <typename T>
void lorenzo3_parity_sweep(const simd::KernelTable& ref,
                           const simd::KernelTable& kt) {
  std::size_t guard_outliers = 0;
  for (const std::size_t n0 : {1, 2, 5}) {
    for (const std::size_t n1 : {1, 3, 4, 5, 9}) {
      for (const std::size_t n2 : {1, 7, 8, 33}) {
        SCOPED_TRACE(std::to_string(n0) + "x" + std::to_string(n1) + "x" +
                     std::to_string(n2));
        const std::size_t n = n0 * n1 * n2;
        for (int block = 0; block < 5; ++block) {
          SCOPED_TRACE("block " + std::to_string(block));
          auto src = block == 0   ? random_block(n, 97 + n)
                     : block == 1 ? tie_block(n)
                     : block == 2 ? simd::aligned_vector<double>(n, 1.5)
                     : block == 3 ? poisoned_block(n, 101 + n)
                                  : random_block(n, 103 + n);
          // Block 4 sits near 1e6, where float spacing is 0.0625: with
          // eb = 0.04 a float reconstruction can round a whole spacing
          // away, so the T-cast guard demotes points to outliers.
          if (block == 4)
            for (double& x : src) x += 1.0e6;
          simd::aligned_vector<T> values(src.begin(), src.end());
          // eb = 0.25 against the tie block's multiples of 0.25 puts every
          // prediction residual on a half-integer quantization tie; 16
          // bins push most random residuals outside the radius.
          for (const double eb : {0.25, 0.04, 1e-3}) {
            for (const std::uint32_t bins : {16u, 65536u}) {
              const auto a = run_lorenzo3<T>(ref, values, n0, n1, n2, eb,
                                             bins);
              const auto b = run_lorenzo3<T>(kt, values, n0, n1, n2, eb,
                                             bins);
              EXPECT_TRUE(bits_equal(a.codes, b.codes, "lorenzo3 codes"));
              EXPECT_TRUE(bits_equal(a.recon, b.recon, "lorenzo3 recon"));
              EXPECT_TRUE(
                  bits_equal(a.outliers, b.outliers, "lorenzo3 outliers"));
              // Residuals here stay far inside 65536 bins, so every
              // outlier is a cast-guard demotion.
              if (block == 4 && eb == 0.04 && bins == 65536u)
                guard_outliers += a.outliers.size();
            }
          }
        }
      }
    }
  }
  if constexpr (std::is_same_v<T, float>) {
    EXPECT_GT(guard_outliers, 0u);
  }
}

}  // namespace

TEST_P(SimdKernelParity, Lorenzo3dFloat) {
  lorenzo3_parity_sweep<float>(ref(), kt());
}

TEST_P(SimdKernelParity, Lorenzo3dDouble) {
  lorenzo3_parity_sweep<double>(ref(), kt());
}

TEST_P(SimdKernelParity, Lorenzo3dGoldenVector) {
  // A trilinear field v = 0.5 + i0 - 1.5 i1 + 0.5 i2, on the 0.5 bin grid
  // of eb = 0.25: the 3-D Lorenzo stencil predicts it exactly wherever all
  // seven neighbours exist, and in plane 0 / row 0 / column 0 the missing
  // neighbours leave residuals of +0.5 (row 0 of plane 0), -1.5 (column 0
  // of plane 0, i1 > 0) and +1.0 ((i0, 0, 0), i0 > 0). One NaN at (1,2,3)
  // is an outlier and poisons the prediction of exactly the seven points
  // whose stencil holds it; those eight are stored verbatim, and their
  // exact values keep every later prediction exact.
  constexpr std::size_t n0 = 3, n1 = 5, n2 = 9;  // a 4-row block + 1 row
  constexpr std::uint32_t bins = 65536, radius = bins / 2;
  simd::aligned_vector<float> values(n0 * n1 * n2);
  for (std::size_t i0 = 0; i0 < n0; ++i0)
    for (std::size_t i1 = 0; i1 < n1; ++i1)
      for (std::size_t i2 = 0; i2 < n2; ++i2)
        values[(i0 * n1 + i1) * n2 + i2] = static_cast<float>(
            0.5 + static_cast<double>(i0) - 1.5 * static_cast<double>(i1) +
            0.5 * static_cast<double>(i2));
  const std::size_t nan_at = (1 * n1 + 2) * n2 + 3;
  values[nan_at] = std::numeric_limits<float>::quiet_NaN();
  const auto r = run_lorenzo3<float>(kt(), values, n0, n1, n2, 0.25, bins);

  std::vector<float> expect_outliers;
  for (std::size_t i0 = 0; i0 < n0; ++i0) {
    for (std::size_t i1 = 0; i1 < n1; ++i1) {
      for (std::size_t i2 = 0; i2 < n2; ++i2) {
        SCOPED_TRACE(std::to_string(i0) + "," + std::to_string(i1) + "," +
                     std::to_string(i2));
        const std::size_t idx = (i0 * n1 + i1) * n2 + i2;
        const bool poisoned = i0 >= 1 && (i1 == 2 || i1 == 3) &&
                              (i2 == 3 || i2 == 4);
        if (poisoned) {
          EXPECT_EQ(r.codes[idx], 0u);
          expect_outliers.push_back(values[idx]);
          continue;
        }
        int k = 0;
        if (i0 == 0 && i1 == 0) k = 1;
        else if (i0 == 0 && i2 == 0) k = -3;
        else if (i1 == 0 && i2 == 0) k = 2;
        EXPECT_EQ(r.codes[idx], static_cast<std::uint32_t>(radius + k));
        EXPECT_EQ(r.recon[idx], values[idx]);
      }
    }
  }
  ASSERT_EQ(expect_outliers.size(), 8u);
  EXPECT_TRUE(bits_equal(std::vector<float>(r.outliers.begin(),
                                            r.outliers.end()),
                         expect_outliers, "outliers"));
}

namespace {

/// Codes and placed outliers for one reconstruct case, in C scan order.
template <typename T>
struct ReconCase {
  simd::aligned_vector<std::uint32_t> codes;
  simd::aligned_vector<T> placed;  // outliers at code 0, 0 elsewhere
};

enum class OutlierKind { Finite, NanInf, Signalling };

/// A rows x cols field of codes: code-0 outliers in column 0, in the first
/// and last three columns (the wavefront's fill and drain lanes), and
/// scattered through the rest; every other code in [1, bins - 1], most
/// near the radius, some at 1 and bins - 1.
template <typename T>
ReconCase<T> recon_case(std::size_t rows, std::size_t cols,
                        std::uint32_t bins, OutlierKind kind,
                        std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> value(-6.0, 6.0);
  const std::uint32_t radius = bins / 2;
  ReconCase<T> c;
  c.codes.resize(rows * cols);
  c.placed.assign(rows * cols, T(0));
  std::size_t n_outliers = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t col = 0; col < cols; ++col) {
      const std::size_t idx = r * cols + col;
      const bool outlier = (col == 0 && r % 3 == 0) ||
                           (col == 1 && r % 4 == 1) ||
                           (col == 2 && r % 5 == 2) ||
                           (col + 1 == cols && r % 2 == 0) ||
                           (col + 2 == cols && r % 4 == 3) ||
                           (col + 3 == cols && r % 3 == 1) || rng() % 16 == 0;
      if (outlier) {
        c.codes[idx] = 0;
        T v = static_cast<T>(value(rng));
        // NaN is the x86 default NaN: every NaN the arithmetic makes from
        // these (Inf - Inf included) carries the same bits, so results do
        // not hang on which operand a compiler puts first.
        if (kind == OutlierKind::NanInf && n_outliers % 5 == 1)
          v = -std::numeric_limits<T>::quiet_NaN();
        if (kind == OutlierKind::NanInf && n_outliers % 5 == 2)
          v = std::numeric_limits<T>::infinity();
        if (kind == OutlierKind::NanInf && n_outliers % 5 == 3)
          v = -std::numeric_limits<T>::infinity();
        // One signalling NaN, the field's only NaN: it must come back
        // unquieted, bit for bit.
        if (kind == OutlierKind::Signalling && n_outliers == 1)
          v = std::numeric_limits<T>::signaling_NaN();
        c.placed[idx] = v;
        ++n_outliers;
        continue;
      }
      const std::uint64_t pick = rng() % 32;
      if (pick == 0) c.codes[idx] = 1;
      else if (pick == 1) c.codes[idx] = bins - 1;
      else
        c.codes[idx] = radius - 3 + static_cast<std::uint32_t>(rng() % 7);
    }
  }
  return c;
}

template <typename T>
simd::aligned_vector<T> run_recon2(const simd::KernelTable& kt,
                                   const ReconCase<T>& c, std::size_t n0,
                                   std::size_t n1, double eb,
                                   std::uint32_t bins) {
  simd::aligned_vector<T> recon = c.placed;
  if constexpr (std::is_same_v<T, float>)
    kt.lorenzo2_recon_f32(c.codes.data(), n0, n1, eb, bins, recon.data());
  else
    kt.lorenzo2_recon_f64(c.codes.data(), n0, n1, eb, bins, recon.data());
  return recon;
}

template <typename T>
simd::aligned_vector<T> run_recon3(const simd::KernelTable& kt,
                                   const ReconCase<T>& c, std::size_t n0,
                                   std::size_t n1, std::size_t n2, double eb,
                                   std::uint32_t bins) {
  simd::aligned_vector<T> recon = c.placed;
  if constexpr (std::is_same_v<T, float>)
    kt.lorenzo3_recon_f32(c.codes.data(), n0, n1, n2, eb, bins, recon.data());
  else
    kt.lorenzo3_recon_f64(c.codes.data(), n0, n1, n2, eb, bins, recon.data());
  return recon;
}

/// Outliers are never written: each code-0 point keeps its placed bits.
template <typename T>
::testing::AssertionResult outliers_untouched(const ReconCase<T>& c,
                                              const simd::aligned_vector<T>& r) {
  for (std::size_t i = 0; i < c.codes.size(); ++i)
    if (c.codes[i] == 0 && std::memcmp(&c.placed[i], &r[i], sizeof(T)) != 0)
      return ::testing::AssertionFailure() << "outlier at [" << i
                                           << "] overwritten";
  return ::testing::AssertionSuccess();
}

/// (eb, bins) pairs of the reconstruct sweeps. bins = 2^32 - 2 puts codes
/// at and above 2^31 (bins - 1 = 4294967293); eb = 1e-3 gives f32 sums
/// that are not floats and round on the cast.
const std::vector<std::pair<double, std::uint32_t>> kReconBounds = {
    {0.25, 16u}, {1e-3, 65536u}, {1e-9, 4294967294u}};

/// Every (shape, bound, outlier kind) case: rebuild(kt, case, eb, bins)
/// for the scalar reference and the backend must agree bit for bit.
template <typename T, typename Rebuild>
void recon_parity_sweep(const simd::KernelTable& ref,
                        const simd::KernelTable& kt, std::size_t rows,
                        std::size_t cols, std::uint64_t seed,
                        Rebuild&& rebuild) {
  for (const auto& [eb, bins] : kReconBounds) {
    for (const OutlierKind kind : {OutlierKind::Finite, OutlierKind::NanInf,
                                   OutlierKind::Signalling}) {
      SCOPED_TRACE("eb " + std::to_string(eb) + " bins " +
                   std::to_string(bins) + " kind " +
                   std::to_string(static_cast<int>(kind)));
      const auto c = recon_case<T>(rows, cols, bins, kind, seed);
      const auto a = rebuild(ref, c, eb, bins);
      const auto b = rebuild(kt, c, eb, bins);
      EXPECT_TRUE(bits_equal(a, b, "lorenzo recon"));
      EXPECT_TRUE(outliers_untouched(c, b));
    }
  }
}

/// Rank 2 over the rank-3 sweep's extents: fields too thin for the
/// wavefront, whole 4-row blocks and leftover rows after them.
template <typename T>
void lorenzo2_recon_parity(const simd::KernelTable& ref,
                           const simd::KernelTable& kt) {
  for (const std::size_t n0 : {1, 3, 4, 5, 9, 13}) {
    for (const std::size_t n1 : {1, 7, 8, 9, 33}) {
      SCOPED_TRACE(std::to_string(n0) + "x" + std::to_string(n1));
      recon_parity_sweep<T>(
          ref, kt, n0, n1, 131 + n0 * n1,
          [&](const simd::KernelTable& k, const ReconCase<T>& c, double eb,
              std::uint32_t bins) {
            return run_recon2<T>(k, c, n0, n1, eb, bins);
          });
    }
  }
}

/// The Lorenzo3d sweep's shapes; the codes are laid out as n0 * n1 rows of
/// n2, so the fill and drain columns are those of each wavefront row.
template <typename T>
void lorenzo3_recon_parity(const simd::KernelTable& ref,
                           const simd::KernelTable& kt) {
  for (const std::size_t n0 : {1, 2, 5}) {
    for (const std::size_t n1 : {1, 3, 4, 5, 9}) {
      for (const std::size_t n2 : {1, 7, 8, 33}) {
        SCOPED_TRACE(std::to_string(n0) + "x" + std::to_string(n1) + "x" +
                     std::to_string(n2));
        recon_parity_sweep<T>(
            ref, kt, n0 * n1, n2, 137 + n0 * n1 * n2,
            [&](const simd::KernelTable& k, const ReconCase<T>& c, double eb,
                std::uint32_t bins) {
              return run_recon3<T>(k, c, n0, n1, n2, eb, bins);
            });
      }
    }
  }
}

/// The quant kernels' codes and outliers, placed and fed back through the
/// recon kernel, rebuild their recon bit for bit: the decoder sees what
/// the encoder predicted from.
template <typename T>
void recon_round_trip(const simd::KernelTable& ref,
                      const simd::KernelTable& kt) {
  const std::vector<std::array<std::size_t, 3>> shapes = {
      {1, 9, 33}, {1, 40, 40}, {3, 9, 33}, {5, 13, 17}, {2, 4, 8}};
  for (const auto& [n0, n1, n2] : shapes) {
    SCOPED_TRACE(std::to_string(n0) + "x" + std::to_string(n1) + "x" +
                 std::to_string(n2));
    const std::size_t n = n0 * n1 * n2;
    for (int block = 0; block < 3; ++block) {
      auto src = block == 0   ? random_block(n, 149 + n)
                 : block == 1 ? poisoned_block(n, 151 + n)
                              : random_block(n, 157 + n);
      if (block == 2)
        for (double& x : src) x += 1.0e6;
      const simd::aligned_vector<T> values(src.begin(), src.end());
      for (const double eb : {0.25, 0.04, 1e-3}) {
        for (const std::uint32_t bins : {16u, 65536u, 4294967294u}) {
          // Rank 2 over the n0 * n1 rows, rank 3 over the whole shape.
          for (const int rank : {2, 3}) {
            SCOPED_TRACE("rank " + std::to_string(rank) + " eb " +
                         std::to_string(eb) + " bins " +
                         std::to_string(bins));
            const LorenzoRun<T> q =
                rank == 2 ? run_lorenzo<T>(ref, values, n0 * n1, n2, eb, bins)
                          : run_lorenzo3<T>(ref, values, n0, n1, n2, eb, bins);
            ReconCase<T> c;
            c.codes = q.codes;
            c.placed.assign(n, T(0));
            std::size_t next = 0;
            for (std::size_t i = 0; i < n; ++i)
              if (c.codes[i] == 0) c.placed[i] = q.outliers[next++];
            const auto r = rank == 2
                               ? run_recon2<T>(kt, c, n0 * n1, n2, eb, bins)
                               : run_recon3<T>(kt, c, n0, n1, n2, eb, bins);
            EXPECT_TRUE(bits_equal(r, q.recon, "round-trip recon"));
          }
        }
      }
    }
  }
}

}  // namespace

TEST_P(SimdKernelParity, Lorenzo2dReconFloat) {
  lorenzo2_recon_parity<float>(ref(), kt());
}

TEST_P(SimdKernelParity, Lorenzo2dReconDouble) {
  lorenzo2_recon_parity<double>(ref(), kt());
}

TEST_P(SimdKernelParity, Lorenzo3dReconFloat) {
  lorenzo3_recon_parity<float>(ref(), kt());
}

TEST_P(SimdKernelParity, Lorenzo3dReconDouble) {
  lorenzo3_recon_parity<double>(ref(), kt());
}

TEST_P(SimdKernelParity, LorenzoReconRoundTripsTheQuantKernels) {
  recon_round_trip<float>(ref(), kt());
  recon_round_trip<double>(ref(), kt());
}

TEST_P(SimdKernelParity, SseAccumulators) {
  for (const std::size_t n : kSizes) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const auto a64 = random_block(n, 83 + n);
    const auto b64 = random_block(n, 89 + n);
    const simd::aligned_vector<float> a32(a64.begin(), a64.end());
    const simd::aligned_vector<float> b32(b64.begin(), b64.end());

    const double f32_ref = ref().sse_f32(a32.data(), b32.data(), n);
    const double f32_kt = kt().sse_f32(a32.data(), b32.data(), n);
    EXPECT_EQ(std::memcmp(&f32_ref, &f32_kt, sizeof(double)), 0)
        << f32_ref << " vs " << f32_kt;

    const double f64_ref = ref().sse_f64(a64.data(), b64.data(), n);
    const double f64_kt = kt().sse_f64(a64.data(), b64.data(), n);
    EXPECT_EQ(std::memcmp(&f64_ref, &f64_kt, sizeof(double)), 0)
        << f64_ref << " vs " << f64_kt;

    const double c_ref = ref().sse_cast_f32(a32.data(), b64.data(), n);
    const double c_kt = kt().sse_cast_f32(a32.data(), b64.data(), n);
    EXPECT_EQ(std::memcmp(&c_ref, &c_kt, sizeof(double)), 0)
        << c_ref << " vs " << c_kt;
  }
}

TEST_P(SimdKernelParity, SseGoldenVector) {
  // Errors of 1,2,3,4,5 -> SSE 55 exactly in double.
  const simd::aligned_vector<double> a = {1.0, 2.0, 3.0, 4.0, 5.0};
  const simd::aligned_vector<double> b(5, 0.0);
  EXPECT_EQ(kt().sse_f64(a.data(), b.data(), 5), 55.0);
  EXPECT_EQ(kt().sse_f64(a.data(), b.data(), 0), 0.0);
}

// ---------------------------------------------------------------------------
// Whole-archive identity across forced backends
// ---------------------------------------------------------------------------

namespace {

/// Every engine, fixed-PSNR and fixed-rate, on every supported backend:
/// the archive bytes must equal the scalar backend's, and decoding that
/// archive on every backend must give back, bit for bit, the values the
/// scalar encode handed back.
void expect_same_bytes_on_every_backend(const data::Dims& dims,
                                        std::vector<std::size_t> tile) {
  auto values = data::smoothed_noise(dims, 17, 2, 2);
  data::rescale(values, -3.0f, 6.0f);
  const std::span<const float> span(values);

  const auto engines = {core::kCodecSzLorenzo, core::kCodecTransformHaar,
                        core::kCodecTransformDct, core::kCodecInterp,
                        core::kCodecZfpRate, core::kCodecStore};
  for (const core::CodecId engine : engines) {
    SCOPED_TRACE("engine " + std::to_string(static_cast<int>(engine)));
    for (const auto& request : {core::ControlRequest::fixed_psnr(65.0),
                                core::ControlRequest::fixed_rate(7.0)}) {
      SCOPED_TRACE(request.mode == core::ControlMode::FixedRate ? "rate"
                                                                : "psnr");
      core::CompressOptions opts;
      opts.engine = engine;
      opts.parallel.threads = 2;
      opts.parallel.tile = tile;
      std::vector<std::uint8_t> reference;
      std::vector<float> handed_back(values.size());
      for (const simd::Backend b : simd::supported_backends()) {
        BackendPin pin(b);
        const auto r = core::compress_blocked<float>(
            span, dims, request, opts,
            reference.empty() ? std::span<float>(handed_back)
                              : std::span<float>());
        if (reference.empty()) {
          reference = r.stream;  // scalar comes first in the list
          const auto out = core::decompress_blocked<float>(r.stream, 2);
          EXPECT_EQ(out.values.size(), values.size());
        } else {
          EXPECT_EQ(r.stream, reference)
              << "backend " << simd::backend_name(b)
              << " diverged from scalar bytes";
        }
      }
      for (const simd::Backend b : simd::supported_backends()) {
        BackendPin pin(b);
        SCOPED_TRACE(std::string("decode on ") + simd::backend_name(b));
        const auto out = core::decompress_blocked<float>(reference, 2);
        EXPECT_TRUE(bits_equal(out.values, handed_back, "decoded values"));
      }
    }
  }
}

}  // namespace

TEST(SimdArchiveIdentity, EveryEngineEveryBackendSameBytes) {
  expect_same_bytes_on_every_backend(data::Dims{48, 40}, {});
}

TEST(SimdArchiveIdentity, EveryEngineEveryBackendSameBytesRank3) {
  // 16^3 tiles leave partial tiles on every axis (20 = 16 + 4,
  // 36 = 2*16 + 4, 44 = 2*16 + 12), so the rank-3 Lorenzo kernel meets its
  // thin-shape fallback as well as the wavefront.
  expect_same_bytes_on_every_backend(data::Dims{20, 36, 44}, {16, 16, 16});
}
