// Per-kernel SIMD throughput: every vectorized hot kernel runs as an arm
// pair — "/scalar" pinned to the reference table, "/dispatch" through the
// runtime dispatcher — so time(scalar)/time(dispatch) measured INSIDE one
// run is the vectorization speedup, independent of the machine. The
// bench-regression CI job feeds both arms to tools/bench_compare.py, which
// gates on >= 1.5x for at least four kernels whenever the dispatched
// backend is not scalar (the active backend is exported through the
// "fpsnr_simd_backend" context key below; FPSNR_SIMD=scalar turns the
// gate off and the pairs simply measure parity).
//
// huffman_pack is expected to sit near 1.0x: the bit-packing merge is
// inherently serial, and its win comes from batching BitWriter calls, not
// lanes — it is benchmarked for regression tracking, not for the gate.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <random>
#include <vector>

#include "huffman/huffman.h"
#include "simd/aligned.h"
#include "simd/dispatch.h"

namespace huffman = fpsnr::huffman;
namespace simd = fpsnr::simd;

namespace {

constexpr std::size_t kN = std::size_t{1} << 16;  // doubles per workload

simd::aligned_vector<double> smooth_field(std::size_t n, std::uint64_t seed) {
  // Smooth-plus-noise content: representative magnitudes for the
  // quantizers (mostly small codes, occasional spikes), deterministic.
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> noise(-0.05, 0.05);
  simd::aligned_vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = 3.0 * std::sin(static_cast<double>(i) * 0.013) + noise(rng);
  return v;
}

void bm_haar_fwd(benchmark::State& state, const simd::KernelTable& kt) {
  const auto line = smooth_field(kN, 11);
  const std::size_t pairs = kN / 2;
  simd::aligned_vector<double> approx(pairs), detail(pairs);
  const double c = 1.0 / std::numbers::sqrt2;
  for (auto _ : state) {
    kt.haar_fwd_pairs(line.data(), approx.data(), detail.data(), pairs, c);
    benchmark::DoNotOptimize(approx.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kN * sizeof(double)));
}

struct DctTables {
  simd::aligned_vector<double> jk, kj;
};

DctTables dct_tables(std::size_t m) {
  DctTables t{simd::aligned_vector<double>(m * m),
              simd::aligned_vector<double>(m * m)};
  for (std::size_t j = 0; j < m; ++j)
    for (std::size_t k = 0; k < m; ++k) {
      const double c =
          std::cos(std::numbers::pi * (static_cast<double>(j) + 0.5) *
                   static_cast<double>(k) / static_cast<double>(m));
      t.jk[j * m + k] = c;
      t.kj[k * m + j] = c;
    }
  return t;
}

void bm_dct2_lines(benchmark::State& state, const simd::KernelTable& kt) {
  constexpr std::size_t m = 64;
  const auto x = smooth_field(kN, 13);
  const DctTables tabs = dct_tables(m);
  const double s0 = std::sqrt(1.0 / static_cast<double>(m));
  const double sk = std::sqrt(2.0 / static_cast<double>(m));
  simd::aligned_vector<double> y(kN);
  for (auto _ : state) {
    for (std::size_t off = 0; off < kN; off += m)
      kt.dct2_line(x.data() + off, y.data() + off, m, tabs.jk.data(),
                   tabs.kj.data(), s0, sk);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kN * sizeof(double)));
}

void bm_zfpr_quant(benchmark::State& state, const simd::KernelTable& kt) {
  constexpr std::size_t group = 256;
  const auto coeffs = smooth_field(kN, 17);
  const double bin = 2.0 * 1e-4;
  simd::aligned_vector<std::uint64_t> zz(group);
  simd::aligned_vector<double> recon(kN);
  for (auto _ : state) {
    unsigned total = 0;
    for (std::size_t g0 = 0; g0 < kN; g0 += group)
      total += kt.zfpr_quant_group(coeffs.data() + g0, group, bin, zz.data(),
                                   recon.data() + g0);
    benchmark::DoNotOptimize(total);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kN * sizeof(double)));
}

void bm_lorenzo2(benchmark::State& state, const simd::KernelTable& kt) {
  constexpr std::size_t n0 = 512, n1 = 512;
  const auto f64 = smooth_field(n0 * n1, 19);
  const simd::aligned_vector<float> values(f64.begin(), f64.end());
  simd::aligned_vector<std::uint32_t> codes(n0 * n1);
  simd::aligned_vector<float> recon(n0 * n1), outliers(n0 * n1);
  for (auto _ : state) {
    const std::size_t n_out =
        kt.lorenzo2_quant_f32(values.data(), n0, n1, 1e-3, 65536,
                              codes.data(), recon.data(), outliers.data());
    benchmark::DoNotOptimize(n_out);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n0 * n1 * sizeof(float)));
}

void bm_lorenzo3(benchmark::State& state, const simd::KernelTable& kt) {
  // One 64^3 field: the shape of the pipeline's rank-3 tiles, scaled up so
  // a call is long enough to time.
  constexpr std::size_t n0 = 64, n1 = 64, n2 = 64;
  const auto f64 = smooth_field(n0 * n1 * n2, 37);
  const simd::aligned_vector<float> values(f64.begin(), f64.end());
  simd::aligned_vector<std::uint32_t> codes(n0 * n1 * n2);
  simd::aligned_vector<float> recon(n0 * n1 * n2);
  for (auto _ : state) {
    kt.lorenzo3_quant_f32(values.data(), n0, n1, n2, 1e-3, 65536,
                          codes.data(), recon.data());
    benchmark::DoNotOptimize(codes.data());
    benchmark::DoNotOptimize(recon.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(n0 * n1 * n2 * sizeof(float)));
}

// The recon arms decode the codes the quant arms above produce. The quant
// kernel's recon already holds every outlier at its code-0 point, which is
// the recon kernels' input contract; they rewrite only the other points,
// so every iteration starts from an equivalent buffer.

void bm_lorenzo2_recon(benchmark::State& state, const simd::KernelTable& kt) {
  constexpr std::size_t n0 = 512, n1 = 512;
  const auto f64 = smooth_field(n0 * n1, 19);
  const simd::aligned_vector<float> values(f64.begin(), f64.end());
  simd::aligned_vector<std::uint32_t> codes(n0 * n1);
  simd::aligned_vector<float> recon(n0 * n1), outliers(n0 * n1);
  simd::kernels_for(simd::Backend::Scalar)
      .lorenzo2_quant_f32(values.data(), n0, n1, 1e-3, 65536, codes.data(),
                          recon.data(), outliers.data());
  for (auto _ : state) {
    kt.lorenzo2_recon_f32(codes.data(), n0, n1, 1e-3, 65536, recon.data());
    benchmark::DoNotOptimize(recon.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n0 * n1 * sizeof(float)));
}

void bm_lorenzo3_recon(benchmark::State& state, const simd::KernelTable& kt) {
  constexpr std::size_t n0 = 64, n1 = 64, n2 = 64;
  const auto f64 = smooth_field(n0 * n1 * n2, 37);
  const simd::aligned_vector<float> values(f64.begin(), f64.end());
  simd::aligned_vector<std::uint32_t> codes(n0 * n1 * n2);
  simd::aligned_vector<float> recon(n0 * n1 * n2);
  simd::kernels_for(simd::Backend::Scalar)
      .lorenzo3_quant_f32(values.data(), n0, n1, n2, 1e-3, 65536,
                          codes.data(), recon.data());
  for (auto _ : state) {
    kt.lorenzo3_recon_f32(codes.data(), n0, n1, n2, 1e-3, 65536,
                          recon.data());
    benchmark::DoNotOptimize(recon.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(n0 * n1 * n2 * sizeof(float)));
}

void bm_huffman_pack(benchmark::State& state, const simd::KernelTable& kt) {
  // Realistic post-quantization symbol skew: geometric around the zero
  // code, canonical table built by the production coder.
  constexpr std::size_t alphabet = 1024;
  std::mt19937_64 rng(23);
  std::geometric_distribution<std::uint32_t> spread(0.2);
  std::vector<std::uint32_t> syms(kN);
  std::vector<std::uint64_t> freq(alphabet, 0);
  for (auto& s : syms) {
    const auto off = static_cast<std::int64_t>(spread(rng));
    const std::int64_t centered = 512 + (rng() % 2 ? off : -off);
    s = static_cast<std::uint32_t>(std::clamp<std::int64_t>(
        centered, 0, static_cast<std::int64_t>(alphabet) - 1));
    ++freq[s];
  }
  const auto lengths = huffman::build_code_lengths(freq);
  const auto codes = huffman::canonical_codes(lengths);
  std::vector<std::uint64_t> entries(alphabet, 0);
  for (std::size_t s = 0; s < alphabet; ++s) {
    if (lengths[s] == 0) continue;
    std::uint32_t rev = 0;
    for (unsigned b = 0; b < lengths[s]; ++b)
      rev |= ((codes[s] >> b) & 1u) << (lengths[s] - 1 - b);
    entries[s] = rev | (std::uint64_t{lengths[s]} << 32);
  }
  std::vector<std::uint64_t> words((kN * huffman::kMaxCodeLength + 63) / 64 +
                                   1);
  for (auto _ : state) {
    std::uint64_t carry = 0;
    unsigned carry_bits = 0;
    std::size_t bad = simd::kNoBadSymbol;
    const std::size_t nw =
        kt.huffman_pack(syms.data(), syms.size(), entries.data(), 0,
                        alphabet, words.data(), &carry, &carry_bits, &bad);
    benchmark::DoNotOptimize(nw);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kN));
}

void bm_sse_f64(benchmark::State& state, const simd::KernelTable& kt) {
  const auto a = smooth_field(kN, 29);
  const auto b = smooth_field(kN, 31);
  for (auto _ : state) {
    const double sse = kt.sse_f64(a.data(), b.data(), kN);
    benchmark::DoNotOptimize(sse);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kN * sizeof(double)));
}

void register_arm_pairs() {
  const simd::KernelTable& scalar =
      simd::kernels_for(simd::Backend::Scalar);
  const simd::KernelTable& dispatch = simd::kernels();
  struct Kernel {
    const char* name;
    void (*fn)(benchmark::State&, const simd::KernelTable&);
  };
  const Kernel kernels[] = {
      {"BM_SimdHaarFwd", bm_haar_fwd},     {"BM_SimdDct2", bm_dct2_lines},
      {"BM_SimdZfprQuant", bm_zfpr_quant}, {"BM_SimdLorenzo2", bm_lorenzo2},
      {"BM_SimdLorenzo3", bm_lorenzo3},
      {"BM_SimdLorenzo2Recon", bm_lorenzo2_recon},
      {"BM_SimdLorenzo3Recon", bm_lorenzo3_recon},
      {"BM_SimdHuffmanPack", bm_huffman_pack}, {"BM_SimdSse", bm_sse_f64},
  };
  for (const Kernel& k : kernels) {
    benchmark::RegisterBenchmark(
        (std::string(k.name) + "/scalar").c_str(),
        [fn = k.fn, &scalar](benchmark::State& s) { fn(s, scalar); })
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark(
        (std::string(k.name) + "/dispatch").c_str(),
        [fn = k.fn, &dispatch](benchmark::State& s) { fn(s, dispatch); })
        ->Unit(benchmark::kMicrosecond);
  }
}

}  // namespace

int main(int argc, char** argv) {
  // bench_compare.py keys its vectorization gate off this: "scalar" (or
  // absent) disables it, anything else demands the speedup.
  benchmark::AddCustomContext("fpsnr_simd_backend", simd::kernels().name);
  register_arm_pairs();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
