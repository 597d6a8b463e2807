// Overhead claim (paper Section IV): "the only computational overhead of
// our approach is the time to calculate the value-range-based relative
// error bound ... which is negligible."
//
// We compare three ways to hit a PSNR target on one field:
//   1. fixed-PSNR (this paper): one compression pass + one formula,
//   2. search baseline (status quo): k full compress+decompress probes,
//   3. plain relative-bound compression (floor: what one pass costs).
//
// A second table runs fixed rate as the paper's dual: for every Hurricane
// field and the first 13 ATM fields (DatasetConfig{scale 2, seed 1}, one
// thread, default engine and tiles) it compresses at FixedPsnr{60}, then
// at FixedRate set to the payload bits/value that run achieved, and
// reports the time ratio and the PSNR gap per dataset.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "core/pipeline.h"
#include "core/distortion_model.h"
#include "core/search_baseline.h"
#include "data/dataset.h"
#include "io/archive.h"
#include "metrics/metrics.h"

namespace core = fpsnr::core;
namespace data = fpsnr::data;

namespace {

/// One whole-field block (tile {0}): the paper's single-stream setting.
core::CompressOptions whole_field() {
  core::CompressOptions opts;
  opts.parallel.tile = {0};
  return opts;
}

core::CompressResult compress_fixed_psnr(
    std::span<const float> values, const fpsnr::data::Dims& dims,
    double target, const core::CompressOptions& opts = whole_field()) {
  return core::compress_blocked<float>(
      values, dims, core::ControlRequest::fixed_psnr(target), opts);
}

fpsnr::metrics::ErrorReport verify_stream(std::span<const float> values,
                                          std::span<const std::uint8_t> stream) {
  const auto decoded = core::decompress<float>(stream);
  return fpsnr::metrics::compare<float>(values, decoded.values);
}

const data::Dataset& hurricane() {
  static const data::Dataset ds = data::make_hurricane({});
  return ds;
}

void print_pass_counts() {
  const auto& f = hurricane().field("U");
  std::printf("\n=== Overhead: fixed-PSNR vs search-based tuning (field "
              "Hurricane/U, target 80 dB) ===\n");
  std::printf("%-28s %14s %16s\n", "method", "codec passes", "achieved dB");

  const auto fixed = compress_fixed_psnr(f.span(), f.dims, 80.0);
  const auto fixed_rep = verify_stream(f.span(), fixed.stream);
  std::printf("%-28s %14d %16.2f\n", "fixed-PSNR (Eq. 8)", 1, fixed_rep.psnr_db);

  for (double start : {1e-2, 1e-5, 1e-8}) {
    core::SearchOptions opts;
    opts.tolerance_db = 0.5;
    opts.initial_rel_bound = start;
    opts.compress = whole_field();
    const auto sr = core::search_fixed_psnr<float>(f.span(), f.dims, 80.0, opts);
    char label[64];
    std::snprintf(label, sizeof label, "search (start eb=%.0e)", start);
    std::printf("%-28s %14zu %16.2f\n", label, sr.compression_passes,
                sr.achieved_psnr_db);
  }
  std::printf("\n(the search multiplies cost by its pass count; Eq. 8 costs "
              "one pow() per field)\n\n");
}

/// Payload bits/value of an archive: its blocks, without header or index.
double payload_bits(const core::CompressResult& r, std::size_t n) {
  std::size_t bytes = 0;
  for (const auto& b : fpsnr::io::open_block_container(r.stream).blocks)
    bytes += b.size();
  return 8.0 * static_cast<double>(bytes) / static_cast<double>(n);
}

void print_fixed_rate_dual() {
  std::printf("=== Fixed rate as the dual of FixedPsnr{60}: FixedRate at the "
              "payload rate FixedPsnr{60} achieved (1 thread) ===\n");
  std::printf("%-10s %7s %12s %12s %10s %12s %12s %6s\n", "dataset",
              "fields", "psnr60 s", "rate s", "time x", "mean gap dB",
              "worst gap dB", "over");
  const data::DatasetConfig config{2.0, 1};
  const data::Dataset sets[] = {data::make_hurricane(config),
                                data::make_atm(config)};
  core::CompressOptions opts;
  opts.parallel.threads = 1;
  using clock = std::chrono::steady_clock;
  for (const auto& ds : sets) {
    const std::size_t fields = std::min<std::size_t>(ds.field_count(), 13);
    double psnr_s = 0.0, rate_s = 0.0, gap_sum = 0.0, worst = 0.0;
    int over = 0;  // fields whose FixedRate payload exceeds the budget
    for (std::size_t i = 0; i < fields; ++i) {
      const auto& f = ds.fields[i];
      const auto t0 = clock::now();
      const auto fixed = core::compress_blocked<float>(
          f.span(), f.dims, core::ControlRequest::fixed_psnr(60.0), opts);
      const auto t1 = clock::now();
      const double bits = payload_bits(fixed, f.size());
      const auto rate = core::compress_blocked<float>(
          f.span(), f.dims, core::ControlRequest::fixed_rate(bits), opts);
      const auto t2 = clock::now();
      if (payload_bits(rate, f.size()) > bits) ++over;
      psnr_s += std::chrono::duration<double>(t1 - t0).count();
      rate_s += std::chrono::duration<double>(t2 - t1).count();
      const double gap = rate.achieved_psnr_db - fixed.achieved_psnr_db;
      gap_sum += gap;
      if (std::abs(gap) > std::abs(worst)) worst = gap;
    }
    std::printf("%-10s %7zu %12.3f %12.3f %10.2f %12.2f %12.2f %6d\n",
                ds.name.c_str(), fields, psnr_s, rate_s, rate_s / psnr_s,
                gap_sum / static_cast<double>(fields), worst, over);
  }
  std::printf("(gap = FixedRate PSNR - FixedPsnr PSNR; the dual holds when "
              "every gap is within 0.5 dB and no payload is over its "
              "budget)\n\n");
}

void BM_FixedPsnrSinglePass(benchmark::State& state) {
  const auto& f = hurricane().field("U");
  for (auto _ : state) {
    auto r = compress_fixed_psnr(f.span(), f.dims, 80.0);
    benchmark::DoNotOptimize(r.stream.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.bytes()));
}
BENCHMARK(BM_FixedPsnrSinglePass)->Unit(benchmark::kMillisecond);

void BM_PlainRelativeBoundPass(benchmark::State& state) {
  // The floor: an ordinary SZ pass at the bound Eq. 8 produces. The delta
  // to BM_FixedPsnrSinglePass *is* the paper's claimed overhead.
  const auto& f = hurricane().field("U");
  const double eb = core::rel_bound_for_psnr(80.0);
  for (auto _ : state) {
    auto r = core::compress_blocked<float>(
        f.span(), f.dims, core::ControlRequest::relative(eb), whole_field());
    benchmark::DoNotOptimize(r.stream.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.bytes()));
}
BENCHMARK(BM_PlainRelativeBoundPass)->Unit(benchmark::kMillisecond);

void BM_SearchBaseline(benchmark::State& state) {
  const auto& f = hurricane().field("U");
  core::SearchOptions opts;
  opts.tolerance_db = 0.5;
  opts.initial_rel_bound = 1e-5;
  opts.compress = whole_field();
  for (auto _ : state) {
    auto sr = core::search_fixed_psnr<float>(f.span(), f.dims, 80.0, opts);
    benchmark::DoNotOptimize(sr.result.stream.data());
  }
}
BENCHMARK(BM_SearchBaseline)->Unit(benchmark::kMillisecond);

void BM_Equation8Only(benchmark::State& state) {
  // The analytical step in isolation: nanoseconds, i.e. "negligible".
  double target = 80.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::rel_bound_for_psnr(target));
    target += 1e-9;  // defeat constant folding
  }
}
BENCHMARK(BM_Equation8Only);

}  // namespace

int main(int argc, char** argv) {
  print_pass_counts();
  print_fixed_rate_dual();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
