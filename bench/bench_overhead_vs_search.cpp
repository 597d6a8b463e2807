// Overhead claim (paper Section IV): "the only computational overhead of
// our approach is the time to calculate the value-range-based relative
// error bound ... which is negligible."
//
// We compare three ways to hit a PSNR target on one field:
//   1. fixed-PSNR (this paper): one compression pass + one formula,
//   2. search baseline (status quo): k full compress+decompress probes,
//   3. plain relative-bound compression (floor: what one pass costs).
#include <benchmark/benchmark.h>

#include <cstdio>

#include "core/pipeline.h"
#include "core/distortion_model.h"
#include "core/search_baseline.h"
#include "data/dataset.h"
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
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
