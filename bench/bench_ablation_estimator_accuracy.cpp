// Ablation — where does the Eq. (3) midpoint approximation break?
//
// The paper observes (Section V) that fixed-PSNR accuracy degrades as the
// quantization bins widen (low PSNR targets). We sweep the target from
// 10 to 130 dB on one field of each dataset and report predicted vs
// actual deviation, plus the effect of the quantization-bin *count*
// (which governs how many points fall out of the quantizer's range).
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>

#include "core/batch.h"
#include "core/pipeline.h"
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

void print_sweep() {
  const auto datasets = data::make_all_datasets({});
  std::printf("\n=== Ablation: estimator deviation vs target PSNR ===\n");
  std::printf("(one representative field per dataset; deviation = actual - "
              "target, dB)\n\n%8s", "target");
  for (const auto& ds : datasets)
    std::printf(" %14s", ds.fields.front().name.substr(0, 14).c_str());
  std::printf("\n");
  for (double target = 10.0; target <= 130.0; target += 10.0) {
    std::printf("%8.0f", target);
    for (const auto& ds : datasets) {
      const auto& f = ds.fields.front();
      const auto r = compress_fixed_psnr(f.span(), f.dims, target);
      const auto rep = verify_stream(f.span(), r.stream);
      std::printf(" %+14.2f", rep.psnr_db - target);
    }
    std::printf("\n");
  }
  std::printf("\nexpected shape: large positive deviation at 10-30 dB "
              "(midpoint model conservative for peaked error\n"
              "distributions), near zero from ~60 dB, slight positive drift "
              "again at 120+ dB (outliers stored exactly).\n");

  std::printf("\n=== Ablation: quantization bin count at 80 dB "
              "(Hurricane/U) ===\n");
  std::printf("%10s %12s %12s %12s\n", "bins", "actual dB", "outliers",
              "bits/value");
  const auto hur = data::make_hurricane({});
  const auto& f = hur.field("U");
  for (std::uint32_t bins : {16u, 256u, 4096u, 65536u}) {
    core::CompressOptions opts;
    opts.quantization_bins = bins;
    const auto r = compress_fixed_psnr(f.span(), f.dims, 80.0, opts);
    const auto rep = verify_stream(f.span(), r.stream);
    std::printf("%10u %12.2f %12zu %12.2f\n", bins, rep.psnr_db,
                r.info.outlier_count, r.info.bit_rate);
  }
  std::printf("(fewer bins -> more exact outliers -> same-or-higher PSNR at "
              "a bit-rate cost; accuracy of the PSNR control is unaffected, "
              "matching Theorem 3)\n\n");
}

void BM_FixedPsnrLowTarget(benchmark::State& state) {
  const auto hur = data::make_hurricane({0.5, 20180713});
  const auto& f = hur.field("U");
  const auto target = static_cast<double>(state.range(0));
  for (auto _ : state) {
    auto r = compress_fixed_psnr(f.span(), f.dims, target);
    benchmark::DoNotOptimize(r.stream.data());
  }
}
BENCHMARK(BM_FixedPsnrLowTarget)->Arg(20)->Arg(80)->Arg(120)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_sweep();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
