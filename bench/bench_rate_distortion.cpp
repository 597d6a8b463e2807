// Ablation — rate-distortion behaviour of the fixed-PSNR mode.
//
// Not a paper table (the paper fixes quality, not rate), but the natural
// systems question a user asks next: what does each dB of demanded quality
// cost in bits? We sweep PSNR targets over the three datasets and report
// mean bit rate and compression ratio, plus the SZ-vs-transform-codec
// comparison at matched PSNR.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "core/batch.h"
#include "core/pipeline.h"
#include "data/dataset.h"

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


void print_tables() {
  const auto datasets = data::make_all_datasets({});
  std::printf("\n=== Rate-distortion: mean bits/value (compression ratio) "
              "per fixed-PSNR target ===\n%8s", "PSNR");
  for (const auto& ds : datasets) std::printf(" %20s", ds.name.c_str());
  std::printf("\n");
  for (double target : {30.0, 50.0, 70.0, 90.0, 110.0}) {
    std::printf("%8.0f", target);
    for (const auto& ds : datasets) {
      const auto batch = core::run_fixed_psnr_batch(ds, target);
      double rate = 0.0, ratio = 0.0;
      for (const auto& f : batch.fields) {
        rate += f.bit_rate;
        ratio += f.compression_ratio;
      }
      rate /= static_cast<double>(batch.fields.size());
      ratio /= static_cast<double>(batch.fields.size());
      std::printf("      %6.2f (%6.1fx)", rate, ratio);
    }
    std::printf("\n");
  }

  std::printf("\n=== Engine comparison at matched 70 dB (Hurricane fields) "
              "===\n%-10s %14s %14s %14s\n", "field", "sz bits/val",
              "haar bits/val", "dct bits/val");
  const auto hur = data::make_hurricane({});
  for (const auto& f : hur.fields) {
    double rates[3] = {0, 0, 0};
    const core::CodecId engines[] = {core::kCodecSzLorenzo,
                                     core::kCodecTransformHaar,
                                     core::kCodecTransformDct};
    for (int e = 0; e < 3; ++e) {
      core::CompressOptions opts = whole_field();
      opts.engine = engines[e];
      const auto r = compress_fixed_psnr(f.span(), f.dims, 70.0, opts);
      rates[e] = r.info.bit_rate;
    }
    std::printf("%-10s %14.2f %14.2f %14.2f\n", f.name.c_str(), rates[0],
                rates[1], rates[2]);
  }
  std::printf("\n(prediction beats the transform coders on smooth fields — "
              "the reason SZ is the paper's substrate)\n\n");
}

void BM_RateDistortionCell(benchmark::State& state) {
  const auto ds = data::make_nyx({0.5, 20180713});
  const auto target = static_cast<double>(state.range(0));
  for (auto _ : state) {
    auto batch = core::run_fixed_psnr_batch(ds, target);
    benchmark::DoNotOptimize(batch.fields.data());
  }
}
BENCHMARK(BM_RateDistortionCell)->Arg(30)->Arg(70)->Arg(110)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_tables();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
