// Temporal-compression ablation — spatial-only archives vs the v4 delta
// chain on the same snapshot series, at the same fixed-PSNR target.
//
// The paper's pipeline treats every snapshot as an independent field; the
// temporal subsystem (src/temporal/) instead codes each snapshot as a
// per-tile choice between spatial-from-scratch and the delta against the
// previous *reconstruction*. On a slowly evolving series the residual is
// far smaller than the field, so at equal PSNR the chain should compress
// substantially better. Each arm exports its end-to-end compression ratio
// as the `ratio` counter; tools/bench_compare.py gates
//
//     ratio(BM_TemporalSeriesCompress/N) >=
//         1.4 x ratio(BM_TemporalSpatialOnlyCompress/N)
//
// on the slow-evolution config — an intra-run, machine-independent claim
// (the bytes are deterministic, so the gate cannot flake on a busy runner).
// Wall time per arm doubles as the throughput comparison: the temporal arm
// pays one extra closed-loop decode per frame.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/pipeline.h"
#include "data/timeseries.h"
#include "fpsnr/timeseries.h"

namespace core = fpsnr::core;
namespace data = fpsnr::data;

namespace {

// Slow evolution (dt = 0.02): consecutive 64x64 snapshots are close, the
// regime the subsystem exists for. The same config backs the gate tests in
// tests/test_temporal.cpp.
std::vector<data::Field> slow_series() {
  static const std::vector<data::Field> series = [] {
    data::TimeSeriesConfig cfg;
    cfg.dims = data::Dims{64, 64};
    cfg.snapshots = 12;
    cfg.dt = 0.02;
    return data::make_advected_series(cfg);
  }();
  return series;
}

std::size_t raw_bytes(const std::vector<data::Field>& series) {
  std::size_t n = 0;
  for (const auto& f : series) n += f.values.size() * sizeof(float);
  return n;
}

/// One keyframe at t=0, deltas for the rest: the cadence that shows the
/// chain's steady-state ratio rather than averaging in keyframe cost.
fpsnr::TimeSeriesOptions series_options() {
  fpsnr::TimeSeriesOptions topts;
  topts.series = "bench";
  topts.keyframe_interval = 0;
  topts.keep_archives = false;
  topts.session.threads = 1;
  return topts;
}

void BM_TemporalSpatialOnlyCompress(benchmark::State& state) {
  const auto series = slow_series();
  const double target_db = static_cast<double>(state.range(0));
  core::CompressOptions opts;
  opts.parallel.threads = 1;
  std::size_t compressed = 0;
  for (auto _ : state) {
    compressed = 0;
    for (const auto& f : series) {
      auto r = core::compress_blocked<float>(
          std::span<const float>(f.values), f.dims,
          core::ControlRequest::fixed_psnr(target_db), opts);
      compressed += r.stream.size();
      benchmark::DoNotOptimize(r.stream.data());
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(raw_bytes(series)));
  state.counters["ratio"] = static_cast<double>(raw_bytes(series)) /
                            static_cast<double>(compressed);
  state.counters["compressed_B"] = static_cast<double>(compressed);
}
BENCHMARK(BM_TemporalSpatialOnlyCompress)->Arg(60)->Arg(80)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_TemporalSeriesCompress(benchmark::State& state) {
  const auto series = slow_series();
  const double target_db = static_cast<double>(state.range(0));
  std::size_t compressed = 0;
  for (auto _ : state) {
    fpsnr::TimeSeriesSession session(fpsnr::FixedPsnr{target_db},
                                     series_options());
    compressed = 0;
    for (const auto& f : series) {
      fpsnr::Field snap;
      snap.dims = f.dims.extents;
      snap.f32 = f.values;
      const auto rec = session.push(snap);
      compressed += rec.report.archive.size();
      benchmark::DoNotOptimize(rec.report.archive.data());
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(raw_bytes(series)));
  state.counters["ratio"] = static_cast<double>(raw_bytes(series)) /
                            static_cast<double>(compressed);
  state.counters["compressed_B"] = static_cast<double>(compressed);
}
BENCHMARK(BM_TemporalSeriesCompress)->Arg(60)->Arg(80)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

// Decode side: replaying the chain from the keyframe vs decoding
// independent spatial archives. Not gated — reported for the throughput
// picture (the chain decode applies one reference add per delta frame).
void BM_TemporalChainDecode(benchmark::State& state) {
  const auto series = slow_series();
  const double target_db = static_cast<double>(state.range(0));
  auto topts = series_options();
  topts.keep_archives = true;
  fpsnr::TimeSeriesSession session(fpsnr::FixedPsnr{target_db}, topts);
  for (const auto& f : series) {
    fpsnr::Field snap;
    snap.dims = f.dims.extents;
    snap.f32 = f.values;
    session.push(snap);
  }
  for (auto _ : state) {
    fpsnr::TimeSeriesDecoder dec(/*threads=*/1);
    for (std::size_t t = 0; t < series.size(); ++t) {
      const auto frame = dec.feed(session.archive(t));
      benchmark::DoNotOptimize(frame.f32.data());
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(raw_bytes(series)));
}
BENCHMARK(BM_TemporalChainDecode)->Arg(60)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
