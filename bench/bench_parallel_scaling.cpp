// Ablation — parallel decomposition cost and scaling.
//
// Two axes of parallelism: across fields (core/batch) and within a field
// via the block-parallel pipeline engine (core/pipeline), whose FPBK
// container also gives random-access decode. Blocking restarts
// prediction at block boundaries, so we also report the compression-ratio
// cost of each slab count — the classic HPC trade of parallelism vs. ratio.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "core/batch.h"
#include "core/pipeline.h"
#include "data/dataset.h"
#include "metrics/metrics.h"

namespace core = fpsnr::core;
namespace data = fpsnr::data;
namespace metrics = fpsnr::metrics;

namespace {

core::CompressResult compress_fixed_psnr(std::span<const float> values,
                                         const fpsnr::data::Dims& dims,
                                         double target,
                                         const core::CompressOptions& opts) {
  return core::compress_blocked<float>(
      values, dims, core::ControlRequest::fixed_psnr(target), opts);
}

void print_ratio_cost() {
  const auto ds = data::make_hurricane({});
  const auto& f = ds.field("U");
  const double eb_rel = 1e-4;

  std::printf("\n=== Ratio cost of slab decomposition "
              "(Hurricane/U, eb_rel 1e-4) ===\n");
  std::printf("%8s %14s %14s %14s\n", "slabs", "ratio", "bits/value",
              "max|err|<=eb");
  const double vr = metrics::value_range<float>(f.span());
  for (std::size_t slabs : {1ul, 2ul, 4ul, 8ul, 16ul}) {
    core::CompressOptions opts;
    opts.parallel.tile = {(f.dims[0] + slabs - 1) / slabs};
    const auto r = core::compress_blocked<float>(
        f.span(), f.dims, core::ControlRequest::relative(eb_rel), opts);
    const auto out = core::decompress<float>(r.stream);
    const auto rep = metrics::compare<float>(f.span(), out.values);
    std::printf("%8llu %14.2f %14.2f %14s\n",
                static_cast<unsigned long long>(r.block_count),
                r.info.compression_ratio, r.info.bit_rate,
                rep.max_abs_error <= eb_rel * vr * (1 + 1e-9) ? "yes" : "NO");
  }
  std::printf("(prediction restarts per slab: ratio decays gently with slab "
              "count; the error bound never moves)\n\n");
}

// The headline scaling curve: the block-parallel pipeline engine at 1..N
// worker threads. Block layout is fixed (auto), so every thread count
// produces byte-identical output and the timing difference is pure
// execution parallelism.
void BM_PipelineCompress(benchmark::State& state) {
  const auto ds = data::make_hurricane({});
  const auto& f = ds.field("U");
  core::CompressOptions opts;
  opts.parallel.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto result = compress_fixed_psnr(f.span(), f.dims, 80.0, opts);
    benchmark::DoNotOptimize(result.stream.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.bytes()));
}
BENCHMARK(BM_PipelineCompress)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_PipelineDecompress(benchmark::State& state) {
  const auto ds = data::make_hurricane({});
  const auto& f = ds.field("U");
  core::CompressOptions opts;
  const auto stream =
      compress_fixed_psnr(f.span(), f.dims, 80.0, opts).stream;
  const auto threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto out = core::decompress_blocked<float>(stream, threads);
    benchmark::DoNotOptimize(out.values.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.bytes()));
}
BENCHMARK(BM_PipelineDecompress)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_PipelineRandomAccessBlock(benchmark::State& state) {
  const auto ds = data::make_hurricane({});
  const auto& f = ds.field("U");
  core::CompressOptions opts;
  const auto stream =
      compress_fixed_psnr(f.span(), f.dims, 80.0, opts).stream;
  const auto info = core::inspect_block_stream(stream);
  std::size_t b = 0;
  for (auto _ : state) {
    auto out = core::decompress_block<float>(stream, b);
    benchmark::DoNotOptimize(out.values.data());
    b = (b + 1) % info.block_count;
  }
}
BENCHMARK(BM_PipelineRandomAccessBlock)->Unit(benchmark::kMillisecond);

void BM_BatchAcrossFields(benchmark::State& state) {
  const auto ds = data::make_hurricane({0.5, 20180713});
  const auto threads = static_cast<std::size_t>(state.range(0));
  core::BatchOptions opts;
  opts.threads = threads;
  for (auto _ : state) {
    auto batch = core::run_fixed_psnr_batch(ds, 80.0, opts);
    benchmark::DoNotOptimize(batch.fields.data());
  }
}
BENCHMARK(BM_BatchAcrossFields)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_ratio_cost();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
