// Streaming I/O scaling — the write and read sides of the FPBK file path.
//
// BM_InMemoryCompress vs BM_StreamingCompress at 1/2/4/8 threads shows that
// spilling blocks as they finish costs no wall-clock (the file write rides
// the compute) while dropping peak payload memory from O(container) to the
// reorder buffer. BM_MmapFullDecode vs BM_MmapBlockDecode shows random
// access: one block out of a 16-block archive decodes for ~1/16 of the
// full-decode work regardless of archive size.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>

#include "core/pipeline.h"
#include "data/synth.h"
#include "io/archive.h"
#include "io/streaming_archive.h"

namespace core = fpsnr::core;
namespace data = fpsnr::data;
namespace io = fpsnr::io;

namespace {

namespace fs = std::filesystem;

const data::Dims kDims{512, 512};
constexpr std::size_t kBlockRows = 32;  // 16 blocks

std::vector<float> make_field() {
  auto v = data::smoothed_noise(kDims, 77, 3, 2);
  data::rescale(v, -10.0f, 35.0f);
  return v;
}

core::CompressOptions options(std::size_t threads) {
  core::CompressOptions opts;
  opts.parallel.threads = threads;
  opts.parallel.tile = {kBlockRows};
  return opts;
}

std::string bench_path() {
  return (fs::temp_directory_path() / "bench_streaming.fpbk").string();
}

void BM_InMemoryCompress(benchmark::State& state) {
  const auto values = make_field();
  const auto threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto r = core::compress_blocked<float>(
        std::span<const float>(values), kDims,
        core::ControlRequest::fixed_psnr(70.0), options(threads));
    benchmark::DoNotOptimize(r.stream.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(values.size() * 4));
}
BENCHMARK(BM_InMemoryCompress)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_StreamingCompress(benchmark::State& state) {
  const auto values = make_field();
  const auto threads = static_cast<std::size_t>(state.range(0));
  io::StreamingStats stats;
  for (auto _ : state) {
    auto r = core::compress_to_file<float>(
        std::span<const float>(values), kDims,
        core::ControlRequest::fixed_psnr(70.0), options(threads),
        bench_path(), &stats);
    benchmark::DoNotOptimize(r.info.compressed_bytes);
  }
  state.counters["peak_buffer_B"] =
      static_cast<double>(stats.peak_buffered_bytes);
  state.counters["container_B"] = static_cast<double>(stats.total_bytes);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(values.size() * 4));
  fs::remove(bench_path());
}
BENCHMARK(BM_StreamingCompress)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_MmapFullDecode(benchmark::State& state) {
  const auto values = make_field();
  core::compress_to_file<float>(std::span<const float>(values), kDims,
                                core::ControlRequest::fixed_psnr(70.0),
                                options(4), bench_path());
  for (auto _ : state) {
    auto d = core::decompress_file<float>(bench_path(), 4);
    benchmark::DoNotOptimize(d.values.data());
  }
  fs::remove(bench_path());
}
BENCHMARK(BM_MmapFullDecode)->Unit(benchmark::kMillisecond);

void BM_MmapBlockDecode(benchmark::State& state) {
  const auto values = make_field();
  core::compress_to_file<float>(std::span<const float>(values), kDims,
                                core::ControlRequest::fixed_psnr(70.0),
                                options(4), bench_path());
  std::size_t block = 0;
  const std::size_t blocks = (kDims[0] + kBlockRows - 1) / kBlockRows;
  for (auto _ : state) {
    const io::MappedFile file(bench_path());
    auto d = core::decompress_block<float>(file.bytes(), block++ % blocks);
    benchmark::DoNotOptimize(d.values.data());
  }
  fs::remove(bench_path());
}
BENCHMARK(BM_MmapBlockDecode)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
