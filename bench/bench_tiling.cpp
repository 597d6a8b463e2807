// Tiling ablation — axis-0 slabs vs full-rank tiles on pancake fields.
//
// The slab decomposition partitions only along axis 0, so a pancake-shaped
// field (short leading axis, wide trailing axes — a handful of climate
// levels over a large horizontal grid) caps the block count at extents[0]
// no matter how many workers are available. Full-rank tiles partition every
// axis, so the same field shatters into dozens of full-volume blocks
// (auto_tile redistributes a clamped short axis's volume to the others)
// and the whole pool stays busy. This bench measures that headroom directly:
// tools/bench_compare.py gates time(slab/8) / time(full-rank/8) >= 1.3x
// on runners with enough cores — an intra-run, machine-independent ratio.
//
// Both arms produce valid fixed-PSNR archives; they differ only in tile
// geometry (and therefore in bytes). Each arm is byte-deterministic across
// thread counts on its own — determinism is pinned by the tests, speedup
// is pinned here.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "core/pipeline.h"
#include "data/synth.h"

namespace core = fpsnr::core;
namespace data = fpsnr::data;

namespace {

// 4 x 512 x 512: at most 4 slab blocks, but 36 auto full-rank tiles
// ({4, 90, 90} after short-axis volume redistribution).
const data::Dims kPancake{4, 512, 512};

std::vector<float> pancake_field() {
  static const std::vector<float> field = [] {
    auto v = data::smoothed_noise(kPancake, 20180713, 2, 2);
    data::rescale(v, -40.0f, 55.0f);
    return v;
  }();
  return field;
}

core::CompressOptions tiled_options(std::vector<std::size_t> tile,
                                    std::size_t threads) {
  core::CompressOptions opts;
  opts.parallel.threads = threads;
  opts.parallel.tile = std::move(tile);
  return opts;
}

void run_compress(benchmark::State& state, std::vector<std::size_t> tile) {
  const auto values = pancake_field();
  const auto opts =
      tiled_options(std::move(tile), static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto r = core::compress_blocked<float>(
        std::span<const float>(values), kPancake,
        core::ControlRequest::fixed_psnr(80.0), opts);
    benchmark::DoNotOptimize(r.stream.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(values.size() * 4));
}

// Best slab the pre-v3 layout could offer: one row per block, i.e. all
// extents[0] = 4 blocks. Any larger slab height only reduces parallelism.
void BM_TilingSlabCompress(benchmark::State& state) {
  run_compress(state, {1});
}
BENCHMARK(BM_TilingSlabCompress)->Arg(1)->Arg(2)->Arg(8)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

// Full-rank auto tile (near-cubic, volume-capped): the v3 default.
void BM_TilingFullRankCompress(benchmark::State& state) {
  run_compress(state, {});
}
BENCHMARK(BM_TilingFullRankCompress)->Arg(1)->Arg(2)->Arg(8)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

// Decode side of the same ablation: slab blocks scatter contiguous runs,
// full-rank tiles scatter strided rows, but decode also fans out per block.
void run_decompress(benchmark::State& state, std::vector<std::size_t> tile) {
  const auto values = pancake_field();
  const auto stream =
      core::compress_blocked<float>(std::span<const float>(values), kPancake,
                                    core::ControlRequest::fixed_psnr(80.0),
                                    tiled_options(std::move(tile), 1))
          .stream;
  const auto threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto out = core::decompress_blocked<float>(stream, threads);
    benchmark::DoNotOptimize(out.values.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(values.size() * 4));
}

void BM_TilingSlabDecompress(benchmark::State& state) {
  run_decompress(state, {1});
}
BENCHMARK(BM_TilingSlabDecompress)->Arg(8)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_TilingFullRankDecompress(benchmark::State& state) {
  run_decompress(state, {});
}
BENCHMARK(BM_TilingFullRankDecompress)->Arg(8)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

void print_block_layout() {
  const auto values = pancake_field();
  std::printf("\n=== Tiling ablation: pancake field %zux%zux%zu, "
              "fixed-PSNR 80 dB ===\n",
              kPancake[0], kPancake[1], kPancake[2]);
  for (const auto& [label, tile] :
       {std::pair<const char*, std::vector<std::size_t>>{"axis-0 slab", {1}},
        {"full-rank auto", {}}}) {
    const auto r =
        core::compress_blocked<float>(std::span<const float>(values), kPancake,
                                      core::ControlRequest::fixed_psnr(80.0),
                                      tiled_options(tile, 1));
    const auto info = core::inspect_block_stream(r.stream);
    std::printf("%16s: %4llu block(s), tile %zux%zux%zu, ratio %.2f\n", label,
                static_cast<unsigned long long>(info.block_count),
                info.tile[0], info.tile[1], info.tile[2],
                r.info.compression_ratio);
  }
  std::printf("(slab block count is capped at extents[0]=%zu — the pool can "
              "never be more than %zu-busy)\n\n",
              kPancake[0], kPancake[0]);
}

}  // namespace

int main(int argc, char** argv) {
  print_block_layout();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
