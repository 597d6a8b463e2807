// The global work queue's headline claim: on a dataset that mixes many
// tiny fields with a few huge ones (the CESM-ATM shape), interleaving all
// fields' blocks on one queue beats sequential per-field compression,
// because a 1-block field can never keep an 8-worker pool busy and every
// per-field run ends with a barrier.
//
//   BM_BatchSequentialPerField/N   fields one at a time, N workers each
//   BM_BatchGlobalQueue/N          all blocks on one queue, N workers
//
// Both paths produce byte-identical archives (test_batch_queue proves it);
// only the schedule differs, so time(sequential)/time(queue) at matching N
// is the pure scheduling win. The CI benchmark-regression gate checks this
// ratio at 8 workers (>= 1.3x on multi-core machines, tools/bench_compare.py).
//
// Verification is off in both arms: the FPBK v2 SSE column already gives
// the exact PSNR, and we want to time compression scheduling, not decode.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "core/batch.h"
#include "core/pipeline.h"
#include "data/dataset.h"
#include "data/synth.h"

namespace core = fpsnr::core;
namespace data = fpsnr::data;

namespace {

/// The field-size mix is chosen so roughly half the WORK sits in fields
/// with fewer blocks than workers — exactly where sequential per-field
/// scheduling strands cores: 80 one-block fields + 12 two-block fields
/// next to 2 volumes of ~16 blocks each. Built once; every benchmark
/// shares it.
const data::Dataset& mixed_dataset() {
  static const data::Dataset ds = [] {
    data::Dataset d;
    d.name = "mixed-tiny-huge";
    for (int i = 0; i < 60; ++i) {
      data::Dims dims{64, 64};  // 1 block
      d.fields.emplace_back("tiny" + std::to_string(i),
                            dims,
                            data::smoothed_noise(dims, 100 + i, 2));
    }
    for (int i = 0; i < 20; ++i) {
      data::Dims dims{8, 32, 32};  // 1 block (rank-3 tiny)
      d.fields.emplace_back("cube" + std::to_string(i),
                            dims,
                            data::cosine_mixture(dims, 400 + i, 4));
    }
    for (int i = 0; i < 12; ++i) {
      data::Dims dims{512, 96};  // 2 blocks
      d.fields.emplace_back("mid" + std::to_string(i),
                            dims,
                            data::smoothed_noise(dims, 500 + i, 3));
    }
    for (int i = 0; i < 2; ++i) {
      data::Dims dims{64, 96, 96};  // ~16 blocks
      auto v = data::smoothed_noise(dims, 200 + i, 2);
      data::add_scaled(v, data::cosine_mixture(dims, 300 + i, 4), 0.5f);
      d.fields.emplace_back("huge" + std::to_string(i), dims, std::move(v));
    }
    return d;
  }();
  return ds;
}

void set_counters(benchmark::State& state, const data::Dataset& ds) {
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ds.total_bytes()));
  state.counters["fields"] =
      benchmark::Counter(static_cast<double>(ds.field_count()));
}

// The pre-queue schedule, built here from the single-field entry point:
// fields one after another, each fanning its own blocks out on N workers,
// with a barrier between fields.
void BM_BatchSequentialPerField(benchmark::State& state) {
  const auto& ds = mixed_dataset();
  core::CompressOptions opts;
  opts.parallel.threads = static_cast<std::size_t>(state.range(0));
  const auto request = core::ControlRequest::fixed_psnr(80.0);
  for (auto _ : state) {
    for (const data::Field& f : ds.fields) {
      auto r = core::compress_blocked<float>(f.span(), f.dims, request, opts);
      benchmark::DoNotOptimize(r.stream.data());
    }
  }
  set_counters(state, ds);
}
BENCHMARK(BM_BatchSequentialPerField)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_BatchGlobalQueue(benchmark::State& state) {
  const auto& ds = mixed_dataset();
  core::BatchOptions opts;
  opts.threads = static_cast<std::size_t>(state.range(0));
  opts.verify = false;  // time the compression schedule, not the decoder
  for (auto _ : state) {
    auto batch = core::run_fixed_psnr_batch(ds, 80.0, opts);
    benchmark::DoNotOptimize(batch.fields.data());
  }
  set_counters(state, ds);
}
BENCHMARK(BM_BatchGlobalQueue)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  const auto& ds = mixed_dataset();
  std::printf("mixed fixture: %zu fields, %.1f MB raw (80 one-block fields "
              "+ 12 two-block fields + 2 multi-block volumes)\n",
              ds.field_count(), ds.total_bytes() / (1024.0 * 1024.0));
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
