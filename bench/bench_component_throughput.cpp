// Component throughput — per-stage cost of the pipeline: Lorenzo+quantize,
// Huffman encode/decode, LZ77+Huffman (deflate) compress/decompress, RLE,
// and the end-to-end codec in both directions.
#include <benchmark/benchmark.h>

#include <cmath>
#include <random>

#include "data/dataset.h"
#include "huffman/huffman.h"
#include "io/bitstream.h"
#include "io/bytebuffer.h"
#include "lossless/deflate.h"
#include "lossless/rle.h"
#include "metrics/metrics.h"
#include "sz/codec.h"
#include "sz/quantizer.h"

namespace data = fpsnr::data;
namespace huffman = fpsnr::huffman;
namespace io = fpsnr::io;
namespace lossless = fpsnr::lossless;
namespace metrics = fpsnr::metrics;
namespace sz = fpsnr::sz;

namespace {

const data::Dataset& hurricane() {
  static const data::Dataset ds = data::make_hurricane({});
  return ds;
}

const data::Field& test_field() { return hurricane().field("U"); }

std::vector<std::uint32_t> quant_codes(const data::Field& f, double rel_eb = 1e-4) {
  // Realistic quantization-code stream from an actual pass.
  const double eb = rel_eb * metrics::value_range<float>(f.span());
  const auto trace = sz::prediction_trace<float>(f.span(), f.dims, eb);
  sz::LinearQuantizer q(eb, 65536);
  std::vector<std::uint32_t> codes(trace.pe.size());
  for (std::size_t i = 0; i < codes.size(); ++i) {
    const auto c = q.quantize(trace.pe[i]);
    codes[i] = c;
  }
  return codes;
}

std::vector<std::uint8_t> byte_workload() {
  const auto& f = test_field();
  return {reinterpret_cast<const std::uint8_t*>(f.values.data()),
          reinterpret_cast<const std::uint8_t*>(f.values.data()) + f.bytes()};
}

void BM_LorenzoQuantizePass(benchmark::State& state) {
  const auto& f = test_field();
  const double eb = 1e-4 * metrics::value_range<float>(f.span());
  for (auto _ : state) {
    auto t = sz::prediction_trace<float>(f.span(), f.dims, eb);
    benchmark::DoNotOptimize(t.pe.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.bytes()));
}
BENCHMARK(BM_LorenzoQuantizePass)->Unit(benchmark::kMillisecond);

void BM_HuffmanEncode(benchmark::State& state) {
  const auto codes = quant_codes(test_field());
  const auto enc = huffman::Encoder::from_symbols(codes, 65536);
  for (auto _ : state) {
    io::BitWriter bits;
    enc.encode(codes, bits);
    benchmark::DoNotOptimize(bits.buffer().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(codes.size()));
}
BENCHMARK(BM_HuffmanEncode)->Unit(benchmark::kMillisecond);

// Two arms: U at a 1e-4 relative bound, a smooth field whose codes spread
// over many bins, and QRAIN at 60 dB (bound vr * sqrt(3) * 1e-3, Eq. 7), a
// sparse hydrometeor whose codes average under 2 bits, where each 64-bit
// window resolves the most symbols.
void BM_HuffmanDecode(benchmark::State& state, const char* field, double rel_eb) {
  const auto codes = quant_codes(hurricane().field(field), rel_eb);
  const auto enc = huffman::Encoder::from_symbols(codes, 65536);
  io::BitWriter bits;
  enc.encode(codes, bits);
  const auto payload = bits.take();  // flushes the bit accumulator
  const auto dec = huffman::Decoder::from_lengths(enc.lengths());
  for (auto _ : state) {
    io::BitReader br(payload);
    auto out = dec.decode(br, codes.size());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(codes.size()));
  state.counters["bits_per_value"] =
      8.0 * static_cast<double>(payload.size()) / static_cast<double>(codes.size());
}
BENCHMARK_CAPTURE(BM_HuffmanDecode, U, "U", 1e-4)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_HuffmanDecode, QRAIN, "QRAIN", std::sqrt(3.0) * 1e-3)
    ->Unit(benchmark::kMillisecond);

void BM_DeflateCompress(benchmark::State& state) {
  const auto input = byte_workload();
  for (auto _ : state) {
    auto c = lossless::deflate_compress(input);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(input.size()));
}
BENCHMARK(BM_DeflateCompress)->Unit(benchmark::kMillisecond);

void BM_DeflateDecompress(benchmark::State& state) {
  const auto input = byte_workload();
  const auto compressed = lossless::deflate_compress(input);
  for (auto _ : state) {
    auto out = lossless::deflate_decompress(compressed);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(input.size()));
}
BENCHMARK(BM_DeflateDecompress)->Unit(benchmark::kMillisecond);

void BM_RleCompress(benchmark::State& state) {
  const auto input = byte_workload();
  for (auto _ : state) {
    auto c = lossless::rle_compress(input);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(input.size()));
}
BENCHMARK(BM_RleCompress)->Unit(benchmark::kMillisecond);

void BM_FullCompress(benchmark::State& state) {
  const auto& f = test_field();
  sz::Params params;
  params.mode = sz::ErrorBoundMode::ValueRangeRelative;
  params.bound = 1e-4;
  for (auto _ : state) {
    auto stream = sz::compress<float>(f.span(), f.dims, params);
    benchmark::DoNotOptimize(stream.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.bytes()));
}
BENCHMARK(BM_FullCompress)->Unit(benchmark::kMillisecond);

void BM_FullDecompress(benchmark::State& state) {
  const auto& f = test_field();
  sz::Params params;
  params.mode = sz::ErrorBoundMode::ValueRangeRelative;
  params.bound = 1e-4;
  const auto stream = sz::compress<float>(f.span(), f.dims, params);
  for (auto _ : state) {
    auto out = sz::decompress<float>(stream);
    benchmark::DoNotOptimize(out.values.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.bytes()));
}
BENCHMARK(BM_FullDecompress)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
