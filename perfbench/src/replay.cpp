#include "replay.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <optional>
#include <vector>

#include "core/codec_registry.h"
#include "core/pipeline.h"
#include "core/tile_layout.h"
#include "huffman/huffman.h"
#include "io/archive.h"
#include "io/bitstream.h"
#include "io/bytebuffer.h"
#include "io/streaming_archive.h"
#include "lossless/backend.h"
#include "parallel/work_queue.h"
#include "simd/dispatch.h"
#include "sz/codec.h"
#include "sz/quantizer.h"

namespace perfbench {

namespace core = fpsnr::core;
namespace io = fpsnr::io;
namespace data = fpsnr::data;

namespace {

using Bytes = std::vector<std::uint8_t>;

bool ends_with(std::span<const std::uint8_t> whole,
               std::span<const std::uint8_t> tail) {
  return tail.size() <= whole.size() &&
         std::equal(tail.begin(), tail.end(), whole.end() - tail.size());
}

/// Core + parallel: plan, run every block as a WorkQueue task tagged with
/// its locality key, finalize; the archive must equal the facade's.
void replay_core(Tracer& tr, Report& rep, const FieldJob& job) {
  const std::size_t workers = std::max<std::size_t>(1, job.options.parallel.threads);
  std::optional<core::FieldCompressor<float>> fc;
  {
    Span s(&tr, "core.plan", job.op);
    fc.emplace(job.values, job.dims, job.request, job.options);
  }
  const std::size_t blocks = fc->block_count();
  std::vector<double> block_ms(blocks, 0.0);
  fpsnr::parallel::WorkQueue queue;
  double drain_ms = 0.0;
  {
    Span drain(&tr, "parallel.drain", job.op);
    const std::uint32_t parent = drain.id();
    const Clock::time_point t0 = Clock::now();
    for (std::size_t b = 0; b < blocks; ++b) {
      const Clock::time_point dispatched = Clock::now();
      fpsnr::parallel::WorkQueue::TaskOptions topts;
      topts.locality = fc->locality_key(b);
      queue.push(
          [&, b, dispatched, parent] {
            const Clock::time_point start = Clock::now();
            tr.record("parallel.queue_wait", job.op, parent, dispatched, start);
            Span s(&tr, "core.run_block", job.op, parent);
            fc->run_block(b);
            block_ms[b] = ms_since(start);
          },
          std::move(topts));
    }
    queue.drain(workers);
    drain_ms = ms_since(t0);
  }
  tr.count("parallel.capacity_ms", drain_ms * static_cast<double>(workers));
  tr.count("core.blocks", static_cast<double>(blocks));
  tr.count("core.block_max_ms_sum",
           *std::max_element(block_ms.begin(), block_ms.end()));
  core::CompressResult result;
  {
    Span s(&tr, "core.finalize", job.op);
    result = fc->finalize();
  }
  if (!std::equal(result.stream.begin(), result.stream.end(),
                  job.archive.begin(), job.archive.end()))
    rep.fail(job.what + ": FieldCompressor archive differs from the facade's");
}

/// io: the streaming writer against the in-memory pipeline, and the mmap
/// reader against the in-memory decoder, on the same field and archive.
void replay_io(Tracer& tr, Report& rep, const FieldJob& job) {
  const std::size_t threads = job.options.parallel.threads;
  {
    Span s(&tr, "core.compress_blocked", job.op);
    (void)core::compress_blocked<float>(job.values, job.dims, job.request,
                                        job.options);
  }
  io::StreamingStats stats;
  {
    Span s(&tr, "io.compress_to_file", job.op);
    (void)core::compress_to_file<float>(job.values, job.dims, job.request,
                                        job.options, job.spill_path, &stats);
  }
  tr.maximize("io.reorder_peak_bytes",
              static_cast<double>(stats.peak_buffered_bytes));
  if (stats.total_bytes != job.archive.size())
    rep.fail(job.what + ": spilled archive size differs from the facade's");
  std::vector<float> in_memory;
  {
    Span s(&tr, "core.decompress_blocked", job.op);
    in_memory = core::decompress_blocked<float>(job.archive, threads).values;
  }
  std::vector<float> mapped;
  {
    Span s(&tr, "io.decompress_file", job.op);
    mapped = core::decompress_file<float>(job.spill_path, threads).values;
  }
  if (in_memory != mapped)
    rep.fail(job.what + ": mmap decode differs from the in-memory decode");
  // Per-block decode work, block by block through the random-access path.
  const std::size_t blocks = io::block_container_header(job.archive).block_count;
  for (std::size_t b = 0; b < blocks; ++b) {
    Span s(&tr, "core.decompress_block", job.op);
    (void)core::decompress_block<float>(job.archive, b);
  }
}

/// Codes and outliers of one tile's predict+quantize pass, timed as the
/// sz (rank 3) or simd (rank 2) layer call that produces them.
struct Quantized {
  std::vector<std::uint32_t> codes;
  std::vector<float> outliers;
};

Quantized replay_quantize(Tracer& tr, const FieldJob& job,
                          std::span<const float> tile, const data::Dims& tdims,
                          double eb, std::uint32_t bins) {
  Quantized q;
  q.codes.resize(tile.size());
  if (tdims.rank() == 2) {
    std::vector<float> recon(tile.size()), outliers(tile.size());
    std::size_t n_out;
    double kernel_ms;
    {
      Span s(&tr, "sz.quantize", job.op);
      const Clock::time_point t0 = Clock::now();
      n_out = fpsnr::simd::kernels().lorenzo2_quant_f32(
          tile.data(), tdims[0], tdims[1], eb, bins, q.codes.data(),
          recon.data(), outliers.data());
      kernel_ms = ms_since(t0);
    }
    tr.count("simd.lorenzo2_calls", 1.0);
    tr.count("simd.lorenzo2_bytes", static_cast<double>(tile.size_bytes()));
    tr.count("simd.lorenzo2_ms", kernel_ms);
    outliers.resize(n_out);
    q.outliers = std::move(outliers);
    return q;
  }
  fpsnr::sz::PredictionTrace trace;
  {
    Span s(&tr, "sz.quantize", job.op);
    trace = fpsnr::sz::prediction_trace<float>(tile, tdims, eb, bins);
  }
  // The trace carries each point's prediction error and its quantized
  // reconstruction; a point is an outlier exactly when the two agree
  // without being a bin midpoint (stored verbatim, zero quantization error).
  const fpsnr::sz::LinearQuantizer quant(eb, bins);
  for (std::size_t i = 0; i < tile.size(); ++i) {
    const std::uint32_t code = quant.quantize(trace.pe[i]);
    if (code != 0 && quant.dequantize(code) == trace.pe_recon[i]) {
      q.codes[i] = code;
    } else {
      q.codes[i] = 0;
      q.outliers.push_back(tile[i]);
    }
  }
  return q;
}

/// Stage replays of one sz tile: quantize -> Huffman -> lossless, built
/// exactly as the sz codec lays out its inner stream, then decoded back.
/// Returns the block's bytes ahead of its lossless payload (its header).
double replay_sz_stages(Tracer& tr, Report& rep, const FieldJob& job,
                        std::span<const float> tile, const data::Dims& tdims,
                        const core::BlockParams& bp, const core::BlockInfo& info,
                        std::span<const std::uint8_t> block,
                        std::span<const float> recon, const std::string& where) {
  const Quantized q = replay_quantize(tr, job, tile, tdims, bp.eb_abs,
                                      bp.quantization_bins);
  if (q.outliers.size() != info.outlier_count)
    rep.fail(where + ": quantize replay outlier count differs from the codec's");
  tr.count("sz.values", static_cast<double>(tile.size()));
  tr.count("sz.outliers", static_cast<double>(q.outliers.size()));
  double sse;
  {
    Span s(&tr, "simd.sse", job.op);
    sse = fpsnr::simd::kernels().sse_f32(tile.data(), recon.data(), tile.size());
  }
  tr.count("simd.sse_bytes", static_cast<double>(2 * tile.size() * sizeof(float)));
  if (sse != info.achieved_sse)
    rep.fail(where + ": SSE replay differs from the codec's ledger");

  std::optional<fpsnr::huffman::Encoder> enc;
  {
    Span s(&tr, "huffman.build", job.op);
    enc.emplace(fpsnr::huffman::Encoder::from_symbols(q.codes, bp.quantization_bins));
  }
  io::ByteWriter inner;
  inner.put_varint(q.outliers.size());
  inner.put_bytes(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(q.outliers.data()),
      q.outliers.size() * sizeof(float)));
  {
    Span s(&tr, "huffman.encode", job.op);
    enc->write_table(inner);
    io::BitWriter bits;
    enc->encode(q.codes, bits);
    inner.put_blob(bits.take());
  }
  tr.count("huffman.bits", static_cast<double>(enc->encoded_bits(q.codes)));
  Bytes packed;
  {
    Span s(&tr, "lossless.compress", job.op);
    packed = fpsnr::lossless::backend_compress(inner.buffer(), bp.backend);
  }
  tr.count("lossless.in_bytes", static_cast<double>(inner.size()));
  tr.count("lossless.out_bytes", static_cast<double>(packed.size()));
  if (!ends_with(block, packed))
    rep.fail(where + ": lossless replay is not the block's payload");

  Bytes unpacked;
  {
    Span s(&tr, "lossless.decompress", job.op);
    unpacked = fpsnr::lossless::backend_decompress(packed);
  }
  if (unpacked != inner.buffer())
    rep.fail(where + ": lossless round trip differs");
  std::vector<std::uint32_t> decoded;
  {
    io::ByteReader reader(unpacked);
    const std::uint64_t n_out = reader.get_varint();
    (void)reader.get_bytes(n_out * sizeof(float));
    Span s(&tr, "huffman.decode", job.op);
    const auto dec = fpsnr::huffman::Decoder::read_table(reader);
    io::BitReader bits(reader.get_blob_view());
    decoded = dec.decode(bits, tile.size());
  }
  if (decoded != q.codes) rep.fail(where + ": Huffman round trip differs");
  return static_cast<double>(block.size() - packed.size());
}

/// Codec + stage replays on every tile of the field.
void replay_tiles(Tracer& tr, Report& rep, const FieldJob& job) {
  const io::BlockContainerView view = io::open_block_container(job.archive);
  const std::vector<std::size_t> tile_req(view.header.tile.begin(),
                                          view.header.tile.end());
  const core::TileLayout layout = core::make_layout(job.dims, tile_req);
  const core::BlockCodec& codec = core::CodecRegistry::instance().at(view.header.codec);
  const bool sz_codec = view.header.codec == core::kCodecSzLorenzo &&
                        job.options.sz_predictor == fpsnr::sz::Predictor::Lorenzo;
  core::BlockParams bp;
  bp.eb_abs = view.header.eb_abs;  // uniform budget: every block shares it
  bp.quantization_bins = job.options.quantization_bins;
  bp.backend = job.options.backend;
  bp.predictor = job.options.sz_predictor;
  bp.haar_levels = job.options.haar_levels;
  bp.dct_block = job.options.dct_block;

  std::size_t block_bytes = 0;
  for (const auto& b : view.blocks) block_bytes += b.size();
  double per_block_headers = 0.0;

  for (std::size_t b = 0; b < layout.block_count; ++b) {
    const core::TileRegion region = core::tile_region(layout, job.dims, b);
    const data::Dims tdims = core::region_dims(region, job.dims.rank());
    std::vector<float> tile(region.count);
    core::gather_tile<float>(job.values, job.dims, region, tile);
    const std::span<const std::uint8_t> block = view.blocks[b];
    const std::string where = job.what + " block " + std::to_string(b);

    Span tile_span(&tr, "codec.tile", job.op);
    core::BlockInfo info;
    Bytes bytes;
    {
      Span s(&tr, "codec.compress", job.op);
      bytes = codec.compress(std::span<const float>(tile), tdims, bp, &info);
    }
    const bool demoted = core::is_store_block_stream(block);
    if (demoted != (bytes.size() >= core::store_encoded_size(tile.size(), sizeof(float))))
      rep.fail(where + ": store demotion differs from the archive");
    if (demoted) {
      tr.count("core.store_demoted", 1.0);
      continue;
    }
    if (!std::equal(bytes.begin(), bytes.end(), block.begin(), block.end()))
      rep.fail(where + ": codec replay bytes differ from the archive");
    std::vector<float> recon(tile.size());
    {
      Span s(&tr, "codec.decompress", job.op);
      codec.decompress(block, std::span<float>(recon));
    }
    if (sz_codec)
      per_block_headers +=
          replay_sz_stages(tr, rep, job, tile, tdims, bp, info, block, recon, where);
  }
  tr.count("core.container_bytes",
           static_cast<double>(job.archive.size() - block_bytes) + per_block_headers);
  tr.count("core.archive_bytes", static_cast<double>(job.archive.size()));
}

}  // namespace

void replay_field(Tracer& tr, Report& rep, const FieldJob& job) {
  rep.attempt();
  try {
    Span field(&tr, "replay.field", job.op);
    replay_core(tr, rep, job);
    replay_io(tr, rep, job);
    replay_tiles(tr, rep, job);
  } catch (const std::exception& e) {
    rep.fail(job.what + ": layer replay threw: " + e.what());
  }
}


namespace {

void report_layers(Report& rep, const Tracer& tr, double ops) {
  auto per_op = [&](const char* span) { return tr.total_ms(span) / ops; };
  auto frac = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const double blocks = tr.counter("core.blocks");
  rep.set("core.plan_ms", per_op("core.plan"), "ms");
  rep.set("core.finalize_ms", per_op("core.finalize"), "ms");
  rep.set("core.block_busy_ms", per_op("core.run_block"), "ms");
  rep.set("core.blocks", blocks / ops, "count");
  rep.set("core.block_max_ms", tr.counter("core.block_max_ms_sum") / ops, "ms");
  rep.set("core.decode_busy_ms", per_op("core.decompress_block"), "ms");
  rep.set("core.store_demoted_frac", frac(tr.counter("core.store_demoted"), blocks),
          "frac");
  rep.set("core.container_overhead_frac",
          frac(tr.counter("core.container_bytes"), tr.counter("core.archive_bytes")),
          "frac");

  const double codec_ms = tr.total_ms("codec.compress") + tr.total_ms("codec.decompress");
  double stage_ms = 0.0;
  for (const char* s : {"sz.quantize", "simd.sse", "huffman.build", "huffman.encode",
                        "lossless.compress", "lossless.decompress", "huffman.decode"})
    stage_ms += tr.total_ms(s);
  rep.set("codec.compress_ms", per_op("codec.compress"), "ms");
  rep.set("codec.decompress_ms", per_op("codec.decompress"), "ms");
  rep.set("codec.replay_gap_frac", frac(codec_ms - stage_ms, codec_ms), "frac");

  rep.set("sz.quantize_ms", per_op("sz.quantize"), "ms");
  rep.set("sz.outlier_frac", frac(tr.counter("sz.outliers"), tr.counter("sz.values")),
          "frac");
  rep.set("simd.lorenzo2_calls", tr.counter("simd.lorenzo2_calls"), "count");
  rep.set("simd.lorenzo2_MBps",
          frac(tr.counter("simd.lorenzo2_bytes") / 1e6,
               tr.counter("simd.lorenzo2_ms") / 1e3),
          "MB/s");
  rep.set("simd.sse_MBps",
          frac(tr.counter("simd.sse_bytes") / 1e6, tr.total_ms("simd.sse") / 1e3),
          "MB/s");
  rep.set("huffman.build_ms", per_op("huffman.build"), "ms");
  rep.set("huffman.encode_ms", per_op("huffman.encode"), "ms");
  rep.set("huffman.decode_ms", per_op("huffman.decode"), "ms");
  rep.set("huffman.bits_per_value",
          frac(tr.counter("huffman.bits"), tr.counter("sz.values")), "bits");
  rep.set("lossless.compress_ms", per_op("lossless.compress"), "ms");
  rep.set("lossless.decompress_ms", per_op("lossless.decompress"), "ms");
  rep.set("lossless.saved_frac",
          1.0 - frac(tr.counter("lossless.out_bytes"), tr.counter("lossless.in_bytes")),
          "frac");
  rep.set("io.spill_ms",
          (tr.total_ms("io.compress_to_file") - tr.total_ms("core.compress_blocked")) / ops,
          "ms");
  rep.set("io.mmap_read_ms",
          (tr.total_ms("io.decompress_file") - tr.total_ms("core.decompress_blocked")) / ops,
          "ms");
  rep.set("io.reorder_peak_MB", tr.counter("io.reorder_peak_bytes") / 1e6, "MB");
  const std::vector<double> waits = tr.durations_ms("parallel.queue_wait");
  rep.set("parallel.queue_wait_ms_p50", percentile(waits, 0.5), "ms");
  rep.set("parallel.queue_wait_ms_p90", percentile(waits, 0.9), "ms");
  rep.set("parallel.busy_frac",
          frac(tr.total_ms("core.run_block"), tr.counter("parallel.capacity_ms")),
          "frac");
}

}  // namespace

double tracing_overhead(std::size_t ops,
                        const std::function<double(std::size_t, int, Tracer*)>& op) {
  Tracer scratch;  // its spans are discarded
  double untraced_ms = 0.0, traced_ms = 0.0;
  for (std::size_t i = 0; i < ops; ++i) {
    if (i % 2 == 0) {
      untraced_ms += op(i, 0, nullptr);
      traced_ms += op(i, 1, &scratch) + op(i, 2, &scratch);
      untraced_ms += op(i, 3, nullptr);
    } else {
      traced_ms += op(i, 1, &scratch);
      untraced_ms += op(i, 0, nullptr) + op(i, 3, nullptr);
      traced_ms += op(i, 2, &scratch);
    }
  }
  return traced_ms / untraced_ms - 1.0;
}

void finish_trace(Report& rep, const Tracer& tr, double ops, double overhead_frac,
                  const std::string& dir) {
  report_layers(rep, tr, ops);
  rep.set("trace.overhead_frac", overhead_frac, "frac");
  tr.print_self_times();
  const std::string spans = dir + "/spans.jsonl";
  std::printf("span file: %s (%zu spans)\n", spans.c_str(), tr.write_jsonl(spans));
}

}  // namespace perfbench
