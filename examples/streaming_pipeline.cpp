// Streaming I/O walkthrough through the Session facade: compress a field
// straight to disk as blocks finish (Sink::file), then read it back from
// the file — including pulling one block out of the middle of the archive
// without touching the rest (file sources are memory-mapped).
//
// The point to notice in the output: the reorder buffer's high-water mark
// (the only payload bytes ever held in RAM on the write side) is a small
// fraction of the container, and it is the SAME archive byte-for-byte that
// Sink::memory() would have produced.
//
//   $ ./example_streaming_pipeline [target_db]
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "fpsnr/fpsnr.h"

#include "data/synth.h"
#include "metrics/metrics.h"

int main(int argc, char** argv) {
  namespace data = fpsnr::data;
  namespace metrics = fpsnr::metrics;

  const double target_db = argc > 1 ? std::atof(argv[1]) : 70.0;
  const data::Dims dims{512, 256};
  auto values = data::smoothed_noise(dims, 20180713, 3, 2);
  data::rescale(values, -40.0f, 55.0f);

  const auto path =
      (std::filesystem::temp_directory_path() / "streaming_demo.fpbk").string();

  // A 32-row slab tile -> 16 blocks (TileShape::slab keeps the legacy
  // axis-0 geometry; the default would pick a near-cubic tile instead).
  const fpsnr::Session session(
      {.threads = 8, .tile = fpsnr::TileShape::slab(32)});

  // Write side: blocks spill to disk the moment their worker finishes.
  const auto report = session.compress(
      fpsnr::Source::memory(std::span<const float>(values), dims.extents),
      fpsnr::FixedPsnr{target_db}, fpsnr::Sink::file(path));
  std::printf("streamed %zu values -> %zu bytes on disk (ratio %.2f)\n",
              values.size(), report.compressed_bytes,
              report.compression_ratio);
  std::printf("peak reorder buffer: %zu bytes in %zu block(s)  (%.1f%% of the "
              "container)\n",
              report.peak_buffered_bytes, report.peak_buffered_blocks,
              100.0 * static_cast<double>(report.peak_buffered_bytes) /
                  static_cast<double>(report.compressed_bytes));

  // Read side: inspect + random access off the file; only the header, two
  // index entries, and the picked block's extent are ever read.
  const auto info = session.inspect(fpsnr::Source::file(path));
  std::printf("archive: %llu block(s), tile %zu x %zu, eb_abs %.3e\n",
              static_cast<unsigned long long>(info.block_count),
              info.tile[0], info.tile[1], info.eb_abs);

  const std::size_t mid = info.block_count / 2;
  const auto block = session.decompress_block(fpsnr::Source::file(path), mid);
  std::printf("block %zu alone: %zu values (%zu row(s))\n", mid, block.size(),
              block.dims[0]);

  // Full decode (memory-mapped) for the quality report.
  const auto full = session.decompress(fpsnr::Source::file(path));
  const auto quality = metrics::compare<float>(values, full.f32);
  std::printf("full decode: PSNR %.2f dB (target %.1f) over %zu values\n",
              quality.psnr_db, target_db, full.size());

  std::filesystem::remove(path);
  return quality.psnr_db >= target_db - 0.5 ? 0 : 1;
}
