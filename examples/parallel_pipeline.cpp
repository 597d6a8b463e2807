// Block-parallel pipeline tour through the Session facade: fixed-PSNR
// compression fanned out over worker threads, with byte-deterministic
// output and random-access decode.
//
// The block layout depends only on the dims and the requested tile shape,
// never on the thread count — so the archive you write on a 96-core
// ingest node is bit-for-bit the archive a laptop writes, and any single
// block can be decoded later without touching the rest of the stream.
#include <cstdio>

#include "fpsnr/fpsnr.h"

#include "data/synth.h"

int main() {
  namespace data = fpsnr::data;

  const data::Dims dims{512, 256};
  auto values = data::smoothed_noise(dims, 20180713, 3, 2);
  data::rescale(values, -40.0f, 55.0f);

  const fpsnr::Target target = fpsnr::FixedPsnr{80.0};
  std::printf("field %zux%zu, target PSNR 80 dB\n\n", dims[0], dims[1]);

  std::vector<std::uint8_t> reference;
  for (std::size_t threads : {1ul, 2ul, 4ul, 8ul}) {
    const fpsnr::Session session({.threads = threads});
    const auto report = session.compress(
        fpsnr::Source::memory(std::span<const float>(values), dims.extents),
        target, fpsnr::Sink::memory());
    if (threads == 1) reference = report.archive;
    std::printf("threads %zu: %7zu bytes, ratio %6.2f, actual %6.2f dB, %s\n",
                threads, report.archive.size(), report.compression_ratio,
                report.achieved_psnr_db,
                report.archive == reference ? "bytes == threads-1"
                                            : "BYTES DIFFER (bug!)");
  }

  const fpsnr::Session session;
  const auto info = session.inspect(
      fpsnr::Source::memory(std::span<const std::uint8_t>(reference)));
  std::printf("\ncontainer: %llu block(s), tile %zu x %zu, codec %s\n",
              static_cast<unsigned long long>(info.block_count),
              info.tile[0], info.tile[1], info.codec.c_str());

  // Random access: pull one block out of the middle without a full decode.
  const std::size_t pick = info.block_count / 2;
  const auto block = session.decompress_block(
      fpsnr::Source::memory(std::span<const std::uint8_t>(reference)), pick);
  std::printf("random-access block %zu: %zu values (%zu row(s))\n", pick,
              block.size(), block.dims[0]);
  return 0;
}
