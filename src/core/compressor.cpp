#include "core/compressor.h"

#include <algorithm>

#include "core/pipeline.h"
#include "io/archive.h"
#include "transform/transform_codec.h"

namespace fpsnr::core {

ArchiveFormat archive_format(std::span<const std::uint8_t> stream) {
  constexpr std::uint8_t kTransformMagic[4] = {'F', 'P', 'T', 'C'};
  if (is_block_stream(stream)) return ArchiveFormat::BlockContainer;
  if (stream.size() >= 4 &&
      std::equal(kTransformMagic, kTransformMagic + 4, stream.begin()))
    return ArchiveFormat::FlatTransform;
  return ArchiveFormat::FlatSz;
}

sz::ScalarType archive_scalar(std::span<const std::uint8_t> stream) {
  switch (archive_format(stream)) {
    case ArchiveFormat::BlockContainer:
      return static_cast<sz::ScalarType>(
          io::block_container_header(stream).scalar);
    case ArchiveFormat::FlatTransform:
      return static_cast<sz::ScalarType>(transform::inspect(stream).scalar);
    case ArchiveFormat::FlatSz:
      break;
  }
  return sz::inspect(stream).scalar;
}

template <typename T>
sz::Decompressed<T> decompress(std::span<const std::uint8_t> stream,
                               std::size_t threads) {
  switch (archive_format(stream)) {
    case ArchiveFormat::BlockContainer:
      return decompress_blocked<T>(stream, threads);
    case ArchiveFormat::FlatTransform: {
      auto d = transform::decompress<T>(stream);
      return {std::move(d.dims), std::move(d.values)};
    }
    case ArchiveFormat::FlatSz:
      break;
  }
  return sz::decompress<T>(stream);
}

template sz::Decompressed<float> decompress<float>(std::span<const std::uint8_t>,
                                                   std::size_t);
template sz::Decompressed<double> decompress<double>(
    std::span<const std::uint8_t>, std::size_t);

}  // namespace fpsnr::core
