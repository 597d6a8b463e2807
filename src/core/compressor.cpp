#include "core/compressor.h"

#include "core/pipeline.h"
#include "transform/transform_codec.h"

namespace fpsnr::core {

template <typename T>
sz::Decompressed<T> decompress(std::span<const std::uint8_t> stream) {
  if (is_block_stream(stream)) return decompress_blocked<T>(stream);
  if (stream.size() >= 4 && stream[0] == 'F' && stream[1] == 'P' &&
      stream[2] == 'T' && stream[3] == 'C') {
    auto d = transform::decompress<T>(stream);
    return {std::move(d.dims), std::move(d.values)};
  }
  return sz::decompress<T>(stream);
}

template sz::Decompressed<float> decompress<float>(std::span<const std::uint8_t>);
template sz::Decompressed<double> decompress<double>(std::span<const std::uint8_t>);

}  // namespace fpsnr::core
