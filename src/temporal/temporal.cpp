#include "temporal/temporal.h"

#include <cmath>
#include <stdexcept>

namespace fpsnr::temporal {

std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t hash_series_name(std::string_view name) {
  return fnv1a64(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(name.data()), name.size()));
}

namespace {

/// Visit every point of tile `b` in C order: fn(field_offset).
template <typename Fn>
void for_tile(const core::TileLayout& layout, const data::Dims& dims,
              std::size_t b, Fn&& fn) {
  const std::size_t rank = dims.rank();
  const core::TileRegion r = core::tile_region(layout, dims, b);
  std::size_t stride[3];
  core::field_strides(dims, stride);
  std::size_t c[3] = {0, 0, 0};
  for (std::size_t i = 0; i < r.count; ++i) {
    std::size_t offset = 0;
    for (std::size_t a = 0; a < rank; ++a)
      offset += (r.start[a] + c[a]) * stride[a];
    fn(offset);
    for (std::size_t a = rank; a-- > 0;) {
      if (++c[a] < r.ext[a]) break;
      c[a] = 0;
    }
  }
}

}  // namespace

template <typename T>
CompositePlan<T> build_composite(std::span<const T> snapshot,
                                 std::span<const T> ref,
                                 const data::Dims& dims,
                                 const core::TileLayout& layout) {
  if (snapshot.size() != dims.count() || ref.size() != dims.count())
    throw std::invalid_argument(
        "temporal: snapshot/reference size does not match dims");
  CompositePlan<T> plan;
  plan.values.assign(snapshot.begin(), snapshot.end());
  plan.block_modes.assign((layout.block_count + 7) / 8, 0);
  for (std::size_t b = 0; b < layout.block_count; ++b) {
    // Energy probe in doubles: sum x^2 vs sum (x - ref)^2 over the tile.
    // (Same point count on both sides, so comparing sums == comparing RMS.)
    // NaN poisons both accumulators identically and the < below is false,
    // so poisoned tiles deterministically keep spatial mode.
    double raw = 0.0, res = 0.0;
    for_tile(layout, dims, b, [&](std::size_t i) {
      const double x = static_cast<double>(snapshot[i]);
      const double d = x - static_cast<double>(ref[i]);
      raw += x * x;
      res += d * d;
    });
    if (res < raw) {
      plan.block_modes[b / 8] |= static_cast<std::uint8_t>(1u << (b % 8));
      ++plan.temporal_blocks;
      for_tile(layout, dims, b, [&](std::size_t i) {
        plan.values[i] = snapshot[i] - ref[i];
      });
    }
  }
  return plan;
}

template <typename T>
void apply_reference(std::span<T> composite, std::span<const T> ref,
                     const data::Dims& dims, const core::TileLayout& layout,
                     std::span<const std::uint8_t> block_modes) {
  if (composite.size() != dims.count() || ref.size() != dims.count())
    throw std::invalid_argument(
        "temporal: composite/reference size does not match dims");
  if (block_modes.size() != (layout.block_count + 7) / 8)
    throw std::invalid_argument(
        "temporal: mode bitmap does not match the block layout");
  for (std::size_t b = 0; b < layout.block_count; ++b) {
    if (!((block_modes[b / 8] >> (b % 8)) & 1)) continue;
    for_tile(layout, dims, b, [&](std::size_t i) {
      // The encoder runs this same float add on the reconstruction its
      // codecs handed back while compressing (the decode-side values, bit
      // for bit), so both sides land on the identical reconstruction bits.
      composite[i] = static_cast<T>(composite[i] + ref[i]);
    });
  }
}

template struct CompositePlan<float>;
template struct CompositePlan<double>;
template CompositePlan<float> build_composite<float>(std::span<const float>,
                                                     std::span<const float>,
                                                     const data::Dims&,
                                                     const core::TileLayout&);
template CompositePlan<double> build_composite<double>(
    std::span<const double>, std::span<const double>, const data::Dims&,
    const core::TileLayout&);
template void apply_reference<float>(std::span<float>, std::span<const float>,
                                     const data::Dims&,
                                     const core::TileLayout&,
                                     std::span<const std::uint8_t>);
template void apply_reference<double>(std::span<double>,
                                      std::span<const double>,
                                      const data::Dims&,
                                      const core::TileLayout&,
                                      std::span<const std::uint8_t>);

}  // namespace fpsnr::temporal
