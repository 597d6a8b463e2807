// Temporal delta coding over the block pipeline (INTERNAL).
//
// A time series is compressed as a chain of FPBK v4 frames: keyframes are
// coded spatially from scratch; delta frames code, per tile, either the
// snapshot itself or its pointwise difference against the PREVIOUS
// timestep's reconstruction — the decoder-visible state, so encoder and
// decoder stay bit-synchronized by construction. The composite field
// (delta tiles + raw fallback tiles) runs through the unchanged
// FieldCompressor stack; because the reference is exact on both sides, the
// composite's per-point error IS the reconstruction's per-point error
// against the original snapshot, so every pointwise bound and the global
// fixed-PSNR guarantee carry over verbatim (the budget is resolved against
// the ORIGINAL snapshot's value range via
// CompressOptions::value_range_override).
//
// Per-tile mode choice: motion or turbulence can make the delta field
// ROUGHER than the data (residual energy above signal energy), so each
// tile probes RMS(x - ref) against RMS(x) and falls back to spatial coding
// when the delta loses. The probe is a deterministic double-accumulation
// C-order walk — data-dependent only, never thread- or schedule-dependent —
// and the chosen modes are recorded in the v4 per-block bitmap.
//
// External callers use fpsnr::TimeSeriesSession (include/fpsnr/timeseries.h).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "core/tile_layout.h"
#include "data/field.h"

namespace fpsnr::temporal {

/// FNV-1a 64-bit over raw bytes — the chain's identity hash. Stable across
/// platforms (explicit width, no endianness dependence beyond the caller's
/// byte view).
std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes);

/// Series identity: FNV-1a of the series name's bytes.
std::uint64_t hash_series_name(std::string_view name);

/// Reference identity: FNV-1a over the reconstruction's raw value bytes.
/// 0 is reserved to mean "no reference" in the v4 header, so a (vanishingly
/// unlikely) zero digest is remapped to 1.
template <typename T>
std::uint64_t hash_values(std::span<const T> values) {
  const std::uint64_t h = fnv1a64(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(values.data()),
      values.size() * sizeof(T)));
  return h == 0 ? 1 : h;
}

/// A delta frame's composite field plus the per-block mode decisions.
template <typename T>
struct CompositePlan {
  std::vector<T> values;  ///< per tile: x - ref (temporal) or x (spatial)
  std::vector<std::uint8_t> block_modes;  ///< v4 bitmap, bit b = temporal
  std::size_t temporal_blocks = 0;
};

/// Probe every tile of `layout` and build the composite: a tile codes the
/// temporal delta iff RMS(x - ref) < RMS(x) (strict — ties keep the raw
/// data, matching a keyframe's behaviour on static-free noise). snapshot
/// and ref must both have dims.count() values.
template <typename T>
CompositePlan<T> build_composite(std::span<const T> snapshot,
                                 std::span<const T> ref,
                                 const data::Dims& dims,
                                 const core::TileLayout& layout);

/// Rebuild the reconstruction from a decoded composite — the decoder's
/// decompress output, or the encoder's harvested copy of it — by adding
/// the reference back on every tile the bitmap marks temporal (in place).
/// The layout must be the one the frame was written with (make_layout of
/// the header tile).
template <typename T>
void apply_reference(std::span<T> composite, std::span<const T> ref,
                     const data::Dims& dims, const core::TileLayout& layout,
                     std::span<const std::uint8_t> block_modes);

extern template struct CompositePlan<float>;
extern template struct CompositePlan<double>;
extern template CompositePlan<float> build_composite<float>(
    std::span<const float>, std::span<const float>, const data::Dims&,
    const core::TileLayout&);
extern template CompositePlan<double> build_composite<double>(
    std::span<const double>, std::span<const double>, const data::Dims&,
    const core::TileLayout&);
extern template void apply_reference<float>(std::span<float>,
                                            std::span<const float>,
                                            const data::Dims&,
                                            const core::TileLayout&,
                                            std::span<const std::uint8_t>);
extern template void apply_reference<double>(std::span<double>,
                                             std::span<const double>,
                                             const data::Dims&,
                                             const core::TileLayout&,
                                             std::span<const std::uint8_t>);

}  // namespace fpsnr::temporal
