// Engine-level compression options and results (internal).
//
// Every compression runs through the block pipeline (core/pipeline.h);
// this header holds the option and result types it shares with the batch
// engine, the temporal layer, and the fpsnr::Session facade
// (include/fpsnr/session.h), plus the format-dispatching decoder that
// still reads the flat FPSZ/FPTC streams older archives (and every
// per-block payload) use.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "core/codec_registry.h"
#include "core/psnr_control.h"
#include "data/field.h"
#include "sz/codec.h"

namespace fpsnr::core {

/// How the global error budget is split across pipeline blocks.
enum class BudgetMode : std::uint8_t {
  /// Every block gets the same absolute bound derived from the global
  /// value range — the paper's Eq. 6/7 setting.
  Uniform = 0,
  /// A per-block residual probe redistributes the budget: blocks that
  /// never spend their allowance donate it, blocks on the rate curve get
  /// wider bins, with the aggregate SSE budget never exceeding the
  /// uniform level so the fixed-PSNR guarantee is unchanged (Eq. 3's
  /// general form). Applies to the aggregate-distortion control modes
  /// (FixedPsnr / FixedNrmse) only; pointwise-bound requests (Absolute /
  /// ValueRangeRelative / PointwiseRelative) always compress with the
  /// uniform plan, since widening any block would break their bound.
  Adaptive = 1,
};

/// Block-parallel execution knobs (the pipeline engine, core/pipeline.h).
///
/// The stream layout depends only on `tile` — never on `threads` — so the
/// same request produces byte-identical output at any thread count.
struct ParallelOptions {
  /// Worker threads for block execution; 0 or 1 runs the blocks serially.
  std::size_t threads = 0;
  /// Per-axis tile extents of the pipeline's block grid, C order. Empty
  /// picks a deterministic compact near-cubic tile from the dims (see
  /// core::auto_tile). A 0 entry — or a missing trailing axis — spans the
  /// field on that axis, so {r} is the legacy axis-0 slab of r rows.
  std::vector<std::size_t> tile;
};

/// Chain metadata the temporal subsystem (src/temporal/) threads through
/// the block pipeline into the FPBK v4 header. When `enabled`, the values
/// being compressed are a composite field (per tile: either the raw
/// snapshot or its delta against the previous reconstruction) and the
/// emitted container is stamped v4 with this chain identity plus the
/// per-block mode bitmap, so a decoder can rebuild — and refuse the wrong
/// reference for — each frame. Plain spatial compressions leave it
/// disabled and keep emitting v3 byte-for-byte.
struct TemporalLink {
  bool enabled = false;
  bool delta = false;        ///< false for keyframes (bitmap must be zero)
  std::uint64_t series_id = 0;
  std::uint64_t timestep = 0;
  std::uint64_t ref_hash = 0;  ///< FNV-1a of the reference recon; 0 iff !delta
  /// ceil(block_count/8) bytes; bit b set = block b is a temporal delta.
  std::vector<std::uint8_t> block_modes;
};

struct CompressOptions {
  /// Codec of every block, by registry id (core/codec_registry.h).
  CodecId engine = kCodecSzLorenzo;
  /// Prediction scheme for the sz-lorenzo codec (Lorenzo = the paper's
  /// SZ 1.4 substrate; HybridRegression = SZ 2.x-style per-block choice).
  sz::Predictor sz_predictor = sz::Predictor::Lorenzo;
  std::uint32_t quantization_bins = 65536;
  lossless::Method backend = lossless::Method::Deflate;
  unsigned haar_levels = 4;
  std::size_t dct_block = 8;
  /// Per-block error-budget allocation.
  BudgetMode budget = BudgetMode::Uniform;
  /// Thread count and tile shape of the block grid.
  ParallelOptions parallel;
  /// When set, range-derived control modes (fixed-PSNR / rel / nrmse)
  /// resolve their absolute budget — and the header's recorded
  /// value_range — from THIS range instead of the range of the values
  /// being compressed. The temporal layer compresses a composite
  /// delta/raw field whose error contract is stated against the ORIGINAL
  /// snapshot; overriding with the original's range keeps the fixed-PSNR
  /// guarantee and the achieved-PSNR ledger anchored to it.
  std::optional<double> value_range_override;
  /// FPBK v4 chain metadata (temporal subsystem only).
  TemporalLink temporal;
};

struct CompressResult {
  std::vector<std::uint8_t> stream;
  ControlRequest request;
  /// Analytical PSNR prediction from the distortion model (Eq. 6/7);
  /// NaN for modes where the model does not apply.
  double predicted_psnr_db = 0.0;
  /// Measured PSNR of the emitted stream, from the exact SSE each block
  /// codec tracked at compress time (recorded per block in the FPBK v2
  /// index); +inf for a lossless result.
  double achieved_psnr_db = std::numeric_limits<double>::quiet_NaN();
  /// Value-range relative bound actually used (0 in pointwise-relative
  /// mode).
  double rel_bound_used = 0.0;
  /// Block layout of the emitted FPBK container, straight from the plan —
  /// callers never need to re-parse the archive just to describe it.
  std::uint64_t block_count = 0;
  std::vector<std::size_t> tile;  ///< per-axis tile extents, C order
  sz::CompressionInfo info;
};

/// The archive formats this library reads, told apart by their magic.
enum class ArchiveFormat : std::uint8_t {
  BlockContainer,  ///< FPBK, the pipeline's container
  FlatTransform,   ///< legacy flat FPTC stream
  /// Legacy flat FPSZ stream — and any other bytes, which the FPSZ header
  /// reader rejects as a bad magic.
  FlatSz,
};

ArchiveFormat archive_format(std::span<const std::uint8_t> stream);

/// The scalar type an archive's own header records (FPBK, FPTC and FPSZ
/// all do). Throws io::StreamError on a malformed header.
sz::ScalarType archive_scalar(std::span<const std::uint8_t> stream);

/// Decompress any archive this library writes or wrote: an FPBK container
/// (blocks decoded on up to `threads` workers) or a legacy flat FPSZ / FPTC
/// stream. Throws io::StreamError when T is not archive_scalar(stream).
template <typename T>
sz::Decompressed<T> decompress(std::span<const std::uint8_t> stream,
                               std::size_t threads = 0);

extern template sz::Decompressed<float> decompress<float>(
    std::span<const std::uint8_t>, std::size_t);
extern template sz::Decompressed<double> decompress<double>(
    std::span<const std::uint8_t>, std::size_t);

}  // namespace fpsnr::core
