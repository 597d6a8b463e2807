// Unified per-block codec interface and the registry that names them.
//
// The block-parallel pipeline (core/pipeline.h) shards a field into
// independent full-rank tiles and hands each one to a BlockCodec. Every
// codec family — the SZ-style predictors (src/sz), the orthogonal
// transforms (src/transform) and store — implements the same interface:
// compress a tile under an absolute error budget `eb_abs` (bin width
// 2*eb_abs), decompress a tile into a caller-provided span. Under the
// uniform plan every tile receives the same budget, derived from the
// *global* value range, so the fixed-PSNR model (Eq. 6/7) holds for the
// whole field exactly as in a single-stream codec; the adaptive plan moves
// budget between tiles but keeps their summed worst-case SSE within the
// uniform plan's (core/pipeline.cpp, adaptive_budgets).
//
// The registry maps a one-byte wire id (stored in the FPBK container) to a
// codec instance, so streams stay self-describing and new codecs can be
// plugged in without touching the engine. Each codec also lists and parses
// the tuning keys it reads, so the facade holds no per-codec knob.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "data/field.h"
#include "lossless/backend.h"
#include "sz/error_mode.h"

namespace fpsnr::core {

/// Wire id of a codec in the block container (one byte).
using CodecId = std::uint8_t;

/// Built-in codec ids.
inline constexpr CodecId kCodecSzLorenzo = 0;
inline constexpr CodecId kCodecTransformHaar = 1;
inline constexpr CodecId kCodecTransformDct = 2;
/// SZ3-style multi-level interpolation predictor (src/sz/interp.h).
inline constexpr CodecId kCodecInterp = 3;
/// ZFP-style fixed-rate bit-packed DCT (src/transform/fixed_rate.h).
inline constexpr CodecId kCodecZfpRate = 4;
/// Raw passthrough for incompressible blocks; the pipeline auto-selects it
/// per block whenever the primary codec's output is no smaller than raw.
inline constexpr CodecId kCodecStore = 5;

/// Per-block compression parameters. `eb_abs` is the block's error budget:
/// the quantization bin width is 2*eb_abs for every codec, so a block of n
/// values can contribute at most n * eb_abs^2 / 3 to the global SSE under
/// the uniform-quantization model (Eq. 6).
struct BlockParams {
  double eb_abs = 0.0;
  /// Bound semantics of `eb_abs`. Absolute for every codec; the sz-lorenzo
  /// codec also takes PointwiseRelative, where `eb_abs` is the fraction eps
  /// of |err| <= eps * |x| and the tile is coded in the log2 domain.
  sz::ErrorBoundMode mode = sz::ErrorBoundMode::Absolute;
  std::uint32_t quantization_bins = 65536;
  lossless::Method backend = lossless::Method::Deflate;
  sz::Predictor predictor = sz::Predictor::Lorenzo;
  unsigned haar_levels = 4;
  std::size_t dct_block = 8;
};

/// Per-block accounting reported back to the engine.
struct BlockInfo {
  std::size_t value_count = 0;
  std::size_t outlier_count = 0;
  std::size_t compressed_bytes = 0;
  /// Worst-case MSE*n this block can add to the field's SSE under the
  /// uniform model: value_count * eb_abs^2 / 3. The engine sums these to
  /// check the global budget is respected.
  double sse_budget = 0.0;
  /// Exact sum of squared reconstruction errors this block's bytes decode
  /// to (measured against the input at compress time). Recorded in the
  /// FPBK v2 index so readers can report the measured global PSNR.
  double achieved_sse = 0.0;
};

struct CompressOptions;

/// One tuning key a codec reads: it parses a text value onto one
/// CompressOptions field and renders that field back as text, so the key's
/// default is whatever a default-constructed CompressOptions holds.
struct TuningKnob {
  std::string_view key;
  std::string_view doc;
  std::string (*show)(const CompressOptions&);
  /// Validates `value` in full (syntax, range, parity) and stores it;
  /// throws std::invalid_argument saying what the key accepts.
  void (*apply)(std::string_view value, CompressOptions&);
};

/// One codec family behind the block-parallel engine.
class BlockCodec {
 public:
  virtual ~BlockCodec() = default;

  virtual std::string_view name() const = 0;

  /// True when |x_i - x~_i| <= eb_abs holds pointwise (the predictor path);
  /// transform codecs control only the aggregate (PSNR) budget.
  virtual bool pointwise_bounded() const = 0;

  /// The tuning keys this codec reads, in listing order. No other key can
  /// change its output.
  virtual std::span<const TuningKnob* const> tuning() const = 0;

  /// Validate `value` for `key` and apply it to `opts`. Throws
  /// std::invalid_argument for a bad value, or for a key not in tuning()
  /// (the message names the valid keys).
  void configure(std::string_view key, std::string_view value,
                 CompressOptions& opts) const;

  /// Compress one block. A non-empty `recon` (values.size() long)
  /// receives exactly the values decompress() will produce from the
  /// returned bytes, bit for bit: each codec hands back the decode-side
  /// reconstruction it builds while encoding (its prediction buffer or its
  /// decode replay), so a closed-loop caller never decodes its own output.
  virtual std::vector<std::uint8_t> compress(
      std::span<const float> values, const data::Dims& dims,
      const BlockParams& params, BlockInfo* info,
      std::span<float> recon = {}) const = 0;
  virtual std::vector<std::uint8_t> compress(
      std::span<const double> values, const data::Dims& dims,
      const BlockParams& params, BlockInfo* info,
      std::span<double> recon = {}) const = 0;

  /// Decompress one block into `out` (sized by the caller from the
  /// container index). Throws io::StreamError on malformed input or a
  /// size mismatch.
  virtual void decompress(std::span<const std::uint8_t> block,
                          std::span<float> out) const = 0;
  virtual void decompress(std::span<const std::uint8_t> block,
                          std::span<double> out) const = 0;
};

/// Process-wide codec table, pre-seeded with the built-in codecs.
/// Registration is not thread-safe; do it at startup. Lookups after that
/// are read-only and safe from any thread (the engine decodes blocks
/// concurrently).
class CodecRegistry {
 public:
  static CodecRegistry& instance();

  /// Register (or replace) a codec under `id`.
  void add(CodecId id, std::unique_ptr<BlockCodec> codec);

  /// Register a short alias (e.g. "sz") for an already-registered codec.
  /// Aliases resolve through id_of/find exactly like primary names; the
  /// CLI and the Session facade derive their accepted `--engine` spellings
  /// from this table, so there is no second copy of the name list to
  /// drift.
  void add_alias(std::string_view alias, CodecId id);

  /// Lookup; throws std::out_of_range for an unknown id.
  const BlockCodec& at(CodecId id) const;

  /// Lookup; nullptr for an unknown id.
  const BlockCodec* find(CodecId id) const;

  /// Reverse lookup by registered codec name or alias; nullptr when absent.
  const BlockCodec* find(std::string_view name) const;

  /// Id of the codec registered under `name` (primary name or alias);
  /// throws std::out_of_range (with the list of registered names) when
  /// absent.
  CodecId id_of(std::string_view name) const;

  std::vector<CodecId> ids() const;

  /// Names of every registered codec, in id order (for CLI listings).
  std::vector<std::string_view> names() const;

  /// Aliases registered for `id`, in registration order.
  std::vector<std::string_view> aliases_of(CodecId id) const;

  /// Human-readable one-line-per-codec listing — "<id>  <name> (aliases:
  /// ...)" — the single string the CLI prints for --engine help and
  /// unknown-engine errors.
  std::string listing() const;

 private:
  CodecRegistry();

  std::vector<std::unique_ptr<BlockCodec>> slots_;  // indexed by CodecId
  std::vector<std::pair<std::string, CodecId>> aliases_;
};

/// True if `block` is a store-codec (raw passthrough) stream. The engine
/// uses this to dispatch per block: a container whose header names a lossy
/// codec may still hold store-coded blocks where compression did not pay.
bool is_store_block_stream(std::span<const std::uint8_t> block);

/// Exact byte size of the store codec's encoding of an n-value slab of the
/// given scalar width — the demotion threshold the engine compares lossy
/// codec output against. Kept next to the codec so the two can never
/// drift.
std::size_t store_encoded_size(std::size_t value_count,
                               std::size_t scalar_bytes);

}  // namespace fpsnr::core
