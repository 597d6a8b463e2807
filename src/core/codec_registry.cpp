#include "core/codec_registry.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "core/compressor.h"
#include "io/bitstream.h"
#include "io/bytebuffer.h"
#include "sz/codec.h"
#include "sz/interp.h"
#include "transform/fixed_rate.h"
#include "transform/transform_codec.h"

namespace fpsnr::core {

namespace {

double sse_budget_for(std::size_t value_count, double eb_abs) {
  // Uniform midpoint quantization with bin width 2*eb: per-value MSE is
  // (2*eb)^2 / 12 = eb^2 / 3 (Eq. 6), so a block of n values owns an SSE
  // budget of n * eb^2 / 3.
  return static_cast<double>(value_count) * eb_abs * eb_abs / 3.0;
}

// --- Tuning keys ------------------------------------------------------------
//
// A knob's apply() throws a bare "must be ..." message; BlockCodec::configure
// prefixes the engine and key.

[[noreturn]] void bad_value(std::string_view value, const std::string& want) {
  throw std::invalid_argument("must be " + want + ", got '" +
                              std::string(value) + "'");
}

/// `value` as an integer in [lo, hi]. Takes the "16.000000" spelling
/// CodecTuning::set(double) writes, and surrounding blanks.
std::uint64_t parse_integer(std::string_view value, std::uint64_t lo,
                            std::uint64_t hi) {
  const std::string text(value);
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  const bool converted = end != text.c_str();
  while (*end == ' ' || *end == '\t') ++end;
  if (!converted || end != text.c_str() + text.size() ||
      !(v >= static_cast<double>(lo)) || v > static_cast<double>(hi) ||
      v != std::floor(v))
    bad_value(value, "an integer in " + std::to_string(lo) + ".." +
                         std::to_string(hi));
  return static_cast<std::uint64_t>(v);
}

constexpr TuningKnob kBinsKnob{
    "quantization-bins", "quantizer bins (2n in the paper's notation)",
    [](const CompressOptions& o) { return std::to_string(o.quantization_bins); },
    [](std::string_view v, CompressOptions& o) {
      const std::uint64_t bins = parse_integer(v, 4, 4294967294u);
      if (bins % 2 != 0) bad_value(v, "even");
      o.quantization_bins = static_cast<std::uint32_t>(bins);
    }};

constexpr TuningKnob kLosslessKnob{
    "lossless", "final lossless stage: store|rle|deflate|auto",
    [](const CompressOptions& o) {
      return std::string(lossless::method_name(o.backend));
    },
    [](std::string_view v, CompressOptions& o) {
      using lossless::Method;
      for (const Method m :
           {Method::Store, Method::Rle, Method::Deflate, Method::Auto})
        if (lossless::method_name(m) == v) {
          o.backend = m;
          return;
        }
      bad_value(v, "store|rle|deflate|auto");
    }};

constexpr TuningKnob kPredictorKnob{
    "predictor", "prediction scheme: lorenzo|hybrid",
    [](const CompressOptions& o) {
      return std::string(o.sz_predictor == sz::Predictor::HybridRegression
                             ? "hybrid"
                             : "lorenzo");
    },
    [](std::string_view v, CompressOptions& o) {
      if (v == "lorenzo") o.sz_predictor = sz::Predictor::Lorenzo;
      else if (v == "hybrid") o.sz_predictor = sz::Predictor::HybridRegression;
      else bad_value(v, "lorenzo|hybrid");
    }};

constexpr TuningKnob kLevelsKnob{
    "levels", "Haar decomposition levels",
    [](const CompressOptions& o) { return std::to_string(o.haar_levels); },
    [](std::string_view v, CompressOptions& o) {
      o.haar_levels = static_cast<unsigned>(parse_integer(v, 1, 32));
    }};

constexpr TuningKnob kDctBlockKnob{
    "dct-block", "DCT tile edge length",
    [](const CompressOptions& o) { return std::to_string(o.dct_block); },
    [](std::string_view v, CompressOptions& o) {
      o.dct_block = static_cast<std::size_t>(parse_integer(v, 2, 4096));
    }};

// --- Codec policies ---------------------------------------------------------
//
// Each policy names a codec family, lists the tuning keys it reads, and
// gives its typed encode (which fills BlockInfo's outlier_count and
// achieved_sse, and writes the decode-side values into a non-empty
// `recon`) and decode (which fills the caller's slab, failing with
// io::StreamError when the block holds a different number of values).
// PolicyCodec below turns one into a BlockCodec.

/// Copy a decoded block into its slab.
template <typename T>
void fill_slab(const std::vector<T>& values, std::span<T> out) {
  if (values.size() != out.size())
    throw io::StreamError("block codec: slab size mismatch");
  std::copy(values.begin(), values.end(), out.begin());
}

/// Predictor path: Lorenzo / hybrid-regression SZ codec with an absolute
/// bound (pointwise |err| <= eb_abs holds in addition to the budget) or a
/// pointwise-relative one (|err| <= eps * |x| via the log2 domain).
struct SzPolicy {
  static constexpr std::string_view kName = "sz-lorenzo";
  static constexpr bool kPointwise = true;
  static constexpr const TuningKnob* kKeys[] = {&kBinsKnob, &kLosslessKnob,
                                                &kPredictorKnob};

  template <typename T>
  static std::vector<std::uint8_t> encode(std::span<const T> values,
                                          const data::Dims& dims,
                                          const BlockParams& params,
                                          BlockInfo& info, std::span<T> recon) {
    sz::Params p;
    p.mode = params.mode;
    p.bound = params.eb_abs;
    p.predictor = params.predictor;
    p.quantization_bins = params.quantization_bins;
    p.backend = params.backend;
    sz::CompressionInfo ci;
    auto bytes = sz::compress<T>(values, dims, p, &ci, recon);
    info.outlier_count = ci.outlier_count;
    info.achieved_sse = ci.achieved_sse;
    return bytes;
  }

  template <typename T>
  static void decode(std::span<const std::uint8_t> block, std::span<T> out) {
    sz::decompress_into<T>(block, out);
  }
};

/// Transform path: orthogonal Haar DWT or block DCT with coefficient bin
/// width 2*eb_abs. Only the aggregate (PSNR) budget is guaranteed.
template <transform::Kind K>
struct TransformPolicy {
  static constexpr bool kHaar = K == transform::Kind::HaarMultiLevel;
  static constexpr std::string_view kName =
      kHaar ? "transform-haar" : "transform-dct";
  static constexpr bool kPointwise = false;
  static constexpr const TuningKnob* kKeys[] = {
      &kBinsKnob, &kLosslessKnob, kHaar ? &kLevelsKnob : &kDctBlockKnob};

  template <typename T>
  static std::vector<std::uint8_t> encode(std::span<const T> values,
                                          const data::Dims& dims,
                                          const BlockParams& params,
                                          BlockInfo& info, std::span<T> recon) {
    transform::Params p;
    p.kind = K;
    p.bin_width = 2.0 * params.eb_abs;
    p.quantization_bins = params.quantization_bins;
    p.haar_levels = params.haar_levels;
    p.dct_block = params.dct_block;
    p.backend = params.backend;
    transform::Info ti;
    auto bytes = transform::compress<T>(values, dims, p, &ti, recon);
    info.outlier_count = ti.outlier_count;
    info.achieved_sse = ti.achieved_sse;
    return bytes;
  }

  template <typename T>
  static void decode(std::span<const std::uint8_t> block, std::span<T> out) {
    fill_slab(transform::decompress<T>(block).values, out);
  }
};

/// SZ3-style multi-level interpolation predictor (pointwise bounded).
struct InterpPolicy {
  static constexpr std::string_view kName = "interp";
  static constexpr bool kPointwise = true;
  static constexpr const TuningKnob* kKeys[] = {&kBinsKnob, &kLosslessKnob};

  template <typename T>
  static std::vector<std::uint8_t> encode(std::span<const T> values,
                                          const data::Dims& dims,
                                          const BlockParams& params,
                                          BlockInfo& info, std::span<T> recon) {
    sz::InterpParams p;
    p.eb_abs = params.eb_abs;
    p.quantization_bins = params.quantization_bins;
    p.backend = params.backend;
    sz::InterpInfo ii;
    auto bytes = sz::interp_compress<T>(values, dims, p, &ii, recon);
    info.outlier_count = ii.outlier_count;
    info.achieved_sse = ii.achieved_sse;
    return bytes;
  }

  template <typename T>
  static void decode(std::span<const std::uint8_t> block, std::span<T> out) {
    fill_slab(sz::interp_decompress<T>(block).values, out);
  }
};

/// ZFP-style fixed-rate bit-packed DCT (aggregate budget only). It has no
/// quantizer bins and no lossless stage.
struct ZfpRatePolicy {
  static constexpr std::string_view kName = "zfpr";
  static constexpr bool kPointwise = false;
  static constexpr const TuningKnob* kKeys[] = {&kDctBlockKnob};

  template <typename T>
  static std::vector<std::uint8_t> encode(std::span<const T> values,
                                          const data::Dims& dims,
                                          const BlockParams& params,
                                          BlockInfo& info, std::span<T> recon) {
    transform::FixedRateParams p;
    p.eb_abs = params.eb_abs;
    p.dct_block = params.dct_block;
    transform::FixedRateInfo fi;
    auto bytes = transform::fixed_rate_compress<T>(values, dims, p, &fi, recon);
    info.outlier_count = fi.escaped_groups;
    info.achieved_sse = fi.achieved_sse;
    return bytes;
  }

  template <typename T>
  static void decode(std::span<const std::uint8_t> block, std::span<T> out) {
    fill_slab(transform::fixed_rate_decompress<T>(block).values, out);
  }
};

// Store passthrough: raw IEEE bytes behind a tiny self-describing header.
// Lossless, so its achieved SSE is exactly zero and any error budget is
// trivially met. The engine falls back to it per block when the primary
// codec's output is not smaller than this encoding — white-noise fields
// therefore never expand beyond raw size plus the fixed header overhead.

constexpr std::uint8_t kStoreMagic[4] = {'F', 'P', 'S', 'T'};
constexpr std::uint8_t kStoreVersion = 1;

struct StorePolicy {
  static constexpr std::string_view kName = "store";
  static constexpr bool kPointwise = true;
  static constexpr std::span<const TuningKnob* const> kKeys{};

  template <typename T>
  static std::vector<std::uint8_t> encode(std::span<const T> values,
                                          const data::Dims& dims,
                                          const BlockParams&, BlockInfo&,
                                          std::span<T> recon) {
    if (values.size() != dims.count())
      throw std::invalid_argument("fpst: value count does not match dims");
    if (!recon.empty() && recon.size() != values.size())
      throw std::invalid_argument(
          "fpst: reconstruction size does not match dims");
    // Lossless: the reconstruction is the input itself.
    if (!recon.empty()) std::copy(values.begin(), values.end(), recon.begin());
    io::ByteWriter out;
    out.put_bytes(std::span<const std::uint8_t>(kStoreMagic, 4));
    out.put<std::uint8_t>(kStoreVersion);
    out.put<std::uint8_t>(std::is_same_v<T, double> ? 1 : 0);
    out.put_varint(values.size());
    out.put_bytes(io::bytes_of(values));
    return out.take();
  }

  template <typename T>
  static void decode(std::span<const std::uint8_t> block, std::span<T> out) {
    io::ByteReader reader(block);
    const auto magic = reader.get_bytes(4);
    if (!std::equal(magic.begin(), magic.end(), kStoreMagic))
      throw io::StreamError("fpst: bad magic");
    if (reader.get<std::uint8_t>() != kStoreVersion)
      throw io::StreamError("fpst: unsupported version");
    if (reader.get<std::uint8_t>() != (std::is_same_v<T, double> ? 1 : 0))
      throw io::StreamError("fpst: scalar type mismatch");
    const auto values = reader.get_array<T>(reader.get_varint());
    reader.expect_end();
    fill_slab(values, out);
  }
};

/// The BlockCodec of one policy: the float/double overrides, the
/// BlockInfo accounting and the slab-size check, written once.
template <typename Policy>
class PolicyCodec final : public BlockCodec {
 public:
  std::string_view name() const override { return Policy::kName; }
  bool pointwise_bounded() const override { return Policy::kPointwise; }
  std::span<const TuningKnob* const> tuning() const override {
    return Policy::kKeys;
  }

  std::vector<std::uint8_t> compress(std::span<const float> values,
                                     const data::Dims& dims,
                                     const BlockParams& params,
                                     BlockInfo* info,
                                     std::span<float> recon) const override {
    return compress_impl(values, dims, params, info, recon);
  }
  std::vector<std::uint8_t> compress(std::span<const double> values,
                                     const data::Dims& dims,
                                     const BlockParams& params,
                                     BlockInfo* info,
                                     std::span<double> recon) const override {
    return compress_impl(values, dims, params, info, recon);
  }
  void decompress(std::span<const std::uint8_t> block,
                  std::span<float> out) const override {
    Policy::template decode<float>(block, out);
  }
  void decompress(std::span<const std::uint8_t> block,
                  std::span<double> out) const override {
    Policy::template decode<double>(block, out);
  }

 private:
  template <typename T>
  static std::vector<std::uint8_t> compress_impl(std::span<const T> values,
                                                 const data::Dims& dims,
                                                 const BlockParams& params,
                                                 BlockInfo* info,
                                                 std::span<T> recon) {
    BlockInfo local;
    auto bytes = Policy::encode(values, dims, params, local, recon);
    if (info) {
      local.value_count = values.size();
      local.compressed_bytes = bytes.size();
      local.sse_budget = sse_budget_for(values.size(), params.eb_abs);
      *info = local;
    }
    return bytes;
  }
};

}  // namespace

void BlockCodec::configure(std::string_view key, std::string_view value,
                           CompressOptions& opts) const {
  for (const TuningKnob* knob : tuning()) {
    if (knob->key != key) continue;
    try {
      knob->apply(value, opts);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("tuning " + std::string(name()) + "." +
                                  std::string(key) + ": " + e.what());
    }
    return;
  }
  std::string msg = "tuning: engine '" + std::string(name()) +
                    "' has no knob '" + std::string(key) + "' (valid:";
  for (const TuningKnob* knob : tuning()) msg += " " + std::string(knob->key);
  if (tuning().empty()) msg += " none";
  throw std::invalid_argument(msg + ")");
}

bool is_store_block_stream(std::span<const std::uint8_t> block) {
  return block.size() >= 4 &&
         std::equal(kStoreMagic, kStoreMagic + 4, block.begin());
}

std::size_t store_encoded_size(std::size_t value_count,
                               std::size_t scalar_bytes) {
  std::size_t varint_len = 1;
  for (std::uint64_t v = value_count; v >= 0x80; v >>= 7) ++varint_len;
  // magic + version + scalar + varint count + raw payload — mirrors
  // StorePolicy::encode above.
  return sizeof(kStoreMagic) + 1 + 1 + varint_len +
         value_count * scalar_bytes;
}

CodecRegistry::CodecRegistry() {
  add(kCodecSzLorenzo, std::make_unique<PolicyCodec<SzPolicy>>());
  add(kCodecTransformHaar,
      std::make_unique<PolicyCodec<
          TransformPolicy<transform::Kind::HaarMultiLevel>>>());
  add(kCodecTransformDct,
      std::make_unique<
          PolicyCodec<TransformPolicy<transform::Kind::BlockDct>>>());
  add(kCodecInterp, std::make_unique<PolicyCodec<InterpPolicy>>());
  add(kCodecZfpRate, std::make_unique<PolicyCodec<ZfpRatePolicy>>());
  add(kCodecStore, std::make_unique<PolicyCodec<StorePolicy>>());
  // Historical CLI short names; resolved through the same table as the
  // primary names so `--engine sz` and `--engine sz-lorenzo` cannot drift.
  add_alias("sz", kCodecSzLorenzo);
  add_alias("lorenzo", kCodecSzLorenzo);
  add_alias("haar", kCodecTransformHaar);
  add_alias("dct", kCodecTransformDct);
}

CodecRegistry& CodecRegistry::instance() {
  static CodecRegistry registry;
  return registry;
}

void CodecRegistry::add(CodecId id, std::unique_ptr<BlockCodec> codec) {
  if (!codec) throw std::invalid_argument("CodecRegistry: null codec");
  if (slots_.size() <= id) slots_.resize(static_cast<std::size_t>(id) + 1);
  slots_[id] = std::move(codec);
}

void CodecRegistry::add_alias(std::string_view alias, CodecId id) {
  if (!find(id))
    throw std::out_of_range("CodecRegistry: alias '" + std::string(alias) +
                            "' targets unknown codec id " + std::to_string(id));
  for (auto& [name, target] : aliases_)
    if (name == alias) {
      target = id;  // re-registration wins, like add()
      return;
    }
  aliases_.emplace_back(std::string(alias), id);
}

const BlockCodec& CodecRegistry::at(CodecId id) const {
  const BlockCodec* codec = find(id);
  if (!codec)
    throw std::out_of_range("CodecRegistry: unknown codec id " +
                            std::to_string(id));
  return *codec;
}

const BlockCodec* CodecRegistry::find(CodecId id) const {
  if (id >= slots_.size()) return nullptr;
  return slots_[id].get();
}

const BlockCodec* CodecRegistry::find(std::string_view name) const {
  for (const auto& slot : slots_)
    if (slot && slot->name() == name) return slot.get();
  for (const auto& [alias, id] : aliases_)
    if (alias == name) return find(id);
  return nullptr;
}

CodecId CodecRegistry::id_of(std::string_view name) const {
  for (std::size_t i = 0; i < slots_.size(); ++i)
    if (slots_[i] && slots_[i]->name() == name) return static_cast<CodecId>(i);
  for (const auto& [alias, id] : aliases_)
    if (alias == name) return id;
  std::string msg = "CodecRegistry: unknown codec '" + std::string(name) +
                    "' (registered:";
  for (std::string_view n : names()) msg += " " + std::string(n);
  msg += ")";
  throw std::out_of_range(msg);
}

std::vector<CodecId> CodecRegistry::ids() const {
  std::vector<CodecId> out;
  for (std::size_t i = 0; i < slots_.size(); ++i)
    if (slots_[i]) out.push_back(static_cast<CodecId>(i));
  return out;
}

std::vector<std::string_view> CodecRegistry::names() const {
  std::vector<std::string_view> out;
  for (const auto& slot : slots_)
    if (slot) out.push_back(slot->name());
  return out;
}

std::vector<std::string_view> CodecRegistry::aliases_of(CodecId id) const {
  std::vector<std::string_view> out;
  for (const auto& [alias, target] : aliases_)
    if (target == id) out.push_back(alias);
  return out;
}

std::string CodecRegistry::listing() const {
  std::string out;
  for (CodecId id : ids()) {
    out += "  " + std::to_string(id) + "  " + std::string(at(id).name());
    const auto aliases = aliases_of(id);
    if (!aliases.empty()) {
      out += " (aliases:";
      for (std::string_view a : aliases) out += " " + std::string(a);
      out += ")";
    }
    out += "\n";
  }
  return out;
}

}  // namespace fpsnr::core
