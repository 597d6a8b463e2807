#include "core/codec_registry.h"

#include <algorithm>
#include <stdexcept>
#include <string>

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

/// Predictor path: Lorenzo / hybrid-regression SZ codec with an absolute
/// bound (pointwise |err| <= eb_abs holds in addition to the budget) or a
/// pointwise-relative one (|err| <= eps * |x| via the log2 domain).
class SzBlockCodec final : public BlockCodec {
 public:
  std::string_view name() const override { return "sz-lorenzo"; }
  bool pointwise_bounded() const override { return true; }

  std::vector<std::uint8_t> compress(std::span<const float> values,
                                     const data::Dims& dims,
                                     const BlockParams& params,
                                     BlockInfo* info) const override {
    return compress_impl(values, dims, params, info);
  }
  std::vector<std::uint8_t> compress(std::span<const double> values,
                                     const data::Dims& dims,
                                     const BlockParams& params,
                                     BlockInfo* info) const override {
    return compress_impl(values, dims, params, info);
  }
  void decompress(std::span<const std::uint8_t> block,
                  std::span<float> out) const override {
    decompress_impl(block, out);
  }
  void decompress(std::span<const std::uint8_t> block,
                  std::span<double> out) const override {
    decompress_impl(block, out);
  }

 private:
  template <typename T>
  std::vector<std::uint8_t> compress_impl(std::span<const T> values,
                                          const data::Dims& dims,
                                          const BlockParams& params,
                                          BlockInfo* info) const {
    sz::Params p;
    p.mode = params.mode;
    p.bound = params.eb_abs;
    p.predictor = params.predictor;
    p.quantization_bins = params.quantization_bins;
    p.backend = params.backend;
    sz::CompressionInfo ci;
    auto bytes = sz::compress<T>(values, dims, p, &ci);
    if (info) {
      info->value_count = values.size();
      info->outlier_count = ci.outlier_count;
      info->compressed_bytes = bytes.size();
      info->sse_budget = sse_budget_for(values.size(), params.eb_abs);
      info->achieved_sse = ci.achieved_sse;
    }
    return bytes;
  }

  template <typename T>
  void decompress_impl(std::span<const std::uint8_t> block,
                       std::span<T> out) const {
    auto d = sz::decompress<T>(block);
    if (d.values.size() != out.size())
      throw io::StreamError("block codec: slab size mismatch");
    std::copy(d.values.begin(), d.values.end(), out.begin());
  }
};

/// Transform path: orthogonal Haar DWT or block DCT with coefficient bin
/// width 2*eb_abs. Only the aggregate (PSNR) budget is guaranteed.
class TransformBlockCodec final : public BlockCodec {
 public:
  explicit TransformBlockCodec(transform::Kind kind) : kind_(kind) {}

  std::string_view name() const override {
    return kind_ == transform::Kind::HaarMultiLevel ? "transform-haar"
                                                    : "transform-dct";
  }
  bool pointwise_bounded() const override { return false; }

  std::vector<std::uint8_t> compress(std::span<const float> values,
                                     const data::Dims& dims,
                                     const BlockParams& params,
                                     BlockInfo* info) const override {
    return compress_impl(values, dims, params, info);
  }
  std::vector<std::uint8_t> compress(std::span<const double> values,
                                     const data::Dims& dims,
                                     const BlockParams& params,
                                     BlockInfo* info) const override {
    return compress_impl(values, dims, params, info);
  }
  void decompress(std::span<const std::uint8_t> block,
                  std::span<float> out) const override {
    decompress_impl(block, out);
  }
  void decompress(std::span<const std::uint8_t> block,
                  std::span<double> out) const override {
    decompress_impl(block, out);
  }

 private:
  template <typename T>
  std::vector<std::uint8_t> compress_impl(std::span<const T> values,
                                          const data::Dims& dims,
                                          const BlockParams& params,
                                          BlockInfo* info) const {
    transform::Params p;
    p.kind = kind_;
    p.bin_width = 2.0 * params.eb_abs;
    p.quantization_bins = params.quantization_bins;
    p.haar_levels = params.haar_levels;
    p.dct_block = params.dct_block;
    p.backend = params.backend;
    transform::Info ti;
    auto bytes = transform::compress<T>(values, dims, p, &ti);
    if (info) {
      info->value_count = values.size();
      info->outlier_count = ti.outlier_count;
      info->compressed_bytes = bytes.size();
      info->sse_budget = sse_budget_for(values.size(), params.eb_abs);
      info->achieved_sse = ti.achieved_sse;
    }
    return bytes;
  }

  template <typename T>
  void decompress_impl(std::span<const std::uint8_t> block,
                       std::span<T> out) const {
    auto d = transform::decompress<T>(block);
    if (d.values.size() != out.size())
      throw io::StreamError("block codec: slab size mismatch");
    std::copy(d.values.begin(), d.values.end(), out.begin());
  }

  transform::Kind kind_;
};

/// SZ3-style multi-level interpolation predictor (pointwise bounded).
class InterpBlockCodec final : public BlockCodec {
 public:
  std::string_view name() const override { return "interp"; }
  bool pointwise_bounded() const override { return true; }

  std::vector<std::uint8_t> compress(std::span<const float> values,
                                     const data::Dims& dims,
                                     const BlockParams& params,
                                     BlockInfo* info) const override {
    return compress_impl(values, dims, params, info);
  }
  std::vector<std::uint8_t> compress(std::span<const double> values,
                                     const data::Dims& dims,
                                     const BlockParams& params,
                                     BlockInfo* info) const override {
    return compress_impl(values, dims, params, info);
  }
  void decompress(std::span<const std::uint8_t> block,
                  std::span<float> out) const override {
    decompress_impl(block, out);
  }
  void decompress(std::span<const std::uint8_t> block,
                  std::span<double> out) const override {
    decompress_impl(block, out);
  }

 private:
  template <typename T>
  std::vector<std::uint8_t> compress_impl(std::span<const T> values,
                                          const data::Dims& dims,
                                          const BlockParams& params,
                                          BlockInfo* info) const {
    sz::InterpParams p;
    p.eb_abs = params.eb_abs;
    p.quantization_bins = params.quantization_bins;
    p.backend = params.backend;
    sz::InterpInfo ii;
    auto bytes = sz::interp_compress<T>(values, dims, p, &ii);
    if (info) {
      info->value_count = values.size();
      info->outlier_count = ii.outlier_count;
      info->compressed_bytes = bytes.size();
      info->sse_budget = sse_budget_for(values.size(), params.eb_abs);
      info->achieved_sse = ii.achieved_sse;
    }
    return bytes;
  }

  template <typename T>
  void decompress_impl(std::span<const std::uint8_t> block,
                       std::span<T> out) const {
    auto d = sz::interp_decompress<T>(block);
    if (d.values.size() != out.size())
      throw io::StreamError("block codec: slab size mismatch");
    std::copy(d.values.begin(), d.values.end(), out.begin());
  }
};

/// ZFP-style fixed-rate bit-packed DCT (aggregate budget only).
class ZfpRateBlockCodec final : public BlockCodec {
 public:
  std::string_view name() const override { return "zfpr"; }
  bool pointwise_bounded() const override { return false; }

  std::vector<std::uint8_t> compress(std::span<const float> values,
                                     const data::Dims& dims,
                                     const BlockParams& params,
                                     BlockInfo* info) const override {
    return compress_impl(values, dims, params, info);
  }
  std::vector<std::uint8_t> compress(std::span<const double> values,
                                     const data::Dims& dims,
                                     const BlockParams& params,
                                     BlockInfo* info) const override {
    return compress_impl(values, dims, params, info);
  }
  void decompress(std::span<const std::uint8_t> block,
                  std::span<float> out) const override {
    decompress_impl(block, out);
  }
  void decompress(std::span<const std::uint8_t> block,
                  std::span<double> out) const override {
    decompress_impl(block, out);
  }

 private:
  template <typename T>
  std::vector<std::uint8_t> compress_impl(std::span<const T> values,
                                          const data::Dims& dims,
                                          const BlockParams& params,
                                          BlockInfo* info) const {
    transform::FixedRateParams p;
    p.eb_abs = params.eb_abs;
    p.dct_block = params.dct_block;
    transform::FixedRateInfo fi;
    auto bytes = transform::fixed_rate_compress<T>(values, dims, p, &fi);
    if (info) {
      info->value_count = values.size();
      info->outlier_count = fi.escaped_groups;
      info->compressed_bytes = bytes.size();
      info->sse_budget = sse_budget_for(values.size(), params.eb_abs);
      info->achieved_sse = fi.achieved_sse;
    }
    return bytes;
  }

  template <typename T>
  void decompress_impl(std::span<const std::uint8_t> block,
                       std::span<T> out) const {
    auto d = transform::fixed_rate_decompress<T>(block);
    if (d.values.size() != out.size())
      throw io::StreamError("block codec: slab size mismatch");
    std::copy(d.values.begin(), d.values.end(), out.begin());
  }
};

// --- Store passthrough ------------------------------------------------------
//
// Raw IEEE bytes behind a tiny self-describing header. Lossless, so its
// achieved SSE is exactly zero and any error budget is trivially met. The
// engine falls back to it per block when the primary codec's output is not
// smaller than this encoding — white-noise fields therefore never expand
// beyond raw size plus the fixed header overhead.

constexpr std::uint8_t kStoreMagic[4] = {'F', 'P', 'S', 'T'};
constexpr std::uint8_t kStoreVersion = 1;

class StoreBlockCodec final : public BlockCodec {
 public:
  std::string_view name() const override { return "store"; }
  bool pointwise_bounded() const override { return true; }

  std::vector<std::uint8_t> compress(std::span<const float> values,
                                     const data::Dims& dims,
                                     const BlockParams& params,
                                     BlockInfo* info) const override {
    return compress_impl(values, dims, params, info);
  }
  std::vector<std::uint8_t> compress(std::span<const double> values,
                                     const data::Dims& dims,
                                     const BlockParams& params,
                                     BlockInfo* info) const override {
    return compress_impl(values, dims, params, info);
  }
  void decompress(std::span<const std::uint8_t> block,
                  std::span<float> out) const override {
    decompress_impl(block, out);
  }
  void decompress(std::span<const std::uint8_t> block,
                  std::span<double> out) const override {
    decompress_impl(block, out);
  }

 private:
  template <typename T>
  std::vector<std::uint8_t> compress_impl(std::span<const T> values,
                                          const data::Dims& dims,
                                          const BlockParams& params,
                                          BlockInfo* info) const {
    if (values.size() != dims.count())
      throw std::invalid_argument("fpst: value count does not match dims");
    io::ByteWriter out;
    out.put_bytes(std::span<const std::uint8_t>(kStoreMagic, 4));
    out.put<std::uint8_t>(kStoreVersion);
    out.put<std::uint8_t>(std::is_same_v<T, double> ? 1 : 0);
    out.put_varint(values.size());
    out.put_bytes(io::bytes_of(values));
    auto bytes = out.take();
    if (info) {
      info->value_count = values.size();
      info->outlier_count = 0;
      info->compressed_bytes = bytes.size();
      info->sse_budget = sse_budget_for(values.size(), params.eb_abs);
      info->achieved_sse = 0.0;
    }
    return bytes;
  }

  template <typename T>
  void decompress_impl(std::span<const std::uint8_t> block,
                       std::span<T> out) const {
    io::ByteReader reader(block);
    const auto magic = reader.get_bytes(4);
    if (!std::equal(magic.begin(), magic.end(), kStoreMagic))
      throw io::StreamError("fpst: bad magic");
    if (reader.get<std::uint8_t>() != kStoreVersion)
      throw io::StreamError("fpst: unsupported version");
    const std::uint8_t scalar = reader.get<std::uint8_t>();
    if (scalar != (std::is_same_v<T, double> ? 1 : 0))
      throw io::StreamError("fpst: scalar type mismatch");
    if (reader.get_varint() != out.size())
      throw io::StreamError("block codec: slab size mismatch");
    reader.get_into(out);
    reader.expect_end();
  }
};

}  // namespace

bool is_store_block_stream(std::span<const std::uint8_t> block) {
  return block.size() >= 4 &&
         std::equal(kStoreMagic, kStoreMagic + 4, block.begin());
}

std::size_t store_encoded_size(std::size_t value_count,
                               std::size_t scalar_bytes) {
  std::size_t varint_len = 1;
  for (std::uint64_t v = value_count; v >= 0x80; v >>= 7) ++varint_len;
  // magic + version + scalar + varint count + raw payload — mirrors
  // StoreBlockCodec::compress_impl above.
  return sizeof(kStoreMagic) + 1 + 1 + varint_len +
         value_count * scalar_bytes;
}

CodecRegistry::CodecRegistry() {
  add(kCodecSzLorenzo, std::make_unique<SzBlockCodec>());
  add(kCodecTransformHaar,
      std::make_unique<TransformBlockCodec>(transform::Kind::HaarMultiLevel));
  add(kCodecTransformDct,
      std::make_unique<TransformBlockCodec>(transform::Kind::BlockDct));
  add(kCodecInterp, std::make_unique<InterpBlockCodec>());
  add(kCodecZfpRate, std::make_unique<ZfpRateBlockCodec>());
  add(kCodecStore, std::make_unique<StoreBlockCodec>());
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
