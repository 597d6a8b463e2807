#include "sz/interp.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "huffman/huffman.h"
#include "io/bitstream.h"
#include "io/bytebuffer.h"
#include "sz/quantizer.h"

namespace fpsnr::sz {

namespace {

constexpr std::uint8_t kInterpMagic[4] = {'F', 'P', 'I', 'N'};
constexpr std::uint8_t kInterpVersion = 1;
constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// Visit every index of a length-n array in multi-level interpolation
/// order: fn(idx, left, right) where left/right are the interpolation
/// anchors (kNone when absent). Index 0 goes first with no anchors; then
/// for each stride s (descending powers of two) the odd multiples of s are
/// visited, anchored at distance s on both sides. Every anchor is a
/// multiple of 2s, hence already visited at a coarser level — the order is
/// identical on the compressor and decompressor by construction.
template <typename F>
void for_each_interp_point(std::size_t n, F&& fn) {
  if (n == 0) return;
  fn(std::size_t{0}, kNone, kNone);
  if (n == 1) return;
  std::size_t s_max = 1;
  while (s_max * 2 <= n - 1) s_max *= 2;
  for (std::size_t s = s_max; s >= 1; s /= 2) {
    for (std::size_t i = s; i < n; i += 2 * s)
      fn(i, i - s, i + s < n ? i + s : kNone);
    if (s == 1) break;
  }
}

template <typename T>
double interp_predict(const std::vector<T>& recon, std::size_t left,
                      std::size_t right) {
  if (left == kNone) return 0.0;
  const double l = static_cast<double>(recon[left]);
  if (right == kNone) return l;
  return 0.5 * (l + static_cast<double>(recon[right]));
}

struct Header {
  std::uint8_t scalar = 0;
  data::Dims dims;
  double eb_abs = 0.0;
  std::uint32_t quant_bins = 0;
};

void write_in_header(const Header& h, io::ByteWriter& out) {
  out.put_bytes(std::span<const std::uint8_t>(kInterpMagic, 4));
  out.put<std::uint8_t>(kInterpVersion);
  out.put<std::uint8_t>(h.scalar);
  out.put<std::uint8_t>(static_cast<std::uint8_t>(h.dims.rank()));
  for (std::size_t d = 0; d < h.dims.rank(); ++d) out.put_varint(h.dims[d]);
  out.put<double>(h.eb_abs);
  out.put_varint(h.quant_bins);
}

Header read_in_header(io::ByteReader& in) {
  const auto magic = in.get_bytes(4);
  if (!std::equal(magic.begin(), magic.end(), kInterpMagic))
    throw io::StreamError("fpin: bad magic");
  if (in.get<std::uint8_t>() != kInterpVersion)
    throw io::StreamError("fpin: unsupported version");
  Header h;
  h.scalar = in.get<std::uint8_t>();
  if (h.scalar > 1) throw io::StreamError("fpin: unknown scalar type");
  const auto rank = in.get<std::uint8_t>();
  if (rank < 1 || rank > 3) throw io::StreamError("fpin: rank out of 1..3");
  std::vector<std::size_t> extents(rank);
  for (auto& e : extents) {
    e = in.get_varint();
    if (e == 0) throw io::StreamError("fpin: zero extent");
  }
  h.dims = data::Dims(std::move(extents));
  h.eb_abs = in.get<double>();
  if (!(h.eb_abs > 0.0) || !std::isfinite(h.eb_abs))
    throw io::StreamError("fpin: invalid error bound");
  h.quant_bins = static_cast<std::uint32_t>(in.get_varint());
  if (h.quant_bins < 4 || h.quant_bins % 2 != 0)
    throw io::StreamError("fpin: invalid quantization bin count");
  return h;
}

}  // namespace

bool is_interp_stream(std::span<const std::uint8_t> stream) {
  return stream.size() >= 4 &&
         std::equal(kInterpMagic, kInterpMagic + 4, stream.begin());
}

template <typename T>
std::vector<std::uint8_t> interp_compress(std::span<const T> values,
                                          const data::Dims& dims,
                                          const InterpParams& params,
                                          InterpInfo* info,
                                          std::span<T> recon_out) {
  if (values.size() != dims.count())
    throw std::invalid_argument("fpin: value count does not match dims");
  if (!recon_out.empty() && recon_out.size() != values.size())
    throw std::invalid_argument(
        "fpin: reconstruction size does not match dims");
  if (!(params.eb_abs > 0.0) || !std::isfinite(params.eb_abs))
    throw std::invalid_argument("fpin: error bound must be positive and finite");
  if (params.quantization_bins < 4 || params.quantization_bins % 2 != 0)
    throw std::invalid_argument("fpin: quantization_bins must be even and >= 4");

  const LinearQuantizer quant(params.eb_abs, params.quantization_bins);
  const std::size_t n = values.size();
  std::vector<std::uint32_t> codes(n);
  std::vector<T> recon(n);
  std::vector<T> outliers;

  for_each_interp_point(n, [&](std::size_t i, std::size_t left,
                               std::size_t right) {
    const double pred = interp_predict(recon, left, right);
    const double orig = static_cast<double>(values[i]);
    std::uint32_t code = quant.quantize(orig - pred);
    if (code != 0) {
      const T rec = static_cast<T>(pred + quant.dequantize(code));
      // Same guard as the Lorenzo codec: if the T-domain cast pushed the
      // stored reconstruction past the bound, demote to an exact outlier.
      if (std::abs(static_cast<double>(rec) - orig) <= params.eb_abs) {
        codes[i] = code;
        recon[i] = rec;
        return;
      }
      code = 0;
    }
    codes[i] = 0;
    outliers.push_back(values[i]);
    recon[i] = values[i];
  });

  Header header;
  header.scalar = std::is_same_v<T, double> ? 1 : 0;
  header.dims = dims;
  header.eb_abs = params.eb_abs;
  header.quant_bins = params.quantization_bins;

  io::ByteWriter inner;
  inner.put_varint(outliers.size());
  inner.put_bytes(io::bytes_of(std::span<const T>(outliers)));
  huffman::encode_stream(codes, params.quantization_bins, inner);

  io::ByteWriter out;
  write_in_header(header, out);
  out.put_blob(lossless::backend_compress(inner.buffer(), params.backend));
  auto bytes = out.take();

  if (!recon_out.empty())
    std::copy(recon.begin(), recon.end(), recon_out.begin());
  if (info) {
    info->value_count = n;
    info->outlier_count = outliers.size();
    info->compressed_bytes = bytes.size();
    double sse = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double err =
          static_cast<double>(values[i]) - static_cast<double>(recon[i]);
      sse += err * err;
    }
    info->achieved_sse = sse;
  }
  return bytes;
}

template <typename T>
Decompressed<T> interp_decompress(std::span<const std::uint8_t> stream) {
  io::ByteReader reader(stream);
  const Header header = read_in_header(reader);
  const std::uint8_t expect_scalar = std::is_same_v<T, double> ? 1 : 0;
  if (header.scalar != expect_scalar)
    throw io::StreamError("fpin: scalar type mismatch");
  const std::size_t count = header.dims.count();

  const auto inner = lossless::backend_decompress(reader.get_blob_view());
  io::ByteReader ir(inner);
  const std::uint64_t n_out = ir.get_varint();
  if (n_out > count) throw io::StreamError("fpin: outlier count exceeds values");
  const std::vector<T> outliers = ir.get_array<T>(n_out);
  const auto decoder = huffman::Decoder::read_table(ir);
  io::BitReader bits(ir.get_blob_view());
  const auto codes = decoder.decode(bits, count);

  const LinearQuantizer quant(header.eb_abs, header.quant_bins);
  std::vector<T> recon(count);
  std::size_t next_outlier = 0;
  for_each_interp_point(count, [&](std::size_t i, std::size_t left,
                                   std::size_t right) {
    const std::uint32_t code = codes[i];
    if (code == 0) {
      if (next_outlier >= outliers.size())
        throw io::StreamError("fpin: outlier list exhausted");
      recon[i] = outliers[next_outlier++];
      return;
    }
    if (code >= header.quant_bins)
      throw io::StreamError("fpin: quantization code out of range");
    const double pred = interp_predict(recon, left, right);
    recon[i] = static_cast<T>(pred + quant.dequantize(code));
  });
  if (next_outlier != outliers.size())
    throw io::StreamError("fpin: trailing outliers in stream");
  return {header.dims, std::move(recon)};
}

template std::vector<std::uint8_t> interp_compress<float>(
    std::span<const float>, const data::Dims&, const InterpParams&, InterpInfo*,
    std::span<float>);
template std::vector<std::uint8_t> interp_compress<double>(
    std::span<const double>, const data::Dims&, const InterpParams&, InterpInfo*,
    std::span<double>);
template Decompressed<float> interp_decompress<float>(
    std::span<const std::uint8_t>);
template Decompressed<double> interp_decompress<double>(
    std::span<const std::uint8_t>);

}  // namespace fpsnr::sz
