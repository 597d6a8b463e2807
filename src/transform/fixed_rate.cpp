#include "transform/fixed_rate.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "io/bitstream.h"
#include "io/bytebuffer.h"
#include "simd/aligned.h"
#include "simd/dispatch.h"
#include "transform/dct.h"

namespace fpsnr::transform {

namespace {

constexpr std::uint8_t kMagic[4] = {'F', 'P', 'Z', 'R'};
constexpr std::uint8_t kVersion = 1;
/// Group-width byte announcing a raw-double escape group (the SIMD group
/// kernels return the same sentinel). A group escapes when any quantized
/// index magnitude reaches simd::kZfprMaxIndexMagnitude — beyond that it
/// cannot round-trip through int64, so the raw doubles ship instead.
constexpr unsigned kEscapeWidth = simd::kZfprEscape;
/// Caps on the sizes a stream may declare: bound how far a crafted header
/// can inflate decode allocations relative to the payload (the DCT kernel
/// allocates per-axis scratch of dct_block doubles).
constexpr std::size_t kMaxGroup = 4096;
constexpr std::size_t kMaxDctBlock = 4096;

std::int64_t zigzag_decode(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

struct Header {
  std::uint8_t scalar = 0;
  data::Dims dims;
  double eb_abs = 0.0;
  std::size_t dct_block = 8;
  std::size_t group = 64;
};

void write_zr_header(const Header& h, io::ByteWriter& out) {
  out.put_bytes(std::span<const std::uint8_t>(kMagic, 4));
  out.put<std::uint8_t>(kVersion);
  out.put<std::uint8_t>(h.scalar);
  out.put<std::uint8_t>(static_cast<std::uint8_t>(h.dims.rank()));
  for (std::size_t d = 0; d < h.dims.rank(); ++d) out.put_varint(h.dims[d]);
  out.put<double>(h.eb_abs);
  out.put_varint(h.dct_block);
  out.put_varint(h.group);
}

Header read_zr_header(io::ByteReader& in) {
  const auto magic = in.get_bytes(4);
  if (!std::equal(magic.begin(), magic.end(), kMagic))
    throw io::StreamError("fpzr: bad magic");
  if (in.get<std::uint8_t>() != kVersion)
    throw io::StreamError("fpzr: unsupported version");
  Header h;
  h.scalar = in.get<std::uint8_t>();
  if (h.scalar > 1) throw io::StreamError("fpzr: unknown scalar type");
  const auto rank = in.get<std::uint8_t>();
  if (rank < 1 || rank > 3) throw io::StreamError("fpzr: rank out of 1..3");
  std::vector<std::size_t> extents(rank);
  for (auto& e : extents) {
    e = in.get_varint();
    if (e == 0) throw io::StreamError("fpzr: zero extent");
  }
  h.dims = data::Dims(std::move(extents));
  h.eb_abs = in.get<double>();
  if (!(h.eb_abs > 0.0) || !std::isfinite(h.eb_abs))
    throw io::StreamError("fpzr: invalid error bound");
  h.dct_block = in.get_varint();
  if (h.dct_block < 2 || h.dct_block > kMaxDctBlock)
    throw io::StreamError("fpzr: invalid DCT block");
  h.group = in.get_varint();
  if (h.group < 1 || h.group > kMaxGroup)
    throw io::StreamError("fpzr: invalid group size");
  return h;
}

}  // namespace

bool is_fixed_rate_stream(std::span<const std::uint8_t> stream) {
  return stream.size() >= 4 && std::equal(kMagic, kMagic + 4, stream.begin());
}

template <typename T>
std::vector<std::uint8_t> fixed_rate_compress(std::span<const T> values,
                                              const data::Dims& dims,
                                              const FixedRateParams& params,
                                              FixedRateInfo* info,
                                              std::span<T> recon) {
  if (values.size() != dims.count())
    throw std::invalid_argument("fpzr: value count does not match dims");
  if (!recon.empty() && recon.size() != values.size())
    throw std::invalid_argument(
        "fpzr: reconstruction size does not match dims");
  if (!(params.eb_abs > 0.0) || !std::isfinite(params.eb_abs))
    throw std::invalid_argument("fpzr: error bound must be positive and finite");
  if (params.group < 1 || params.group > kMaxGroup)
    throw std::invalid_argument("fpzr: group size out of 1..4096");
  if (params.dct_block < 2 || params.dct_block > kMaxDctBlock)
    throw std::invalid_argument("fpzr: DCT block out of 2..4096");

  Header header;
  header.scalar = std::is_same_v<T, double> ? 1 : 0;
  header.dims = dims;
  header.eb_abs = params.eb_abs;
  header.dct_block = params.dct_block;
  header.group = params.group;

  simd::aligned_vector<double> coeffs(values.begin(), values.end());
  dct_forward(coeffs, dims, params.dct_block);

  const double bin = 2.0 * params.eb_abs;
  const std::size_t n = coeffs.size();
  simd::aligned_vector<double> recon_coeffs(n);
  std::size_t escaped = 0;
  const simd::KernelTable& kt = simd::kernels();

  io::BitWriter bits;
  simd::aligned_vector<std::uint64_t> zz(params.group);
  for (std::size_t g0 = 0; g0 < n; g0 += params.group) {
    const std::size_t gn = std::min(params.group, n - g0);
    // A group is bit-packable only if every quantized index fits int64
    // comfortably (kEscapeWidth return); otherwise ship the raw
    // coefficients (exact, zero error).
    const unsigned width = kt.zfpr_quant_group(coeffs.data() + g0, gn, bin,
                                               zz.data(),
                                               recon_coeffs.data() + g0);
    if (width == kEscapeWidth) {
      ++escaped;
      bits.write_bits(kEscapeWidth, 8);
      for (std::size_t j = 0; j < gn; ++j) {
        bits.write_bits(std::bit_cast<std::uint64_t>(coeffs[g0 + j]), 64);
        recon_coeffs[g0 + j] = coeffs[g0 + j];
      }
      continue;
    }
    bits.write_bits(width, 8);
    for (std::size_t j = 0; j < gn; ++j) bits.write_bits(zz[j], width);
  }

  io::ByteWriter out;
  write_zr_header(header, out);
  out.put_blob(bits.take());
  auto bytes = out.take();

  if (!info && recon.empty()) return bytes;
  // Replay the decode side so the reported SSE and the handed-back
  // reconstruction match the decompressed values exactly, including the T
  // cast after the inverse transform.
  dct_inverse(recon_coeffs, dims, params.dct_block);
  for (std::size_t i = 0; i < recon.size(); ++i)
    recon[i] = static_cast<T>(recon_coeffs[i]);
  if (info) {
    info->value_count = values.size();
    info->escaped_groups = escaped;
    info->compressed_bytes = bytes.size();
    info->bit_rate = values.empty()
                         ? 0.0
                         : 8.0 * static_cast<double>(bytes.size()) /
                               static_cast<double>(values.size());
    if constexpr (std::is_same_v<T, float>)
      info->achieved_sse =
          kt.sse_cast_f32(values.data(), recon_coeffs.data(), values.size());
    else
      info->achieved_sse =
          kt.sse_f64(values.data(), recon_coeffs.data(), values.size());
  }
  return bytes;
}

template <typename T>
Decompressed<T> fixed_rate_decompress(std::span<const std::uint8_t> stream) {
  io::ByteReader reader(stream);
  const Header header = read_zr_header(reader);
  const std::uint8_t expect_scalar = std::is_same_v<T, double> ? 1 : 0;
  if (header.scalar != expect_scalar)
    throw io::StreamError("fpzr: scalar type mismatch");
  const std::size_t n = header.dims.count();

  const double bin = 2.0 * header.eb_abs;
  const auto blob = reader.get_blob_view();
  // Every group costs at least its 8-bit width byte, so the declared value
  // count is bounded by the payload size — check BEFORE allocating
  // anything sized by the hostile header.
  const std::size_t groups = n / header.group + (n % header.group ? 1 : 0);
  if (groups > blob.size())
    throw io::StreamError("fpzr: truncated payload");
  io::BitReader bits(blob);
  std::vector<double> coeffs(n);
  for (std::size_t g0 = 0; g0 < n; g0 += header.group) {
    const std::size_t gn = std::min(header.group, n - g0);
    const auto width = static_cast<unsigned>(bits.read_bits(8));
    if (width == kEscapeWidth) {
      for (std::size_t j = 0; j < gn; ++j) {
        const double c = std::bit_cast<double>(bits.read_bits(64));
        coeffs[g0 + j] = c;
      }
      continue;
    }
    if (width > 64) throw io::StreamError("fpzr: invalid group bit width");
    for (std::size_t j = 0; j < gn; ++j) {
      const std::int64_t k = zigzag_decode(bits.read_bits(width));
      coeffs[g0 + j] = static_cast<double>(k) * bin;
    }
  }

  dct_inverse(coeffs, header.dims, header.dct_block);
  std::vector<T> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<T>(coeffs[i]);
  return {header.dims, std::move(out)};
}

template std::vector<std::uint8_t> fixed_rate_compress<float>(
    std::span<const float>, const data::Dims&, const FixedRateParams&,
    FixedRateInfo*, std::span<float>);
template std::vector<std::uint8_t> fixed_rate_compress<double>(
    std::span<const double>, const data::Dims&, const FixedRateParams&,
    FixedRateInfo*, std::span<double>);
template Decompressed<float> fixed_rate_decompress<float>(
    std::span<const std::uint8_t>);
template Decompressed<double> fixed_rate_decompress<double>(
    std::span<const std::uint8_t>);

}  // namespace fpsnr::transform
