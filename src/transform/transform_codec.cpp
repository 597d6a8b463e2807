#include "transform/transform_codec.h"

#include <cmath>
#include <stdexcept>

#include "huffman/huffman.h"
#include "io/bitstream.h"
#include "io/bytebuffer.h"
#include "metrics/metrics.h"
#include "simd/aligned.h"
#include "simd/dispatch.h"
#include "sz/quantizer.h"
#include "transform/dct.h"
#include "transform/haar.h"

namespace fpsnr::transform {

namespace {

constexpr std::uint8_t kMagic[4] = {'F', 'P', 'T', 'C'};
constexpr std::uint8_t kVersion = 1;

void write_tc_header(const StreamHeader& h, io::ByteWriter& out) {
  out.put_bytes(std::span<const std::uint8_t>(kMagic, 4));
  out.put<std::uint8_t>(kVersion);
  out.put<std::uint8_t>(h.scalar);
  out.put<std::uint8_t>(static_cast<std::uint8_t>(h.kind));
  out.put<std::uint8_t>(static_cast<std::uint8_t>(h.dims.rank()));
  for (std::size_t d = 0; d < h.dims.rank(); ++d) out.put_varint(h.dims[d]);
  out.put<double>(h.bin_width);
  out.put<double>(h.value_range);
  out.put_varint(h.quant_bins);
  out.put_varint(h.haar_levels);
  out.put_varint(h.dct_block);
}

StreamHeader read_tc_header(io::ByteReader& in) {
  const auto magic = in.get_bytes(4);
  if (!std::equal(magic.begin(), magic.end(), kMagic))
    throw io::StreamError("fptc: bad magic");
  if (in.get<std::uint8_t>() != kVersion)
    throw io::StreamError("fptc: unsupported version");
  StreamHeader h;
  h.scalar = in.get<std::uint8_t>();
  if (h.scalar > 1) throw io::StreamError("fptc: unknown scalar type");
  const auto kind = in.get<std::uint8_t>();
  if (kind > 1) throw io::StreamError("fptc: unknown transform kind");
  h.kind = static_cast<Kind>(kind);
  const auto rank = in.get<std::uint8_t>();
  if (rank < 1 || rank > 3) throw io::StreamError("fptc: rank out of 1..3");
  std::vector<std::size_t> extents(rank);
  for (auto& e : extents) {
    e = in.get_varint();
    if (e == 0) throw io::StreamError("fptc: zero extent");
  }
  h.dims = data::Dims(std::move(extents));
  h.bin_width = in.get<double>();
  if (!(h.bin_width > 0.0) || !std::isfinite(h.bin_width))
    throw io::StreamError("fptc: invalid bin width");
  h.value_range = in.get<double>();
  h.quant_bins = static_cast<std::uint32_t>(in.get_varint());
  if (h.quant_bins < 4 || h.quant_bins % 2 != 0)
    throw io::StreamError("fptc: invalid quantization bin count");
  h.haar_levels = static_cast<unsigned>(in.get_varint());
  h.dct_block = in.get_varint();
  // The upper cap bounds the per-axis scratch the DCT kernel allocates
  // from this attacker-controlled field.
  if (h.dct_block < 2 || h.dct_block > 4096)
    throw io::StreamError("fptc: invalid DCT block");
  return h;
}

void forward_of(std::span<double> coeffs, const data::Dims& dims,
                const StreamHeader& h) {
  if (h.kind == Kind::HaarMultiLevel)
    haar_forward(coeffs, dims, h.haar_levels);
  else
    dct_forward(coeffs, dims, h.dct_block);
}

void inverse_of(std::span<double> coeffs, const data::Dims& dims,
                const StreamHeader& h) {
  if (h.kind == Kind::HaarMultiLevel)
    haar_inverse(coeffs, dims, h.haar_levels);
  else
    dct_inverse(coeffs, dims, h.dct_block);
}

struct QuantizedCoeffs {
  std::vector<std::uint32_t> codes;
  std::vector<double> outliers;
  std::vector<double> quantized;  // reconstructed coefficient values
};

QuantizedCoeffs quantize_coeffs(std::span<const double> coeffs, double bin_width,
                                std::uint32_t bins) {
  const sz::LinearQuantizer quant(bin_width / 2.0, bins);
  QuantizedCoeffs out;
  out.codes.resize(coeffs.size());
  out.quantized.resize(coeffs.size());
  for (std::size_t i = 0; i < coeffs.size(); ++i) {
    const std::uint32_t code = quant.quantize(coeffs[i]);
    out.codes[i] = code;
    if (code == 0) {
      out.outliers.push_back(coeffs[i]);
      out.quantized[i] = coeffs[i];  // stored exactly
    } else {
      out.quantized[i] = quant.dequantize(code);
    }
  }
  return out;
}

}  // namespace

template <typename T>
std::vector<std::uint8_t> compress(std::span<const T> values, const data::Dims& dims,
                                   const Params& params, Info* info,
                                   std::span<T> recon) {
  if (values.size() != dims.count())
    throw std::invalid_argument("fptc: value count does not match dims");
  if (!recon.empty() && recon.size() != values.size())
    throw std::invalid_argument(
        "fptc: reconstruction size does not match dims");
  if (!(params.bin_width > 0.0) || !std::isfinite(params.bin_width))
    throw std::invalid_argument("fptc: bin width must be positive and finite");

  StreamHeader header;
  header.scalar = std::is_same_v<T, double> ? 1 : 0;
  header.kind = params.kind;
  header.dims = dims;
  header.bin_width = params.bin_width;
  header.value_range = metrics::value_range(values);
  header.quant_bins = params.quantization_bins;
  header.haar_levels = params.haar_levels;
  header.dct_block = params.dct_block;

  simd::aligned_vector<double> coeffs(values.begin(), values.end());
  forward_of(coeffs, dims, header);
  const QuantizedCoeffs q = quantize_coeffs(coeffs, params.bin_width,
                                            params.quantization_bins);

  io::ByteWriter inner;
  inner.put_varint(q.outliers.size());
  inner.put_bytes(io::bytes_of(std::span<const double>(q.outliers)));
  huffman::encode_stream(q.codes, params.quantization_bins, inner);

  io::ByteWriter out;
  write_tc_header(header, out);
  out.put_blob(lossless::backend_compress(inner.buffer(), params.backend));
  auto bytes = out.take();

  if (!info && recon.empty()) return bytes;
  // Replay the decode side on the quantized coefficients so the reported
  // SSE and the handed-back reconstruction match the decompressed values
  // exactly, including the T cast.
  std::vector<double> replay = q.quantized;
  inverse_of(replay, dims, header);
  for (std::size_t i = 0; i < recon.size(); ++i)
    recon[i] = static_cast<T>(replay[i]);
  if (info) {
    info->bin_width = params.bin_width;
    info->value_range = header.value_range;
    info->value_count = values.size();
    info->outlier_count = q.outliers.size();
    info->compressed_bytes = bytes.size();
    info->compression_ratio =
        metrics::compression_ratio(values.size() * sizeof(T), bytes.size());
    info->bit_rate = metrics::bit_rate(bytes.size(), values.size());
    const simd::KernelTable& kt = simd::kernels();
    if constexpr (std::is_same_v<T, float>)
      info->achieved_sse =
          kt.sse_cast_f32(values.data(), replay.data(), values.size());
    else
      info->achieved_sse =
          kt.sse_f64(values.data(), replay.data(), values.size());
  }
  return bytes;
}

template <typename T>
Decompressed<T> decompress(std::span<const std::uint8_t> stream) {
  io::ByteReader reader(stream);
  const StreamHeader header = read_tc_header(reader);
  const std::uint8_t expect_scalar = std::is_same_v<T, double> ? 1 : 0;
  if (header.scalar != expect_scalar)
    throw io::StreamError("fptc: scalar type mismatch");
  const std::size_t count = header.dims.count();

  const auto inner = lossless::backend_decompress(reader.get_blob_view());
  io::ByteReader ir(inner);
  const std::uint64_t n_out = ir.get_varint();
  if (n_out > count) throw io::StreamError("fptc: outlier count exceeds values");
  const std::vector<double> outliers = ir.get_array<double>(n_out);
  const auto decoder = huffman::Decoder::read_table(ir);
  io::BitReader bits(ir.get_blob_view());
  const auto codes = decoder.decode(bits, count);

  const sz::LinearQuantizer quant(header.bin_width / 2.0, header.quant_bins);
  std::vector<double> coeffs(count);
  std::size_t next_outlier = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (codes[i] == 0) {
      if (next_outlier >= outliers.size())
        throw io::StreamError("fptc: outlier list exhausted");
      coeffs[i] = outliers[next_outlier++];
    } else {
      if (codes[i] >= header.quant_bins)
        throw io::StreamError("fptc: code out of range");
      coeffs[i] = quant.dequantize(codes[i]);
    }
  }
  if (next_outlier != outliers.size())
    throw io::StreamError("fptc: trailing outliers in stream");

  inverse_of(coeffs, header.dims, header);
  std::vector<T> values(count);
  for (std::size_t i = 0; i < count; ++i) values[i] = static_cast<T>(coeffs[i]);
  return {header.dims, std::move(values)};
}

StreamHeader inspect(std::span<const std::uint8_t> stream) {
  io::ByteReader reader(stream);
  return read_tc_header(reader);
}

template <typename T>
CoefficientTrace coefficient_trace(std::span<const T> values, const data::Dims& dims,
                                   const Params& params) {
  if (values.size() != dims.count())
    throw std::invalid_argument("fptc: value count does not match dims");
  StreamHeader header;
  header.kind = params.kind;
  header.haar_levels = params.haar_levels;
  header.dct_block = params.dct_block;
  std::vector<double> coeffs(values.begin(), values.end());
  forward_of(coeffs, dims, header);
  QuantizedCoeffs q = quantize_coeffs(coeffs, params.bin_width,
                                      params.quantization_bins);
  return {std::move(coeffs), std::move(q.quantized)};
}

template std::vector<std::uint8_t> compress<float>(std::span<const float>,
                                                   const data::Dims&, const Params&,
                                                   Info*, std::span<float>);
template std::vector<std::uint8_t> compress<double>(std::span<const double>,
                                                    const data::Dims&, const Params&,
                                                    Info*, std::span<double>);
template Decompressed<float> decompress<float>(std::span<const std::uint8_t>);
template Decompressed<double> decompress<double>(std::span<const std::uint8_t>);
template CoefficientTrace coefficient_trace<float>(std::span<const float>,
                                                   const data::Dims&, const Params&);
template CoefficientTrace coefficient_trace<double>(std::span<const double>,
                                                    const data::Dims&, const Params&);

}  // namespace fpsnr::transform
