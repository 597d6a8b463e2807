#include "sz/stream_format.h"

#include <cmath>
#include <cstdint>

namespace fpsnr::sz {

std::string_view predictor_name(Predictor p) {
  switch (p) {
    case Predictor::Lorenzo: return "lorenzo";
    case Predictor::HybridRegression: return "hybrid-regression";
  }
  return "unknown";
}

std::string_view mode_name(ErrorBoundMode m) {
  switch (m) {
    case ErrorBoundMode::Absolute: return "abs";
    case ErrorBoundMode::ValueRangeRelative: return "vr-rel";
    case ErrorBoundMode::PointwiseRelative: return "pw-rel";
  }
  return "unknown";
}

void write_header(const StreamHeader& h, io::ByteWriter& out) {
  out.put_bytes(std::span<const std::uint8_t>(kMagic, 4));
  out.put<std::uint8_t>(kFormatVersion);
  out.put<std::uint8_t>(static_cast<std::uint8_t>(h.scalar));
  out.put<std::uint8_t>(static_cast<std::uint8_t>(h.mode));
  out.put<std::uint8_t>(static_cast<std::uint8_t>(h.predictor));
  out.put<std::uint8_t>(static_cast<std::uint8_t>(h.dims.rank()));
  for (std::size_t d = 0; d < h.dims.rank(); ++d) out.put_varint(h.dims[d]);
  out.put<double>(h.eb_abs);
  out.put<double>(h.user_bound);
  out.put<double>(h.value_range);
  out.put_varint(h.quant_bins);
  out.put<double>(h.pwrel_zero_floor);
}

StreamHeader read_header(io::ByteReader& in) {
  const auto magic = in.get_bytes(4);
  if (!std::equal(magic.begin(), magic.end(), kMagic))
    throw io::StreamError("fpsz: bad magic");
  const auto version = in.get<std::uint8_t>();
  if (version != kFormatVersion)
    throw io::StreamError("fpsz: unsupported format version");

  StreamHeader h;
  const auto scalar = in.get<std::uint8_t>();
  if (scalar > 1) throw io::StreamError("fpsz: unknown scalar type");
  h.scalar = static_cast<ScalarType>(scalar);

  const auto mode = in.get<std::uint8_t>();
  if (mode > 2) throw io::StreamError("fpsz: unknown error mode");
  h.mode = static_cast<ErrorBoundMode>(mode);

  const auto predictor = in.get<std::uint8_t>();
  if (predictor > 1) throw io::StreamError("fpsz: unknown predictor");
  h.predictor = static_cast<Predictor>(predictor);

  const auto rank = in.get<std::uint8_t>();
  if (rank < 1 || rank > 3) throw io::StreamError("fpsz: rank out of 1..3");
  std::vector<std::size_t> extents(rank);
  for (auto& e : extents) {
    e = in.get_varint();
    if (e == 0) throw io::StreamError("fpsz: zero extent");
  }
  h.dims = data::Dims(std::move(extents));

  h.eb_abs = in.get<double>();
  h.user_bound = in.get<double>();
  h.value_range = in.get<double>();
  if (!std::isfinite(h.eb_abs) || h.eb_abs <= 0.0)
    throw io::StreamError("fpsz: invalid error bound in header");
  const std::uint64_t bins = in.get_varint();
  if (bins > UINT32_MAX)
    throw io::StreamError("fpsz: quantization bin count exceeds 32 bits");
  h.quant_bins = static_cast<std::uint32_t>(bins);
  if (h.quant_bins < 4 || h.quant_bins % 2 != 0)
    throw io::StreamError("fpsz: invalid quantization bin count");
  h.pwrel_zero_floor = in.get<double>();
  return h;
}

StreamHeader inspect(std::span<const std::uint8_t> stream) {
  io::ByteReader reader(stream);
  return read_header(reader);
}

}  // namespace fpsnr::sz
