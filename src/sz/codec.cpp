#include "sz/codec.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "huffman/huffman.h"
#include "io/bitstream.h"
#include "lossless/backend.h"
#include "metrics/metrics.h"
#include "simd/aligned.h"
#include "simd/dispatch.h"
#include "sz/lorenzo.h"
#include "sz/quantizer.h"
#include "sz/regression.h"

namespace fpsnr::sz {

namespace {

/// Visit every grid point in C scan order: fn(flat_idx, i0, i1, i2).
template <typename F>
void for_each_point(const data::Dims& dims, F&& fn) {
  const std::size_t rank = dims.rank();
  std::size_t idx = 0;
  if (rank == 1) {
    for (std::size_t i0 = 0; i0 < dims[0]; ++i0) fn(idx++, i0, std::size_t{0}, std::size_t{0});
  } else if (rank == 2) {
    for (std::size_t i0 = 0; i0 < dims[0]; ++i0)
      for (std::size_t i1 = 0; i1 < dims[1]; ++i1) fn(idx++, i0, i1, std::size_t{0});
  } else {
    for (std::size_t i0 = 0; i0 < dims[0]; ++i0)
      for (std::size_t i1 = 0; i1 < dims[1]; ++i1)
        for (std::size_t i2 = 0; i2 < dims[2]; ++i2) fn(idx++, i0, i1, i2);
  }
}

template <typename T>
LorenzoPredictor<T> make_predictor(const T* recon, const data::Dims& dims) {
  const std::size_t rank = dims.rank();
  return LorenzoPredictor<T>(recon, dims[0], rank > 1 ? dims[1] : 1,
                             rank > 2 ? dims[2] : 1, rank);
}

// Aligned storage: codes/recon are the hot per-field scratch the SIMD
// kernels stream through.
template <typename T>
struct QuantizeOutput {
  simd::aligned_vector<std::uint32_t> codes;
  simd::aligned_vector<T> recon;
  simd::aligned_vector<T> outliers;
};

// ---- HybridRegression predictor (SZ 2.x style) ----------------------------

struct BlockGrid {
  std::array<std::size_t, 3> ext = {1, 1, 1};      // grid extents, padded
  std::array<std::size_t, 3> nblocks = {1, 1, 1};  // block counts per axis

  explicit BlockGrid(const data::Dims& dims) {
    for (std::size_t d = 0; d < dims.rank(); ++d) {
      ext[d] = dims[d];
      nblocks[d] = (dims[d] + kRegressionBlock - 1) / kRegressionBlock;
    }
  }
  std::size_t total() const { return nblocks[0] * nblocks[1] * nblocks[2]; }
  std::size_t block_of(std::size_t i0, std::size_t i1, std::size_t i2) const {
    return ((i0 / kRegressionBlock) * nblocks[1] + i1 / kRegressionBlock) *
               nblocks[2] +
           i2 / kRegressionBlock;
  }
};

/// Per-stream predictor-selection plan: one bit per 6^d block plus the
/// quantized regression coefficients of the blocks that use regression.
struct HybridPlan {
  double coeff_step = 0.0;
  std::vector<std::uint8_t> use_regression;   // one byte (0/1) per block
  std::vector<std::uint32_t> coeff_index;     // block -> index into coeffs
  std::vector<RegressionCoeffs> coeffs;
};

/// Decide per block between Lorenzo and regression by comparing mean
/// absolute prediction errors on the *original* data (compressor-side
/// heuristic only — the decision itself is shipped in the stream, so the
/// two codec sides never need to agree on the heuristic).
template <typename T>
HybridPlan build_hybrid_plan(std::span<const T> values, const data::Dims& dims,
                             double eb_abs) {
  const BlockGrid grid(dims);
  HybridPlan plan;
  plan.coeff_step = eb_abs / 4.0;
  plan.use_regression.assign(grid.total(), 0);
  plan.coeff_index.assign(grid.total(), 0);

  const std::size_t rank = dims.rank();
  auto lorenzo = make_predictor<T>(values.data(), dims);

  std::size_t b = 0;
  for (std::size_t b0 = 0; b0 < grid.nblocks[0]; ++b0) {
    for (std::size_t b1 = 0; b1 < grid.nblocks[1]; ++b1) {
      for (std::size_t b2 = 0; b2 < grid.nblocks[2]; ++b2, ++b) {
        const std::array<std::size_t, 3> lo = {b0 * kRegressionBlock,
                                               b1 * kRegressionBlock,
                                               b2 * kRegressionBlock};
        std::array<std::size_t, 3> bd;
        for (std::size_t d = 0; d < 3; ++d)
          bd[d] = std::min(kRegressionBlock, grid.ext[d] - lo[d]);

        const RegressionCoeffs fit = fit_block(values, dims, lo, bd);
        const RegressionCoeffs q = quantize_coeffs(fit, plan.coeff_step);
        const double reg_err = block_abs_error(values, dims, lo, bd, q);

        // Lorenzo error on originals over the same block.
        double lor_err = 0.0;
        std::size_t count = 0;
        for (std::size_t o0 = 0; o0 < bd[0]; ++o0)
          for (std::size_t o1 = 0; o1 < bd[1]; ++o1)
            for (std::size_t o2 = 0; o2 < bd[2]; ++o2) {
              const std::size_t i0 = lo[0] + o0, i1 = lo[1] + o1, i2 = lo[2] + o2;
              std::size_t idx = i0;
              if (rank >= 2) idx = idx * dims[1] + i1;
              if (rank >= 3) idx = idx * dims[2] + i2;
              lor_err += std::abs(static_cast<double>(values[idx]) -
                                  lorenzo.predict(idx, i0, i1, i2));
              ++count;
            }
        lor_err /= static_cast<double>(count);

        if (reg_err < lor_err) {
          plan.use_regression[b] = 1;
          plan.coeff_index[b] = static_cast<std::uint32_t>(plan.coeffs.size());
          plan.coeffs.push_back(q);
        }
      }
    }
  }
  return plan;
}

std::uint64_t zigzag_encode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t zigzag_decode(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

std::vector<std::uint8_t> serialize_plan(const HybridPlan& plan) {
  io::ByteWriter out;
  out.put<double>(plan.coeff_step);
  out.put_varint(plan.use_regression.size());
  std::vector<std::uint8_t> bitmap((plan.use_regression.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < plan.use_regression.size(); ++i)
    if (plan.use_regression[i]) bitmap[i >> 3] |= static_cast<std::uint8_t>(1u << (i & 7));
  out.put_bytes(bitmap);
  out.put_varint(plan.coeffs.size());
  for (const RegressionCoeffs& c : plan.coeffs)
    for (double v : c.b)
      out.put_varint(zigzag_encode(
          static_cast<std::int64_t>(std::llround(v / plan.coeff_step))));
  return lossless::backend_compress(out.buffer());
}

HybridPlan deserialize_plan(std::span<const std::uint8_t> blob) {
  const auto raw = lossless::backend_decompress(blob);
  io::ByteReader in(raw);
  HybridPlan plan;
  plan.coeff_step = in.get<double>();
  if (!(plan.coeff_step > 0.0) || !std::isfinite(plan.coeff_step))
    throw io::StreamError("fpsz: invalid regression coefficient step");
  const std::uint64_t nblocks = in.get_varint();
  // One bitmap bit per block, read before anything is sized by nblocks.
  const auto bitmap = in.get_bytes(nblocks / 8 + (nblocks % 8 != 0));
  plan.use_regression.assign(nblocks, 0);
  plan.coeff_index.assign(nblocks, 0);
  std::uint32_t next = 0;
  for (std::uint64_t i = 0; i < nblocks; ++i) {
    if ((bitmap[i >> 3] >> (i & 7)) & 1u) {
      plan.use_regression[i] = 1;
      plan.coeff_index[i] = next++;
    }
  }
  const std::uint64_t ncoeffs = in.get_varint();
  if (ncoeffs != next)
    throw io::StreamError("fpsz: regression plan bitmap/coefficient mismatch");
  plan.coeffs.resize(ncoeffs);
  for (auto& c : plan.coeffs)
    for (double& v : c.b)
      v = static_cast<double>(zigzag_decode(in.get_varint())) * plan.coeff_step;
  return plan;
}

/// Hybrid-predictor quantization pass: identical to quantize_pass except
/// the per-point prediction consults the plan.
template <typename T>
QuantizeOutput<T> quantize_pass_hybrid(std::span<const T> values,
                                       const data::Dims& dims, double eb_abs,
                                       std::uint32_t bins,
                                       const HybridPlan& plan) {
  const BlockGrid grid(dims);
  if (plan.use_regression.size() != grid.total())
    throw io::StreamError("fpsz: regression plan does not match dims");
  LinearQuantizer quant(eb_abs, bins);
  QuantizeOutput<T> out;
  out.codes.resize(values.size());
  out.recon.resize(values.size());
  auto lorenzo = make_predictor<T>(out.recon.data(), dims);
  for_each_point(dims, [&](std::size_t idx, std::size_t i0, std::size_t i1,
                           std::size_t i2) {
    const std::size_t b = grid.block_of(i0, i1, i2);
    const double pred =
        plan.use_regression[b]
            ? predict_regression(plan.coeffs[plan.coeff_index[b]],
                                 i0 % kRegressionBlock, i1 % kRegressionBlock,
                                 i2 % kRegressionBlock)
            : lorenzo.predict(idx, i0, i1, i2);
    const double orig = static_cast<double>(values[idx]);
    std::uint32_t code = quant.quantize(orig - pred);
    if (code != 0) {
      const T rec = static_cast<T>(pred + quant.dequantize(code));
      if (std::abs(static_cast<double>(rec) - orig) <= eb_abs) {
        out.codes[idx] = code;
        out.recon[idx] = rec;
        return;
      }
      code = 0;
    }
    out.codes[idx] = 0;
    out.outliers.push_back(values[idx]);
    out.recon[idx] = values[idx];
  });
  return out;
}

template <typename T>
void reconstruct_pass_hybrid(std::span<const std::uint32_t> codes,
                             std::span<const T> outliers,
                             const data::Dims& dims, double eb_abs,
                             std::uint32_t bins, const HybridPlan& plan,
                             std::span<T> recon) {
  const BlockGrid grid(dims);
  if (plan.use_regression.size() != grid.total())
    throw io::StreamError("fpsz: regression plan does not match dims");
  LinearQuantizer quant(eb_abs, bins);
  auto lorenzo = make_predictor<T>(recon.data(), dims);
  std::size_t next_outlier = 0;
  for_each_point(dims, [&](std::size_t idx, std::size_t i0, std::size_t i1,
                           std::size_t i2) {
    const std::uint32_t code = codes[idx];
    if (code == 0) {
      if (next_outlier >= outliers.size())
        throw io::StreamError("fpsz: outlier list exhausted");
      recon[idx] = outliers[next_outlier++];
      return;
    }
    if (code >= bins) throw io::StreamError("fpsz: quantization code out of range");
    const std::size_t b = grid.block_of(i0, i1, i2);
    const double pred =
        plan.use_regression[b]
            ? predict_regression(plan.coeffs[plan.coeff_index[b]],
                                 i0 % kRegressionBlock, i1 % kRegressionBlock,
                                 i2 % kRegressionBlock)
            : lorenzo.predict(idx, i0, i1, i2);
    recon[idx] = static_cast<T>(pred + quant.dequantize(code));
  });
  if (next_outlier != outliers.size())
    throw io::StreamError("fpsz: trailing outliers in stream");
}

/// Steps 1+2: prediction + quantization. The reconstruction buffer is
/// maintained during compression so predictions match decompression
/// bit-for-bit (paper Eq. 1).
template <typename T>
QuantizeOutput<T> quantize_pass(std::span<const T> values, const data::Dims& dims,
                                double eb_abs, std::uint32_t bins,
                                PredictionTrace* trace) {
  LinearQuantizer quant(eb_abs, bins);
  QuantizeOutput<T> out;
  out.codes.resize(values.size());
  out.recon.resize(values.size());
  if (trace == nullptr && dims.rank() == 2) {
    // Rank-2 fast path: the fused Lorenzo predict+quantize kernel (vector
    // backends pipeline a 4-row wavefront; every backend is bit-identical
    // to the loop below). Tracing keeps the generic loop — it needs the
    // per-point diff/deq stream.
    const simd::KernelTable& kt = simd::kernels();
    out.outliers.resize(values.size());
    std::size_t n_out;
    if constexpr (std::is_same_v<T, float>)
      n_out = kt.lorenzo2_quant_f32(values.data(), dims[0], dims[1], eb_abs,
                                    bins, out.codes.data(), out.recon.data(),
                                    out.outliers.data());
    else
      n_out = kt.lorenzo2_quant_f64(values.data(), dims[0], dims[1], eb_abs,
                                    bins, out.codes.data(), out.recon.data(),
                                    out.outliers.data());
    out.outliers.resize(n_out);
    return out;
  }
  if (trace == nullptr && dims.rank() == 3) {
    // Rank-3 fast path, the same kernel family. It marks outliers with
    // code 0 and leaves collecting them here, so no value-sized outlier
    // buffer is allocated per tile.
    const simd::KernelTable& kt = simd::kernels();
    if constexpr (std::is_same_v<T, float>)
      kt.lorenzo3_quant_f32(values.data(), dims[0], dims[1], dims[2], eb_abs,
                            bins, out.codes.data(), out.recon.data());
    else
      kt.lorenzo3_quant_f64(values.data(), dims[0], dims[1], dims[2], eb_abs,
                            bins, out.codes.data(), out.recon.data());
    for (std::size_t i = 0; i < values.size(); ++i)
      if (out.codes[i] == 0) out.outliers.push_back(values[i]);
    return out;
  }
  if (trace) {
    trace->pe.reserve(values.size());
    trace->pe_recon.reserve(values.size());
  }
  auto predictor = make_predictor<T>(out.recon.data(), dims);
  for_each_point(dims, [&](std::size_t idx, std::size_t i0, std::size_t i1,
                           std::size_t i2) {
    const double pred = predictor.predict(idx, i0, i1, i2);
    const double orig = static_cast<double>(values[idx]);
    const double diff = orig - pred;
    std::uint32_t code = quant.quantize(diff);
    if (code != 0) {
      const double deq = quant.dequantize(code);
      const T rec = static_cast<T>(pred + deq);
      // Guard against precision loss in the T-domain cast: if the stored
      // reconstruction violates the bound, demote to an exact outlier.
      if (std::abs(static_cast<double>(rec) - orig) <= eb_abs) {
        out.codes[idx] = code;
        out.recon[idx] = rec;
        if (trace) {
          trace->pe.push_back(diff);
          trace->pe_recon.push_back(deq);
        }
        return;
      }
      code = 0;
    }
    out.codes[idx] = 0;
    out.outliers.push_back(values[idx]);
    out.recon[idx] = values[idx];
    if (trace) {
      // Exact storage: zero quantization-stage error for this point.
      trace->pe.push_back(diff);
      trace->pe_recon.push_back(diff);
    }
  });
  return out;
}

/// Inverse of quantize_pass given the codes and outlier list, written into
/// `recon` (dims.count() values). One sweep in scan order validates every
/// code and places each outlier at its code-0 point, raising the same
/// errors at the same point a per-point decode would; the Lorenzo kernel
/// then rebuilds the rest (rank 1 keeps a plain loop).
template <typename T>
void reconstruct_pass(std::span<const std::uint32_t> codes,
                      std::span<const T> outliers, const data::Dims& dims,
                      double eb_abs, std::uint32_t bins, std::span<T> recon) {
  std::size_t next_outlier = 0;
  for (std::size_t idx = 0; idx < codes.size(); ++idx) {
    const std::uint32_t code = codes[idx];
    if (code == 0) {
      if (next_outlier >= outliers.size())
        throw io::StreamError("fpsz: outlier list exhausted");
      recon[idx] = outliers[next_outlier++];
    } else if (code >= bins) {
      throw io::StreamError("fpsz: quantization code out of range");
    }
  }
  if (next_outlier != outliers.size())
    throw io::StreamError("fpsz: trailing outliers in stream");

  const simd::KernelTable& kt = simd::kernels();
  if (dims.rank() == 2) {
    if constexpr (std::is_same_v<T, float>)
      kt.lorenzo2_recon_f32(codes.data(), dims[0], dims[1], eb_abs, bins,
                            recon.data());
    else
      kt.lorenzo2_recon_f64(codes.data(), dims[0], dims[1], eb_abs, bins,
                            recon.data());
  } else if (dims.rank() == 3) {
    if constexpr (std::is_same_v<T, float>)
      kt.lorenzo3_recon_f32(codes.data(), dims[0], dims[1], dims[2], eb_abs,
                            bins, recon.data());
    else
      kt.lorenzo3_recon_f64(codes.data(), dims[0], dims[1], dims[2], eb_abs,
                            bins, recon.data());
  } else {
    const LinearQuantizer quant(eb_abs, bins);
    for (std::size_t idx = 0; idx < codes.size(); ++idx)
      if (codes[idx] != 0)
        recon[idx] = static_cast<T>(
            (idx > 0 ? static_cast<double>(recon[idx - 1]) : 0.0) +
            quant.dequantize(codes[idx]));
  }
}

/// Steps 3+4: entropy-code the quantization codes, append outliers, and run
/// the lossless backend over the whole inner stream.
template <typename T>
std::vector<std::uint8_t> encode_inner(const QuantizeOutput<T>& q,
                                       std::uint32_t bins,
                                       const Params& params) {
  io::ByteWriter inner;
  inner.put_varint(q.outliers.size());
  inner.put_bytes(io::bytes_of(std::span<const T>(q.outliers)));

  huffman::encode_stream(q.codes, bins, inner);

  return lossless::backend_compress(inner.buffer(), params.backend);
}

template <typename T>
struct DecodedInner {
  std::vector<std::uint32_t> codes;
  std::vector<T> outliers;
};

template <typename T>
DecodedInner<T> decode_inner(std::span<const std::uint8_t> payload,
                             std::size_t count) {
  const auto inner = lossless::backend_decompress(payload);
  io::ByteReader reader(inner);
  const std::uint64_t outlier_count = reader.get_varint();
  if (outlier_count > count)
    throw io::StreamError("fpsz: outlier count exceeds value count");
  DecodedInner<T> out;
  out.outliers = reader.get_array<T>(outlier_count);

  const auto decoder = huffman::Decoder::read_table(reader);
  const auto payload_bits = reader.get_blob_view();
  io::BitReader bits(payload_bits);
  out.codes = decoder.decode(bits, count);
  return out;
}

// ---- PointwiseRelative support: log2-domain transform -------------------
//
// x is split into (sign, y = log2 |x|); y is compressed in Absolute mode
// with bound log2(1 + eb), which bounds the multiplicative reconstruction
// error by (1 + eb) on both sides. Values with |x| below the zero floor
// (including exact zeros) are recorded as exceptions and restored verbatim.

template <typename T>
struct PwrelTransform {
  std::vector<T> logs;                 // y values fed to the abs-mode core
  std::vector<std::uint8_t> sign_bits; // packed, 1 = negative
  std::vector<std::uint64_t> exception_indices;
  std::vector<T> exception_values;
};

bool pwrel_negative(std::span<const std::uint8_t> sign_bits, std::size_t i) {
  return (sign_bits[i >> 3] >> (i & 7)) & 1u;
}

/// Decode-side value of one log-domain reconstruction.
template <typename T>
T pwrel_value(T log, bool negative) {
  const double mag = std::exp2(static_cast<double>(log));
  return static_cast<T>(negative ? -mag : mag);
}

template <typename T>
PwrelTransform<T> pwrel_forward(std::span<const T> values, double zero_floor) {
  PwrelTransform<T> t;
  t.logs.resize(values.size());
  t.sign_bits.assign((values.size() + 7) / 8, 0);
  T last_log = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double x = static_cast<double>(values[i]);
    if (!std::isfinite(x) || std::abs(x) < zero_floor) {
      t.exception_indices.push_back(i);
      t.exception_values.push_back(values[i]);
      // Feed a locally smooth placeholder to the predictor; it is
      // overwritten from the exception list at decompression.
      t.logs[i] = last_log;
      continue;
    }
    if (x < 0.0) t.sign_bits[i >> 3] |= static_cast<std::uint8_t>(1u << (i & 7));
    const T y = static_cast<T>(std::log2(std::abs(x)));
    t.logs[i] = y;
    last_log = y;
  }
  return t;
}

/// Replay the decoder on the log-domain recon buffer. The log2 / exp2
/// round trip and the T casts can push a value that sits on the edge of
/// its log bin just past (1 + eb); such values join the exception list, so
/// |x - x~| <= eb * |x| holds on every value. Returns the exact SSE of the
/// decoded stream (exceptions reproduce their values and add nothing) and,
/// when `recon` is non-empty, writes the decoded values there.
template <typename T>
double pwrel_finish(std::span<const T> values, std::span<const T> recon_logs,
                    double eb, PwrelTransform<T>& t, std::span<T> recon) {
  std::vector<std::uint64_t> indices;
  std::vector<T> exact;
  auto keep_exact = [&](std::size_t i) {
    indices.push_back(i);
    exact.push_back(values[i]);
    if (!recon.empty()) recon[i] = values[i];
  };
  double sse = 0.0;
  std::size_t k = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (k < t.exception_indices.size() && t.exception_indices[k] == i) {
      ++k;
      keep_exact(i);
      continue;
    }
    const double x = static_cast<double>(values[i]);
    const T decoded =
        pwrel_value(recon_logs[i], pwrel_negative(t.sign_bits, i));
    const double err = static_cast<double>(decoded) - x;
    if (!(std::abs(err) <= eb * std::abs(x))) {
      keep_exact(i);
      continue;
    }
    if (!recon.empty()) recon[i] = decoded;
    sse += err * err;
  }
  t.exception_indices = std::move(indices);
  t.exception_values = std::move(exact);
  return sse;
}

template <typename T>
void pwrel_inverse(std::span<T> values, std::span<const std::uint8_t> sign_bits,
                   std::span<const std::uint64_t> exception_indices,
                   std::span<const T> exception_values) {
  for (std::size_t i = 0; i < values.size(); ++i)
    values[i] = pwrel_value(values[i], pwrel_negative(sign_bits, i));
  for (std::size_t k = 0; k < exception_indices.size(); ++k) {
    const std::uint64_t idx = exception_indices[k];
    if (idx >= values.size())
      throw io::StreamError("fpsz: pwrel exception index out of range");
    values[idx] = exception_values[k];
  }
}

/// The stream header, checked to hold T values.
template <typename T>
StreamHeader read_header_of(io::ByteReader& reader) {
  const StreamHeader header = read_header(reader);
  if (header.scalar != scalar_type_of<T>())
    throw io::StreamError("fpsz: scalar type mismatch");
  return header;
}

/// Decode everything after the header, in the order compress() writes it:
/// [pwrel side blob] [hybrid plan blob] [inner blob]. `output()` hands
/// over the header.dims.count() values to reconstruct into; it is called
/// once the inner stream has decoded, so a header that lies about its size
/// is rejected by the entropy stage before any value buffer is sized.
template <typename T, typename Output>
void decode_body(io::ByteReader& reader, const StreamHeader& header,
                 Output&& output) {
  const std::size_t count = header.dims.count();
  const bool pwrel = header.mode == ErrorBoundMode::PointwiseRelative;
  std::vector<std::uint8_t> sign_bits;
  std::vector<std::uint64_t> exc_idx;
  std::vector<T> exc_val;
  if (pwrel) {
    const auto side_raw = lossless::backend_decompress(reader.get_blob_view());
    io::ByteReader side(side_raw);
    sign_bits = side.get_blob();
    if (sign_bits.size() != (count + 7) / 8)
      throw io::StreamError("fpsz: sign bitmap size mismatch");
    const std::uint64_t n_exc = side.get_varint();
    if (n_exc > count) throw io::StreamError("fpsz: exception count exceeds values");
    exc_idx.resize(n_exc);
    exc_val.resize(n_exc);
    std::uint64_t prev = 0;
    for (std::uint64_t k = 0; k < n_exc; ++k) {
      prev += side.get_varint();
      exc_idx[k] = prev;
      exc_val[k] = side.get<T>();
    }
  }
  const bool hybrid = header.predictor == Predictor::HybridRegression;
  const HybridPlan plan =
      hybrid ? deserialize_plan(reader.get_blob_view()) : HybridPlan{};
  const auto inner = decode_inner<T>(reader.get_blob_view(), count);

  const std::span<T> out = output();
  if (hybrid)
    reconstruct_pass_hybrid<T>(inner.codes, inner.outliers, header.dims,
                               header.eb_abs, header.quant_bins, plan, out);
  else
    reconstruct_pass<T>(inner.codes, inner.outliers, header.dims,
                        header.eb_abs, header.quant_bins, out);
  if (pwrel) pwrel_inverse<T>(out, sign_bits, exc_idx, exc_val);
}

}  // namespace

double resolve_absolute_bound(ErrorBoundMode mode, double bound, double value_range) {
  if (!(bound > 0.0) || !std::isfinite(bound))
    throw std::invalid_argument("fpsz: error bound must be positive and finite");
  switch (mode) {
    case ErrorBoundMode::Absolute:
      return bound;
    case ErrorBoundMode::ValueRangeRelative: {
      const double eb = bound * value_range;
      // Constant fields have zero range; any positive bound preserves them
      // exactly because every prediction error is zero.
      return eb > 0.0 ? eb : std::numeric_limits<double>::min() * 1e6;
    }
    case ErrorBoundMode::PointwiseRelative:
      return std::log2(1.0 + bound);
  }
  throw std::invalid_argument("fpsz: unknown error mode");
}

template <typename T>
std::vector<std::uint8_t> compress(std::span<const T> values, const data::Dims& dims,
                                   const Params& params, CompressionInfo* info,
                                   std::span<T> recon) {
  if (values.size() != dims.count())
    throw std::invalid_argument("fpsz: value count does not match dims");
  if (!recon.empty() && recon.size() != values.size())
    throw std::invalid_argument(
        "fpsz: reconstruction size does not match dims");
  if (params.quantization_bins < 4 || params.quantization_bins % 2 != 0)
    throw std::invalid_argument("fpsz: quantization_bins must be even and >= 4");

  const double vr = metrics::value_range(values);
  const double eb_abs = resolve_absolute_bound(params.mode, params.bound, vr);

  StreamHeader header;
  header.scalar = scalar_type_of<T>();
  header.mode = params.mode;
  header.predictor = params.predictor;
  header.dims = dims;
  header.eb_abs = eb_abs;
  header.user_bound = params.bound;
  header.value_range = vr;
  header.quant_bins = params.quantization_bins;
  header.pwrel_zero_floor = params.pwrel_zero_floor;

  io::ByteWriter out;
  write_header(header, out);

  // Quantize with the configured predictor; the hybrid plan (block bitmap
  // + regression coefficients) is written right before the inner stream.
  std::vector<std::uint8_t> plan_blob;
  auto run_quantize = [&](std::span<const T> vals) {
    if (params.predictor == Predictor::HybridRegression) {
      const HybridPlan plan = build_hybrid_plan(vals, dims, eb_abs);
      plan_blob = serialize_plan(plan);
      return quantize_pass_hybrid(vals, dims, eb_abs, params.quantization_bins,
                                  plan);
    }
    return quantize_pass(vals, dims, eb_abs, params.quantization_bins, nullptr);
  };
  auto put_plan_and_inner = [&](const QuantizeOutput<T>& q) {
    if (params.predictor == Predictor::HybridRegression) out.put_blob(plan_blob);
    out.put_blob(encode_inner(q, params.quantization_bins, params));
  };

  // Exact achieved distortion: the quantize pass maintains the same T-domain
  // reconstruction decompress will produce, so the SSE measured here equals
  // the decode-side error bit for bit (PointwiseRelative replays the
  // decoder's exp2 over the log-domain buffer first).
  std::size_t outlier_count = 0;
  double achieved_sse = 0.0;
  if (params.mode == ErrorBoundMode::PointwiseRelative) {
    auto t = pwrel_forward(values, params.pwrel_zero_floor);
    const auto q = run_quantize(t.logs);
    achieved_sse = pwrel_finish<T>(values, q.recon, params.bound, t, recon);
    // Side channel: signs + exceptions, then the abs-mode core over y.
    io::ByteWriter side;
    side.put_blob(t.sign_bits);
    side.put_varint(t.exception_indices.size());
    std::uint64_t prev = 0;
    for (std::size_t k = 0; k < t.exception_indices.size(); ++k) {
      side.put_varint(t.exception_indices[k] - prev);  // delta coding
      prev = t.exception_indices[k];
      side.put<T>(t.exception_values[k]);
    }
    out.put_blob(lossless::backend_compress(side.buffer(), params.backend));
    outlier_count = q.outliers.size() + t.exception_indices.size();
    put_plan_and_inner(q);
  } else {
    const auto q = run_quantize(values);
    outlier_count = q.outliers.size();
    if constexpr (std::is_same_v<T, float>)
      achieved_sse =
          simd::kernels().sse_f32(values.data(), q.recon.data(), values.size());
    else
      achieved_sse =
          simd::kernels().sse_f64(values.data(), q.recon.data(), values.size());
    if (!recon.empty())
      std::copy(q.recon.begin(), q.recon.end(), recon.begin());
    put_plan_and_inner(q);
  }

  auto bytes = out.take();
  if (info) {
    info->eb_abs_used = eb_abs;
    info->value_range = vr;
    info->value_count = values.size();
    info->outlier_count = outlier_count;
    info->compressed_bytes = bytes.size();
    info->compression_ratio =
        metrics::compression_ratio(values.size() * sizeof(T), bytes.size());
    info->bit_rate = metrics::bit_rate(bytes.size(), values.size());
    info->achieved_sse = achieved_sse;
  }
  return bytes;
}

template <typename T>
void decompress_into(std::span<const std::uint8_t> stream, std::span<T> out) {
  io::ByteReader reader(stream);
  const StreamHeader header = read_header_of<T>(reader);
  if (header.dims.count() != out.size())
    throw io::StreamError("fpsz: header dims do not match the output size");
  decode_body<T>(reader, header, [&] { return out; });
}

template <typename T>
Decompressed<T> decompress(std::span<const std::uint8_t> stream) {
  io::ByteReader reader(stream);
  Decompressed<T> d;
  const StreamHeader header = read_header_of<T>(reader);
  d.dims = header.dims;
  decode_body<T>(reader, header, [&] {
    d.values.resize(header.dims.count());
    return std::span<T>(d.values);
  });
  return d;
}

template <typename T>
PredictionTrace prediction_trace(std::span<const T> values, const data::Dims& dims,
                                 double eb_abs, std::uint32_t bins) {
  if (values.size() != dims.count())
    throw std::invalid_argument("fpsz: value count does not match dims");
  PredictionTrace trace;
  (void)quantize_pass(values, dims, eb_abs, bins, &trace);
  return trace;
}

template std::vector<std::uint8_t> compress<float>(std::span<const float>,
                                                   const data::Dims&, const Params&,
                                                   CompressionInfo*,
                                                   std::span<float>);
template std::vector<std::uint8_t> compress<double>(std::span<const double>,
                                                    const data::Dims&, const Params&,
                                                    CompressionInfo*,
                                                    std::span<double>);
template Decompressed<float> decompress<float>(std::span<const std::uint8_t>);
template Decompressed<double> decompress<double>(std::span<const std::uint8_t>);
template void decompress_into<float>(std::span<const std::uint8_t>,
                                     std::span<float>);
template void decompress_into<double>(std::span<const std::uint8_t>,
                                      std::span<double>);
template PredictionTrace prediction_trace<float>(std::span<const float>,
                                                 const data::Dims&, double,
                                                 std::uint32_t);
template PredictionTrace prediction_trace<double>(std::span<const double>,
                                                  const data::Dims&, double,
                                                  std::uint32_t);

}  // namespace fpsnr::sz
