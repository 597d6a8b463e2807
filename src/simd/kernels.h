// Portable vector-kernel table: one set of function pointers per backend.
//
// Every kernel here is a pure data-parallel restructuring of an existing
// scalar inner loop, under one hard contract: **bit-exact output parity
// with the scalar reference on every backend**. Archives must not depend
// on which ISA encoded them, and the checked-in golden archives must keep
// decoding bit-exactly, so each kernel preserves the reference
// floating-point expression, evaluation order, and rounding exactly:
//
//  * Vector lanes only ever span *independent* outputs; any accumulation
//    that feeds a single output keeps the reference's sequential order
//    (no reassociation, no multi-accumulator reductions into one value).
//  * No FMA contraction anywhere: the AVX2 translation unit is compiled
//    with -mno-fma and uses separate mul/add intrinsics, the NEON one
//    avoids the fused vfma forms, and every src/ TU builds with
//    -ffp-contract=off.
//  * Rounding helpers (std::round / std::llround emulations) are proven
//    equal to the libm semantics over the domain they are used on, and
//    fall back to the scalar path outside it.
//
// The one deliberately *defined* (rather than inherited) contract is the
// SSE accumulators: they specify a fixed virtual-4-lane summation order
// (see below) that every backend reproduces exactly, so the recorded
// achieved-SSE is still identical across backends and thread counts.
#pragma once

#include <cstddef>
#include <cstdint>

namespace fpsnr::simd {

/// zfpr group-width return value announcing a raw-double escape group.
inline constexpr unsigned kZfprEscape = 0xFFu;

/// zfpr escape threshold: a group escapes to raw doubles when any
/// |coefficient/bin| fails to stay below this (NaN included, because the
/// comparison is written !(x < limit)). Shared with fixed_rate.cpp.
inline constexpr double kZfprMaxIndexMagnitude = 4.0e18;

/// Sentinel for huffman_pack's bad_index out-parameter: no invalid symbol.
inline constexpr std::size_t kNoBadSymbol = static_cast<std::size_t>(-1);

struct KernelTable {
  /// Backend name for logs/benchmarks ("scalar", "avx2", "neon").
  const char* name;

  // --- Haar butterflies (src/transform/haar.cpp) -------------------------
  // Forward: approx[k] = (line[2k] + line[2k+1]) * c
  //          detail[k] = (line[2k] - line[2k+1]) * c
  // Inverse: line[2k]   = (approx[k] + detail[k]) * c
  //          line[2k+1] = (approx[k] - detail[k]) * c
  // Each pair is independent; c is the caller's 1/sqrt(2).
  void (*haar_fwd_pairs)(const double* line, double* approx, double* detail,
                         std::size_t pairs, double c);
  void (*haar_inv_pairs)(const double* approx, const double* detail,
                         double* line, std::size_t pairs, double c);

  // --- DCT lines over precomputed cosine tables (src/transform/dct.cpp) --
  // tab_jk[j*m + k] and tab_kj[k*m + j] hold the SAME double
  // cos(pi (j+0.5) k / m); the two layouts exist so both the scalar
  // reference and the lane-per-output vector form stream contiguously.
  // dct2: y[k] = (k==0 ? s0 : sk) * sum_j x[j]*tab[j][k], j ascending.
  // dct3: x[j] = s0*y[0] + sum_{k>=1} (sk*y[k])*tab[j][k], k ascending.
  // Lanes run over outputs (k resp. j); each lane's sum stays sequential,
  // so the result is bit-identical to the scalar loops.
  void (*dct2_line)(const double* x, double* y, std::size_t m,
                    const double* tab_jk, const double* tab_kj,
                    double s0, double sk);
  void (*dct3_line)(const double* y, double* x, std::size_t m,
                    const double* tab_jk, const double* tab_kj,
                    double s0, double sk);

  // --- zfpr bit-plane group quantization (src/transform/fixed_rate.cpp) --
  // For each j: t = c[j]/bin; if !(|t| < 4.0e18) the group escapes
  // (returns kZfprEscape; zz/recon contents are then unspecified).
  // Otherwise k = llround(t), recon[j] = double(k)*bin,
  // zz[j] = zigzag(k); returns bit_width(max zz) (0 if all zero).
  unsigned (*zfpr_quant_group)(const double* c, std::size_t n, double bin,
                               std::uint64_t* zz, double* recon);

  // --- Huffman pack (src/huffman/huffman.cpp) ----------------------------
  // entries[s - base] = reversed_code(s) | uint64(code_length(s)) << 32,
  // for the symbol range [base, base + alphabet). Packs the LSB-first
  // codes of syms[0..n) starting from the (*carry, *carry_bits)
  // accumulator state, emits every completed 64-bit word into words[]
  // (caller guarantees capacity >= (n*32 + 63)/64 + 1) and returns the
  // word count; the <64-bit remainder is left in the carry state. Writing
  // the words with BitWriter::write_bits(w, 64) followed by the final carry
  // reproduces the per-symbol encode_symbol stream bit for bit. A symbol
  // outside the range (s - base >= alphabet, unsigned) or with length 0
  // stops the pack and reports its position via *bad_index (kNoBadSymbol
  // otherwise).
  std::size_t (*huffman_pack)(const std::uint32_t* syms, std::size_t n,
                              const std::uint64_t* entries, std::uint32_t base,
                              std::size_t alphabet, std::uint64_t* words,
                              std::uint64_t* carry, unsigned* carry_bits,
                              std::size_t* bad_index);

  // --- Lorenzo 2-D predict + quantize (src/sz/codec.cpp) -----------------
  // Whole-field rank-2 quantize pass with the exact semantics of
  // quantize_pass + LorenzoPredictor + LinearQuantizer: per point
  //   pred = (west + north) - nw        (missing neighbours read 0.0)
  //   code = quantize((double)value - pred) with the T-cast bound guard;
  // codes/recon are written in C scan order, outliers (capacity n0*n1,
  // caller-provided) are appended in scan order; returns the outlier
  // count. The reconstruction feedback makes the scan serial; vector
  // backends pipeline anti-diagonal wavefronts of independent rows while
  // replicating each point's arithmetic exactly.
  std::size_t (*lorenzo2_quant_f32)(const float* values, std::size_t n0,
                                    std::size_t n1, double eb,
                                    std::uint32_t bins, std::uint32_t* codes,
                                    float* recon, float* outliers);
  std::size_t (*lorenzo2_quant_f64)(const double* values, std::size_t n0,
                                    std::size_t n1, double eb,
                                    std::uint32_t bins, std::uint32_t* codes,
                                    double* recon, double* outliers);

  // --- Lorenzo 3-D predict + quantize (src/sz/codec.cpp) -----------------
  // The rank-3 counterpart of lorenzo2: whole-field pass over an
  // n0 x n1 x n2 C-order field with the exact semantics of quantize_pass +
  // LorenzoPredictor rank 3 + LinearQuantizer. Per point the prediction is
  //   pred = f100 + f010 + f001 - f110 - f101 - f011 + f111
  // evaluated left to right, where fabc is the reconstruction at
  // (i0 - a, i1 - b, i2 - c) and a missing neighbour reads 0.0; then the
  // same quantize + T-cast guard as lorenzo2. codes/recon are written in C
  // scan order. Unlike lorenzo2 there is no outlier list: code 0 marks an
  // outlier (its recon is the value itself) and the caller collects them,
  // so no value-sized outlier buffer is allocated per call. Vector backends
  // run the lorenzo2 wavefront within each i0 plane; the previous plane is
  // finished by then, so its four terms are read from memory rather than
  // fed back through the wavefront.
  void (*lorenzo3_quant_f32)(const float* values, std::size_t n0,
                             std::size_t n1, std::size_t n2, double eb,
                             std::uint32_t bins, std::uint32_t* codes,
                             float* recon);
  void (*lorenzo3_quant_f64)(const double* values, std::size_t n0,
                             std::size_t n1, std::size_t n2, double eb,
                             std::uint32_t bins, std::uint32_t* codes,
                             double* recon);

  // --- Lorenzo 2-D / 3-D reconstruction (src/sz/codec.cpp) ---------------
  // The decode-side inverse of lorenzo2/3_quant, bit-exact with
  // sz::reconstruct_pass + LorenzoPredictor + LinearQuantizer: for every
  // point whose code is nonzero, in C scan order,
  //   recon[idx] = T(pred + (double(code) - radius) * 2 * eb)
  // with radius = bins / 2 and pred the left-to-right Lorenzo sum of the
  // quant kernels above (missing neighbours read 0.0). Preconditions, both
  // established by reconstruct_pass's validation sweep: every code is
  // < bins (bins even, >= 4), and each code-0 point's outlier value is
  // already in recon[idx]; the kernel reads it as a neighbour and never
  // writes it. Vector backends run the quant kernels' wavefront; nothing
  // here can fail.
  void (*lorenzo2_recon_f32)(const std::uint32_t* codes, std::size_t n0,
                             std::size_t n1, double eb, std::uint32_t bins,
                             float* recon);
  void (*lorenzo2_recon_f64)(const std::uint32_t* codes, std::size_t n0,
                             std::size_t n1, double eb, std::uint32_t bins,
                             double* recon);
  void (*lorenzo3_recon_f32)(const std::uint32_t* codes, std::size_t n0,
                             std::size_t n1, std::size_t n2, double eb,
                             std::uint32_t bins, float* recon);
  void (*lorenzo3_recon_f64)(const std::uint32_t* codes, std::size_t n0,
                             std::size_t n1, std::size_t n2, double eb,
                             std::uint32_t bins, double* recon);

  // --- Sum of squared errors (achieved-SSE accounting) -------------------
  // DEFINED summation order shared by all backends: four virtual lanes
  // acc[l] over elements i ≡ l (mod 4) for i < 4*(n/4), folded as
  // (acc0+acc1) + (acc2+acc3), then tail elements added sequentially.
  // sse_f32/f64: err = double(a[i]) - double(b[i]).
  // sse_cast_f32: err = double(v[i]) - double(float(recon[i])) — the
  // decode-replay form used by the transform codecs.
  double (*sse_f32)(const float* a, const float* b, std::size_t n);
  double (*sse_f64)(const double* a, const double* b, std::size_t n);
  double (*sse_cast_f32)(const float* values, const double* recon,
                         std::size_t n);
};

}  // namespace fpsnr::simd
