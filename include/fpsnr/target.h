// fpsnr public API — the Target sum type.
//
// One knob controls distortion (or rate) for every codec substrate: a
// compression job names WHAT it wants — a PSNR, an NRMSE, a pointwise
// bound, or a bit budget — and the session resolves it against the engine
// in use. This is the paper's unified error-controlled interface with the
// ZFP-style fixed-rate mode added as a first-class member rather than an
// external search loop.
//
// Self-contained: installed under <prefix>/include/fpsnr and includes only
// the C++ standard library.
#pragma once

#include <stdexcept>
#include <string_view>
#include <variant>

namespace fpsnr {

/// Target the measured PSNR of the archive (dB). The paper's headline
/// mode: the bound is derived analytically (Eq. 8), one compression pass.
struct FixedPsnr {
  double db = 80.0;
};

/// Target a normalized RMS error (PSNR in linear form).
struct FixedNrmse {
  double nrmse = 1e-4;
};

/// Bound every point's absolute error: |x_i - x~_i| <= bound.
struct PointwiseAbs {
  double bound = 1e-3;
};

/// Bound every point's relative error: |x_i - x~_i| <= fraction * |x_i|.
/// Needs the sz-lorenzo engine (its log2-domain mode).
struct PointwiseRel {
  double fraction = 1e-3;
};

/// Bound every point's error as a fraction of the global value range.
struct ValueRangeRel {
  double fraction = 1e-4;
};

/// Target the compressed size: bits per value. The dual of FixedPsnr: the
/// plan searches one error bound for the whole field, and every block is
/// coded at it exactly as under FixedPsnr. The blocks' payload (the archive
/// without its fixed header and index) is at most the budget and within 5%
/// of it whenever some bound gets there; otherwise the bound whose payload
/// is nearest the budget wins (a rate above raw codes at the finest bound).
struct FixedRate {
  double bits_per_value = 8.0;
};

/// What a compression job is asked to achieve. Exactly one alternative is
/// engaged; the session resolves it against the selected engine.
using Target = std::variant<FixedPsnr, FixedNrmse, PointwiseAbs, PointwiseRel,
                            ValueRangeRel, FixedRate>;

/// Stable name of the engaged alternative ("fixed-psnr", "fixed-nrmse",
/// "pointwise-abs", "pointwise-rel", "value-range-rel", "fixed-rate") —
/// what inspect() reports and the CLI accepts as --mode.
inline std::string_view target_name(const Target& target) {
  struct Namer {
    std::string_view operator()(const FixedPsnr&) const { return "fixed-psnr"; }
    std::string_view operator()(const FixedNrmse&) const { return "fixed-nrmse"; }
    std::string_view operator()(const PointwiseAbs&) const { return "pointwise-abs"; }
    std::string_view operator()(const PointwiseRel&) const { return "pointwise-rel"; }
    std::string_view operator()(const ValueRangeRel&) const { return "value-range-rel"; }
    std::string_view operator()(const FixedRate&) const { return "fixed-rate"; }
  };
  return std::visit(Namer{}, target);
}

/// The target's scalar value (dB, bound, fraction, or bits/value).
inline double target_value(const Target& target) {
  struct Valuer {
    double operator()(const FixedPsnr& t) const { return t.db; }
    double operator()(const FixedNrmse& t) const { return t.nrmse; }
    double operator()(const PointwiseAbs& t) const { return t.bound; }
    double operator()(const PointwiseRel& t) const { return t.fraction; }
    double operator()(const ValueRangeRel& t) const { return t.fraction; }
    double operator()(const FixedRate& t) const { return t.bits_per_value; }
  };
  return std::visit(Valuer{}, target);
}

/// Parse a target from its stable name + value (the CLI's -m/-v pair).
/// Throws std::invalid_argument for an unknown name.
inline Target make_target(std::string_view name, double value) {
  if (name == "fixed-psnr" || name == "psnr") return FixedPsnr{value};
  if (name == "fixed-nrmse" || name == "nrmse") return FixedNrmse{value};
  if (name == "pointwise-abs" || name == "abs") return PointwiseAbs{value};
  if (name == "pointwise-rel" || name == "pwrel") return PointwiseRel{value};
  if (name == "value-range-rel" || name == "rel") return ValueRangeRel{value};
  if (name == "fixed-rate" || name == "rate") return FixedRate{value};
  throw std::invalid_argument(
      "unknown target '" + std::string(name) +
      "' (want psnr|abs|rel|pwrel|nrmse|rate or their long forms)");
}

}  // namespace fpsnr
