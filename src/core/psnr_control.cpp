#include "core/psnr_control.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/distortion_model.h"

namespace fpsnr::core {

std::string_view control_mode_name(ControlMode m) {
  switch (m) {
    case ControlMode::Absolute: return "abs";
    case ControlMode::ValueRangeRelative: return "vr-rel";
    case ControlMode::PointwiseRelative: return "pw-rel";
    case ControlMode::FixedPsnr: return "fixed-psnr";
    case ControlMode::FixedRate: return "fixed-rate";
    case ControlMode::FixedNrmse: return "fixed-nrmse";
  }
  return "unknown";
}

ResolvedControl resolve_control(const ControlRequest& request) {
  ResolvedControl out;
  switch (request.mode) {
    case ControlMode::Absolute:
      if (!(request.value > 0.0))
        throw std::invalid_argument("resolve_control: absolute bound must be > 0");
      out.sz_mode = sz::ErrorBoundMode::Absolute;
      out.sz_bound = request.value;
      // PSNR prediction requires the value range, which is data-dependent;
      // psnr_for_abs_bound can be applied by the caller once vr is known.
      out.predicted_psnr_db = std::numeric_limits<double>::quiet_NaN();
      return out;
    case ControlMode::ValueRangeRelative:
      if (!(request.value > 0.0))
        throw std::invalid_argument("resolve_control: relative bound must be > 0");
      out.sz_mode = sz::ErrorBoundMode::ValueRangeRelative;
      out.sz_bound = request.value;
      out.predicted_psnr_db = psnr_for_rel_bound(request.value);
      return out;
    case ControlMode::PointwiseRelative:
      if (!(request.value > 0.0))
        throw std::invalid_argument("resolve_control: pointwise bound must be > 0");
      out.sz_mode = sz::ErrorBoundMode::PointwiseRelative;
      out.sz_bound = request.value;
      out.predicted_psnr_db = std::numeric_limits<double>::quiet_NaN();
      return out;
    case ControlMode::FixedPsnr: {
      if (!std::isfinite(request.value))
        throw std::invalid_argument("resolve_control: target PSNR must be finite");
      out.sz_mode = sz::ErrorBoundMode::ValueRangeRelative;
      out.sz_bound = rel_bound_for_psnr(request.value);  // Eq. (8)
      out.predicted_psnr_db = psnr_for_rel_bound(out.sz_bound);
      return out;
    }
    case ControlMode::FixedNrmse: {
      // NRMSE is PSNR in linear form: PSNR = -20 log10(NRMSE), so the same
      // Eq. (8) machinery applies after a change of variable.
      if (!(request.value > 0.0) || !(request.value < 1.0))
        throw std::invalid_argument("resolve_control: NRMSE must be in (0, 1)");
      const double psnr = -20.0 * std::log10(request.value);
      out.sz_mode = sz::ErrorBoundMode::ValueRangeRelative;
      out.sz_bound = rel_bound_for_psnr(psnr);
      out.predicted_psnr_db = psnr;
      return out;
    }
    case ControlMode::FixedRate:
      throw std::invalid_argument(
          "resolve_control: fixed-rate has no closed form; the block "
          "pipeline searches its bound");
  }
  throw std::invalid_argument("resolve_control: unknown mode");
}

}  // namespace fpsnr::core
