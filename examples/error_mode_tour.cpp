// Tour of every Target on one Hurricane field through the Session facade,
// including the first-class fixed-rate mode (one bound per field, searched
// inside compress() — no external search loop) and the transform-codec
// engines.
//
//   $ ./error_mode_tour
#include <cstdio>

#include "fpsnr/fpsnr.h"

#include "data/dataset.h"
#include "metrics/metrics.h"

namespace {

using namespace fpsnr;

void run(const Session& session, const char* label,
         std::span<const float> values, const std::vector<std::size_t>& dims,
         const Target& target) {
  const auto r =
      session.compress(Source::memory(values, dims), target, Sink::memory());
  const auto d =
      session.decompress(Source::memory(std::span<const std::uint8_t>(r.archive)));
  const auto rep = metrics::compare<float>(values, d.f32);
  std::printf("%-24s PSNR %8.2f dB  max|err| %9.3e  pw-rel %9.3e  "
              "ratio %7.2f\n",
              label, rep.psnr_db, rep.max_abs_error, rep.max_pw_rel_error,
              r.compression_ratio);
}

}  // namespace

int main() {
  const data::Dataset hurricane = data::make_hurricane({});
  const data::Field& f = hurricane.field("U");  // signed wind component
  const double vr = metrics::value_range<float>(f.span());
  std::printf("field %s: %zu values, range %.2f\n\n", f.name.c_str(), f.size(),
              vr);

  const Session session;
  const auto& dims = f.dims.extents;
  run(session, "abs (eb = 0.5)", f.span(), dims, PointwiseAbs{0.5});
  run(session, "vr-rel (eb = 1e-3)", f.span(), dims, ValueRangeRel{1e-3});
  run(session, "pw-rel (eb = 1%)", f.span(), dims, PointwiseRel{0.01});
  run(session, "fixed-PSNR (85 dB)", f.span(), dims, FixedPsnr{85.0});
  // Fixed rate is a Target like any other: one compress() call searches the
  // field's one bound for the bit budget.
  const auto rate = session.compress(Source::memory(f.span(), dims),
                                     FixedRate{6.0}, Sink::memory());
  std::printf("%-24s achieved %.2f bits/value, PSNR %8.2f dB, ratio %7.2f\n",
              "fixed-rate (6 bits/val)", rate.bit_rate, rate.achieved_psnr_db,
              rate.compression_ratio);

  std::printf("\ntransform engines (Theorem 2 — PSNR-only control):\n");
  const Session haar({.engine = "haar"});
  run(haar, "Haar DWT (85 dB)", f.span(), dims, FixedPsnr{85.0});
  const Session dct({.engine = "dct"});
  run(dct, "block DCT (85 dB)", f.span(), dims, FixedPsnr{85.0});

  std::printf("\nnote: prediction-based SZ bounds every *point*; the "
              "transform engines bound only the aggregate PSNR.\n");
  return 0;
}
