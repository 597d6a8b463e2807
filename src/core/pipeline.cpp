#include "core/pipeline.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/distortion_model.h"
#include "core/tile_layout.h"
#include "io/archive.h"
#include "io/streaming_archive.h"
#include "metrics/metrics.h"
#include "parallel/work_queue.h"
#include "sz/stream_format.h"

namespace fpsnr::core {

namespace {

/// Resolve an absolute or range-derived control request (abs / rel /
/// fixed-PSNR / nrmse) to the absolute per-point budget every block
/// shares: resolve_control validates the request, and the sz codec's own
/// resolution (constant-field fallback included) turns it into a bound.
/// (FixedRate and PointwiseRelative never reach here: plan_blocks searches
/// the rate's bound, and pointwise-relative bounds are per value.)
double resolve_budget(const ControlRequest& request, double vr) {
  const ResolvedControl rc = resolve_control(request);
  return sz::resolve_absolute_bound(rc.sz_mode, rc.sz_bound, vr);
}

/// Run fn(b) for every block as one untagged (FIFO) WorkQueue task each,
/// on the calling thread plus at most threads-1 of the queue's helper
/// threads. No per-call thread spin-up: long-lived streaming jobs and
/// many-small-field batches reuse the same helpers.
void for_each_block(std::size_t block_count, std::size_t threads,
                    const std::function<void(std::size_t)>& fn) {
  parallel::WorkQueue queue;
  for (std::size_t b = 0; b < block_count; ++b)
    queue.push([&fn, b] { fn(b); });
  queue.drain(std::min(threads, block_count));
}

data::Dims dims_from_header(const io::BlockContainerHeader& h) {
  std::vector<std::size_t> extents(h.extents.begin(), h.extents.end());
  return data::Dims(std::move(extents));
}

template <typename T>
void check_scalar(const io::BlockContainerHeader& h) {
  if (h.scalar != static_cast<std::uint8_t>(sz::scalar_type_of<T>()))
    throw io::StreamError("block pipeline: scalar type mismatch");
}

/// The codec a container header names. An id no codec is registered under
/// is a malformed (or foreign) stream, so it is a StreamError like any
/// other bad header byte.
const BlockCodec& header_codec(const io::BlockContainerHeader& h) {
  const BlockCodec* codec = CodecRegistry::instance().find(h.codec);
  if (!codec)
    throw io::StreamError("block pipeline: unknown codec id " +
                          std::to_string(h.codec));
  return *codec;
}

}  // namespace

bool is_block_stream(std::span<const std::uint8_t> stream) {
  return io::is_block_container(stream);
}

BlockStreamInfo inspect_block_stream(std::span<const std::uint8_t> stream) {
  const auto view = io::open_block_container(stream);
  BlockStreamInfo info;
  info.version = view.header.version;
  info.codec = view.header.codec;
  info.codec_name = header_codec(view.header).name();
  info.dims = dims_from_header(view.header);
  info.tile.assign(view.header.tile.begin(), view.header.tile.end());
  info.block_count = view.header.block_count;
  info.eb_abs = view.header.eb_abs;
  info.value_range = view.header.value_range;
  info.control_mode = static_cast<ControlMode>(view.header.control_mode);
  info.control_value = view.header.control_value;
  info.budget_mode = static_cast<BudgetMode>(view.header.budget_mode);
  if (view.header.has_temporal_chain()) {
    info.temporal = true;
    info.delta = view.header.is_delta_frame();
    info.series_id = view.header.series_id;
    info.timestep = view.header.timestep;
    info.ref_hash = view.header.ref_hash;
    for (std::size_t b = 0; b < view.header.block_count; ++b)
      if (view.header.block_is_temporal(b)) ++info.temporal_blocks;
  }
  if (view.header.has_block_sse()) {
    double total = 0.0;
    for (double s : view.block_sse) total += s;
    info.achieved_sse = total;
    const double mse = total / static_cast<double>(info.dims.count());
    // vr == 0 follows metrics::compare: +inf only for exact reconstruction.
    info.achieved_psnr_db =
        info.value_range > 0.0
            ? metrics::psnr_from_mse(mse, info.value_range)
            : (total == 0.0 ? std::numeric_limits<double>::infinity() : 0.0);
  } else {
    info.achieved_psnr_db = std::numeric_limits<double>::quiet_NaN();
  }
  return info;
}

namespace {

/// One coded tile: the bytes the archive holds for it and their accounting.
struct EncodedBlock {
  std::vector<std::uint8_t> bytes;
  BlockInfo info;
};

/// Everything the block loop needs, resolved once per call. Both the
/// in-memory and the streaming entry points build the same plan, so layout,
/// budgets, and header bytes cannot drift between the two paths.
struct BlockPlan {
  double vr = 0.0;
  /// Base (uniform-equivalent) absolute bound; 0 in pointwise-relative
  /// mode, whose bounds are per value.
  double eb_abs = 0.0;
  TileLayout layout;
  CodecId codec_id = 0;
  const BlockCodec* codec = nullptr;
  BlockParams bp;
  /// Per-block bounds in bp.mode's units: absolute budgets (all equal to
  /// eb_abs under Uniform budgets), or the fraction eps for every block
  /// in PointwiseRelative mode.
  std::vector<double> block_eb;
  /// FixedRate: the fixed-rate search's encode at eb_abs, one entry per
  /// block, which run_block hands to the writer instead of coding the
  /// block again. Empty in every other mode, when the caller wants a
  /// reconstruction, and when the search did not keep the encode it
  /// returned (run_block then codes the block itself).
  std::vector<EncodedBlock> encoded;
  io::BlockContainerHeader header;

  /// No global absolute budget: the header records eb_abs = 0 ("see the
  /// self-describing block payloads") and only the measured PSNR is
  /// reported.
  bool per_block_bounds() const {
    return bp.mode == sz::ErrorBoundMode::PointwiseRelative;
  }
};

/// One tile's encode, the only one there is: the plan's codec at bound
/// `eb`, demoted to the store codec when its output is no smaller than
/// raw. run_block writes what it returns and the fixed-rate search sizes
/// it, so the search measures exactly the bytes the archive holds. A
/// non-empty `field_recon` receives the tile's reconstruction at its place
/// in the field.
template <typename T>
EncodedBlock encode_block(const BlockPlan& plan, std::span<const T> values,
                          const data::Dims& dims, std::size_t b, double eb,
                          std::span<T> field_recon) {
  const TileRegion region = tile_region(plan.layout, dims, b);
  const data::Dims tile_dims = region_dims(region, dims.rank());
  // Slab-shaped tiles (the only geometry v1/v2 had) are contiguous runs of
  // the field buffer and are borrowed in place; true multi-axis tiles are
  // gathered into a scratch copy the codec sees as a dense C-order field.
  // The block's reconstruction, when the caller wants one, goes straight
  // into its slab of the caller's buffer or, for a gathered tile, into a
  // scratch copy scattered back below.
  std::vector<T> gathered, tile_recon;
  std::span<const T> slice;
  std::span<T> recon;
  if (region_contiguous(region, dims)) {
    const std::size_t offset = region.start[0] * plan.layout.row_stride;
    slice = values.subspan(offset, region.count);
    if (!field_recon.empty()) recon = field_recon.subspan(offset, region.count);
  } else {
    gathered.resize(region.count);
    gather_tile(values, dims, region, std::span<T>(gathered));
    slice = gathered;
    if (!field_recon.empty()) {
      tile_recon.resize(region.count);
      recon = tile_recon;
    }
  }
  BlockParams bp = plan.bp;
  bp.eb_abs = eb;
  EncodedBlock out;
  out.bytes = plan.codec->compress(slice, tile_dims, bp, &out.info, recon);
  // A block whose primary encoding is no smaller than the raw passthrough
  // is demoted to the store codec — the decision depends only on the data,
  // so output bytes stay schedule- and thread-count independent. The store
  // stand-in accounts the block's own bound, so the sse_budget sum still
  // matches the plan the accounting validates.
  if (plan.codec_id != kCodecStore &&
      out.bytes.size() >= store_encoded_size(slice.size(), sizeof(T))) {
    out.info = BlockInfo{};
    out.bytes = CodecRegistry::instance().at(kCodecStore).compress(
        slice, tile_dims, bp, &out.info, recon);
  }
  if (!tile_recon.empty())
    scatter_tile(std::span<const T>(tile_recon), dims, region, field_recon);
  // Non-finite samples poison the block's SSE (NaN - NaN = NaN even when
  // the sample was stored as an exact outlier), and the container's SSE
  // column is finite by contract. Record 0 for such a block: pointwise
  // codecs really did reproduce the poisoned samples exactly, and any
  // aggregate distortion metric over a non-finite field is meaningless
  // regardless of what we record.
  if (!std::isfinite(out.info.achieved_sse)) out.info.achieved_sse = 0.0;
  return out;
}

/// Fixed-rate search constants. The sample is every kRateSampleStride-th
/// tile in C order; the stride is prime so that it does not alias onto one
/// column of a power-of-two or small tile grid.
constexpr std::size_t kRateSampleStride = 11;
/// Encodes the search may spend on the sample and on the whole field.
constexpr int kRateSamplePasses = 8;
constexpr int kRateFieldPasses = 12;
/// The search stops once the budget's crossing is bracketed this tightly
/// in log2(eb): 1/16 of a doubling, 0.38 dB under the Eq. 7 model.
constexpr double kRateStep = 1.0 / 16.0;
/// Unbracketed, a secant step is capped at this many doublings.
constexpr double kRateMaxStep = 4.0;
/// The sample only seeds the field search, so it stops at a wider bracket.
constexpr double kRateSampleStep = 1.0 / 4.0;
/// A fitting payload within this fraction of the budget meets the
/// contract; below it, the probe nearest the budget wins.
constexpr double kRateWindow = 0.05;

/// Resolve a FixedRate request to the one absolute bound every block is
/// coded at: the dual of the fixed-PSNR plan, with the uniform bound chosen
/// to meet a size instead of a PSNR.
///
/// The search looks for the smallest bound whose payload (the blocks' own
/// bytes; container header and index are a fixed overhead) fits the
/// budget, in log2(eb), where Eq. 7 puts 6.02 dB per unit. A secant on a
/// sample of tiles, coded by the real codec, seeds it; a secant on the
/// measured full-field payload finishes it. Each keeps the bracket its
/// probes build (payload falls as the bound grows) and stops once the
/// crossing is pinned to kRateStep (see `search`); unbracketed steps that
/// stay on one side double, so a plateau in the payload curve cannot stall
/// the search.
///
/// The result is the smallest fitting bound the field search measured;
/// only when no probe fits is it the probe nearest the budget, the smaller
/// bound on a tie. (The sample search seeds from its smallest fitting
/// bound only within kRateWindow of the budget, else from its nearest
/// probe.) So a rate above raw codes at the finest bound of the window
/// [1e-12, 4] x scale, where `scale` is the value range or, when that is
/// not finite (NaN/Inf samples), the largest finite |x|. A constant field
/// is coded exact at any rate, with the tiny bound the error-bounded modes
/// use for it.
///
/// Each probe sums its blocks' sizes and SSE in block order, so the
/// search, like every other plan step, depends only on the data and the
/// plan, never on `threads`. With `keep`, plan.encoded receives the
/// full-field encode at the returned bound when the search ran one there
/// (it stays empty otherwise).
template <typename T>
double resolve_rate_bound(BlockPlan& plan, std::span<const T> values,
                          const data::Dims& dims, double bits_per_value,
                          std::size_t threads, bool keep) {
  if (plan.vr == 0.0) return std::numeric_limits<double>::min() * 1e6;
  double scale = plan.vr;
  if (!std::isfinite(scale)) {
    double max_abs = 0.0;
    for (const T v : values) {
      const double d = std::abs(static_cast<double>(v));
      if (std::isfinite(d) && d > max_abs) max_abs = d;
    }
    scale = max_abs > 0.0 ? max_abs : 1.0;
  }
  const double x_min = std::log2(scale * 1e-12);
  const double x_max = std::log2(scale * 4.0);
  const std::size_t count = plan.layout.block_count;

  struct Probe {
    double x = 0.0;  ///< log2(eb)
    double bytes = 0.0;
    double sse = 0.0;
  };
  // Code tiles 0, stride, 2*stride, ... at eb = 2^x; a full pass (stride
  // 1) leaves its blocks in `trial` when they are kept.
  std::vector<EncodedBlock> trial;
  auto measure = [&](double x, std::size_t stride) {
    const std::size_t n = (count + stride - 1) / stride;
    const double eb = std::exp2(x);
    std::vector<EncodedBlock> scratch;
    std::vector<EncodedBlock>& blocks = stride == 1 && keep ? trial : scratch;
    blocks.resize(n);
    for_each_block(n, threads, [&](std::size_t i) {
      blocks[i] = encode_block(plan, values, dims, i * stride, eb,
                               std::span<T>());
    });
    Probe p{x, 0.0, 0.0};
    for (const EncodedBlock& e : blocks) {
      p.bytes += static_cast<double>(e.bytes.size());
      p.sse += e.info.achieved_sse;
    }
    return p;
  };

  // Local slopes of the payload and SSE curves, per doubling of eb, in
  // log2: in log2(payload) a sample off by a constant factor still has the
  // field's slope, and Eq. 7 puts SSE at x4 (slope 2) per doubling.
  struct Slopes {
    double bytes = -1.0;
    double sse = 2.0;
    void update(const Probe& a, const Probe& b) {
      if (a.x == b.x) return;
      const double s = std::log2(b.bytes / a.bytes) / (b.x - a.x);
      if (s < 0.0) bytes = s;
      const double t = std::log2(b.sse / a.sse) / (b.x - a.x);
      if (t > 0.0 && std::isfinite(t)) sse = t;
    }
  };

  // Search the tiles at `stride` for `budget` bytes from log2(eb) = x.
  // It stops once the crossing is pinned within `tol` doublings of eb, in
  // x or in the PSNR Eq. 7 gives that many (6.02 dB per doubling): by a
  // bracket, measured at both ends, or by a fitting probe that the secant
  // puts that close. `slopes` seed the first step and come back measured.
  auto search = [&](std::size_t stride, double budget, double x, double tol,
                    Slopes& slopes, int passes) {
    const double inf = std::numeric_limits<double>::infinity();
    Probe over{-inf, inf, 0.0};  // the largest x whose payload is over
    Probe fit{inf, 0.0, 0.0};    // the smallest x whose payload fits
    Probe nearest{0.0, inf, 0.0}, prev;
    double min_step = 0.0;
    for (int pass = 0; pass < passes; ++pass) {
      const Probe p = measure(x, stride);
      const bool is_over = p.bytes > budget;
      const bool same_side = pass > 0 && is_over == (prev.bytes > budget);
      const double gap = std::abs(p.bytes - budget);
      const double nearest_gap = std::abs(nearest.bytes - budget);
      if (gap < nearest_gap || (gap == nearest_gap && x < nearest.x))
        nearest = p;
      if (is_over) {
        if (x > over.x) over = p;
      } else if (x < fit.x) {
        fit = p;
        if (stride == 1 && keep) plan.encoded.swap(trial);
      }
      const bool bracketed = std::isfinite(over.x) && std::isfinite(fit.x);
      if (pass > 0) slopes.update(prev, p);
      prev = p;
      // The secant's estimate of where the payload crosses the budget.
      const double cross = x + std::log2(p.bytes / budget) / -slopes.bytes;
      const bool in_window = fit.bytes >= (1.0 - kRateWindow) * budget;
      if (bracketed && fit.x - over.x <= tol) break;
      if (in_window && bracketed &&
          std::log2(fit.sse / over.sse) <= 2.0 * tol)
        break;
      if (in_window && x == fit.x &&
          (x - cross) * std::min(slopes.sse, 2.0) <= 2.0 * tol)
        break;
      if (is_over ? x >= x_max : x <= x_min) break;  // the window's edge
      // Aim tol/2 past the estimate, on the fitting side, kept tol/2
      // inside the bracket (so a good estimate closes it next pass) or,
      // unbracketed, doubling the step while probes stay on one side.
      double next = cross + tol / 2.0;
      if (bracketed) {
        next = next > over.x && next < fit.x
                   ? std::clamp(next, over.x + tol / 2.0, fit.x - tol / 2.0)
                   : 0.5 * (over.x + fit.x);
      } else {
        if (same_side) min_step = std::max(4.0 * tol, 2.0 * min_step);
        const double step = std::clamp(std::abs(next - x), min_step,
                                       std::max(min_step, kRateMaxStep));
        next = is_over ? x + step : x - step;
      }
      x = std::clamp(next, x_min, x_max);
    }
    // The field search ends on the smallest fitting bound whenever it
    // measured one (plan.encoded holds its encode); the sample seed takes
    // it only within the window. Otherwise the probe nearest the budget,
    // which run_block recodes.
    const bool take_fit = stride == 1
                              ? std::isfinite(fit.x)
                              : fit.bytes >= (1.0 - kRateWindow) * budget;
    return take_fit ? fit.x : nearest.x;
  };

  const double n = static_cast<double>(values.size());
  const double budget = bits_per_value * n / 8.0;
  // Seed: eb = scale * 2^-bits is the bound at which undecorrelated data
  // would cost the requested rate; each halving of eb doubles a payload
  // far below it.
  double x = std::clamp(std::log2(scale) - bits_per_value, x_min, x_max);
  Slopes slopes;
  if (count > 1) {
    std::size_t sample_n = 0;
    for (std::size_t b = 0; b < count; b += kRateSampleStride)
      sample_n += tile_region(plan.layout, dims, b).count;
    x = search(kRateSampleStride, budget * static_cast<double>(sample_n) / n,
               x, kRateSampleStep, slopes, kRateSamplePasses);
  }
  return std::exp2(search(1, budget, x, kRateStep, slopes, kRateFieldPasses));
}

/// Adaptive per-block bounds (Eq. 3's general form, reverse-water-filling
/// flavour). A cheap rank-aware probe — per-axis RMS first differences
/// inside each tile — estimates each block's residual scale r_b as the
/// MINIMUM across axes: the neighborhood predictors (Lorenzo,
/// interpolation, transform groups) exploit the smoothest direction, so a
/// tile that is flat along any axis codes at the entropy floor even when a
/// 1-D C-order scan (which crosses row seams) would call it rough — this
/// is exactly the donor class the old 1-D probe missed on 2-D/3-D fields.
/// A block with r_b << eb never spends its allowance anyway: its residuals
/// quantize to the zero bin at any nearby bound, its rate sits at the
/// entropy floor, and its actual SSE is ~n*r^2, not n*eb^2/3. Such blocks
/// donate ledger budget (they are re-encoded at a tightened bound of
/// ~4*r_b, floored so no residual — not even an isolated spike on ANY axis
/// (the peak is the max across axes) — leaves the quantizable range,
/// keeping their rate at the entropy floor), and blocks ON the rate curve
/// (r_b >= eb/2) share the donations as one uniformly wider bin (the
/// log-rate model's optimum is equal bounds across coded blocks), so their
/// bits shrink log-linearly. Bounds stay within [eb/4, 4*eb] and the
/// aggregate worst-case SSE never exceeds the uniform plan's
/// N * eb^2 / 3 — the fixed-PSNR guarantee is preserved verbatim. The
/// probe depends only on the data and the layout, never the thread count.
///
/// Returns per-block bounds, or {} when the plan degenerates to uniform
/// (no block is on the rate curve, or there is nothing to donate).
template <typename T>
std::vector<double> adaptive_budgets(std::span<const T> values,
                                     const data::Dims& dims,
                                     const TileLayout& layout, double eb,
                                     std::uint32_t quantization_bins) {
  const std::size_t count = layout.block_count;
  if (count < 2) return {};
  const std::size_t rank = dims.rank();
  std::size_t stride[3];
  field_strides(dims, stride);
  std::vector<double> residual(count, 0.0);
  std::vector<double> peak(count, 0.0);
  std::vector<double> n_of(count, 0.0);
  for (std::size_t b = 0; b < count; ++b) {
    const TileRegion r = tile_region(layout, dims, b);
    double acc[3] = {0.0, 0.0, 0.0};
    std::size_t pairs[3] = {0, 0, 0};
    double max_d = 0.0;
    // One C-order walk over the tile; every point diffs against its
    // predecessor along each axis it has one (so each axis sees exactly
    // (ext_a - 1) * count / ext_a pairs, all interior to the tile — no
    // cross-row seams).
    std::size_t c[3] = {0, 0, 0};
    for (std::size_t i = 0; i < r.count; ++i) {
      std::size_t offset = 0;
      for (std::size_t a = 0; a < rank; ++a)
        offset += (r.start[a] + c[a]) * stride[a];
      const double v = static_cast<double>(values[offset]);
      for (std::size_t a = 0; a < rank; ++a) {
        if (c[a] == 0) continue;
        const double d =
            v - static_cast<double>(values[offset - stride[a]]);
        acc[a] += d * d;
        ++pairs[a];
        max_d = std::max(max_d, std::abs(d));
      }
      for (std::size_t a = rank; a-- > 0;) {
        if (++c[a] < r.ext[a]) break;
        c[a] = 0;
      }
    }
    double best = std::numeric_limits<double>::infinity();
    bool measured = false, have_pairs = false;
    for (std::size_t a = 0; a < rank; ++a) {
      if (pairs[a] == 0) continue;
      have_pairs = true;
      const double rms = std::sqrt(acc[a] / static_cast<double>(pairs[a]));
      if (std::isfinite(rms)) {
        best = std::min(best, rms);
        measured = true;
      }
    }
    // No pairs at all (single-point tile): a definitive flat donor. Pairs
    // that all went non-finite (NaN samples): keep NaN so the block stays
    // neutral below — exactly the old probe's behaviour on poisoned data.
    residual[b] = measured
                      ? best
                      : (have_pairs ? std::numeric_limits<double>::quiet_NaN()
                                    : 0.0);
    peak[b] = max_d;
    n_of[b] = static_cast<double>(r.count);
  }

  // Tightening a donor must never push one of its residuals outside the
  // quantizable range (|d| <= radius * 2 * eb_b), or an isolated spike in
  // an otherwise flat block would demote to an exactly-stored outlier and
  // grow the block. Keep a 4x safety margin over the block's peak
  // first difference relative to that range.
  const double radius = static_cast<double>(quantization_bins / 2);

  std::vector<double> block_eb(count, eb);
  double donated = 0.0;      // ledger budget freed by floor blocks
  double receiver_n = 0.0;   // values in rate-curve blocks
  for (std::size_t b = 0; b < count; ++b) {
    if (residual[b] < eb / 4.0) {
      // Floor block: tighten the recorded bound toward 4x its residual
      // scale (never below eb/4, never below the spike floor above);
      // typical residuals stay deep inside the zero bin, so the coded
      // bytes barely move while the ledger frees budget.
      const double spike_floor = 2.0 * peak[b] / radius;
      block_eb[b] =
          std::min(eb, std::max({4.0 * residual[b], spike_floor, eb / 4.0}));
      donated += n_of[b] * (eb * eb - block_eb[b] * block_eb[b]);
    } else if (residual[b] >= eb / 2.0) {
      receiver_n += n_of[b];
    }
  }
  if (receiver_n == 0.0 || donated <= 0.0) return {};

  const double widened =
      std::min(std::sqrt(eb * eb + donated / receiver_n), 4.0 * eb);
  for (std::size_t b = 0; b < count; ++b)
    if (residual[b] >= eb / 2.0) block_eb[b] = widened;
  return block_eb;
}

template <typename T>
BlockPlan plan_blocks(std::span<const T> values, const data::Dims& dims,
                      const ControlRequest& request,
                      const CompressOptions& options, bool keep_encode) {
  if (values.size() != dims.count())
    throw std::invalid_argument("block pipeline: value count does not match dims");

  BlockPlan plan;
  // The temporal layer compresses a delta/raw composite whose error
  // contract is against the ORIGINAL snapshot; it overrides the range so
  // the budget (and the recorded header range) stay anchored to it.
  plan.vr = options.value_range_override ? *options.value_range_override
                                         : metrics::value_range(values);
  plan.layout = make_layout(dims, options.parallel.tile);
  plan.codec_id = options.engine;
  plan.codec = &CodecRegistry::instance().at(plan.codec_id);

  plan.bp.quantization_bins = options.quantization_bins;
  plan.bp.backend = options.backend;
  plan.bp.predictor = options.sz_predictor;
  plan.bp.haar_levels = options.haar_levels;
  plan.bp.dct_block = options.dct_block;

  // Pointwise-relative mode has no global error budget to split; every
  // block payload records the bound it was coded at.
  double block_bound = 0.0;
  if (request.mode == ControlMode::FixedRate) {
    if (!(request.value > 0.0) || !std::isfinite(request.value))
      throw std::invalid_argument(
          "block pipeline: fixed-rate target must be positive and finite "
          "bits per value");
    plan.eb_abs = resolve_rate_bound(plan, values, dims, request.value,
                                     options.parallel.threads, keep_encode);
    block_bound = plan.eb_abs;
  } else if (request.mode == ControlMode::PointwiseRelative) {
    // log2(1 + eps) bounds every value's log-domain error whatever its
    // magnitude, so each tile is coded at eps on its own.
    if (!(request.value > 0.0) || !std::isfinite(request.value))
      throw std::invalid_argument(
          "block pipeline: pointwise-relative bound must be positive and "
          "finite");
    if (plan.codec_id != kCodecSzLorenzo)
      throw std::invalid_argument(
          "block pipeline: pointwise-relative bounds need the sz-lorenzo "
          "codec (its log2-domain mode); '" +
          std::string(plan.codec->name()) + "' cannot bound each value");
    plan.bp.mode = sz::ErrorBoundMode::PointwiseRelative;
    block_bound = request.value;
  } else {
    plan.eb_abs = resolve_budget(request, plan.vr);
    block_bound = plan.eb_abs;
  }
  plan.bp.eb_abs = block_bound;
  plan.block_eb.assign(plan.layout.block_count, block_bound);
  BudgetMode budget = options.budget;
  // Adaptive reallocation trades pointwise slack for aggregate rate, so it
  // only applies to the aggregate-distortion control modes (fixed-PSNR /
  // fixed-NRMSE). Absolute, value-range-relative, and pointwise-relative
  // requests are per-value contracts — widening any block would break
  // them, so those plans stay uniform no matter what the option says.
  const bool aggregate_mode = request.mode == ControlMode::FixedPsnr ||
                              request.mode == ControlMode::FixedNrmse;
  if (budget == BudgetMode::Adaptive) {
    auto bounds = aggregate_mode && plan.vr > 0.0
                      ? adaptive_budgets(values, dims, plan.layout, plan.eb_abs,
                                         plan.bp.quantization_bins)
                      : std::vector<double>{};
    if (bounds.empty())
      budget = BudgetMode::Uniform;  // degenerate field: nothing to shift
    else
      plan.block_eb = std::move(bounds);
  }

  plan.header.codec = plan.codec_id;
  plan.header.scalar = static_cast<std::uint8_t>(sz::scalar_type_of<T>());
  plan.header.extents.assign(dims.extents.begin(), dims.extents.end());
  plan.header.tile.assign(plan.layout.tile.begin(), plan.layout.tile.end());
  plan.header.block_count = plan.layout.block_count;
  plan.header.eb_abs = plan.eb_abs;
  plan.header.value_range = plan.vr;
  plan.header.control_mode = static_cast<std::uint8_t>(request.mode);
  plan.header.control_value = request.value;
  plan.header.budget_mode = static_cast<std::uint8_t>(budget);
  if (options.temporal.enabled) {
    // Series frame: stamp the container v4 and carry the chain identity.
    // The bitmap must match THIS plan's block layout — the temporal layer
    // computes it from the same make_layout, but a caller handing in a
    // stale bitmap would silently mislabel blocks, so size-check it here.
    const TemporalLink& link = options.temporal;
    if (link.block_modes.size() != (plan.layout.block_count + 7) / 8)
      throw std::invalid_argument(
          "block pipeline: temporal mode bitmap does not match the block "
          "layout");
    plan.header.version = io::kBlockContainerVersionTemporal;
    plan.header.temporal_flags =
        static_cast<std::uint8_t>(io::kTemporalFlagSeries |
                                  (link.delta ? io::kTemporalFlagDelta : 0));
    plan.header.series_id = link.series_id;
    plan.header.timestep = link.timestep;
    plan.header.ref_hash = link.ref_hash;
    plan.header.block_modes = link.block_modes;
  }
  return plan;
}

/// Per-block budget accounting: every value must be covered exactly once,
/// and the per-block SSE budgets must sum back to the serial model
/// N * eb^2 / 3 — i.e. blocking spent exactly the global budget, no more.
/// Both entry points call this BEFORE finalizing their output (serializing
/// / renaming onto the target path), so a validation failure never
/// installs an archive. Size-dependent fields are filled by
/// set_size_info once the container size is known.
template <typename T>
CompressResult account_blocks(const BlockPlan& plan, std::span<const T> values,
                              const ControlRequest& request,
                              const std::vector<BlockInfo>& block_infos) {
  CompressResult out;
  out.request = request;
  out.block_count = plan.layout.block_count;
  out.tile = plan.layout.tile;
  std::size_t covered = 0;
  double sse_budget = 0.0;
  double achieved_sse = 0.0;
  for (const BlockInfo& bi : block_infos) {
    covered += bi.value_count;
    sse_budget += bi.sse_budget;
    achieved_sse += bi.achieved_sse;
    out.info.outlier_count += bi.outlier_count;
  }
  if (covered != values.size())
    throw std::logic_error("block pipeline: blocks do not cover the field");
  if (plan.per_block_bounds()) {
    // No global error budget to enforce: every value is coded at
    // eps * |x|, so the only honest PSNR is the measured one from the
    // per-block SSE column.
    out.predicted_psnr_db = std::numeric_limits<double>::quiet_NaN();
    // vr == 0 follows metrics::compare's convention: +inf only when the
    // reconstruction is exact.
    out.achieved_psnr_db =
        plan.vr > 0.0
            ? metrics::psnr_from_mse(
                  achieved_sse / static_cast<double>(values.size()), plan.vr)
            : (achieved_sse == 0.0
                   ? std::numeric_limits<double>::infinity()
                   : 0.0);
    out.rel_bound_used = 0.0;
    out.info.eb_abs_used = 0.0;
    out.info.value_range = plan.vr;
    out.info.value_count = values.size();
    out.info.achieved_sse = achieved_sse;
    return out;
  }
  const double global_budget =
      static_cast<double>(values.size()) * plan.eb_abs * plan.eb_abs / 3.0;
  if (sse_budget > global_budget * (1.0 + 1e-9))
    throw std::logic_error("block pipeline: per-block budgets exceed the "
                           "global error budget");

  // An infinite range (Inf samples, which fixed rate codes) predicts
  // +inf, like a constant field.
  out.predicted_psnr_db = plan.vr > 0.0 && std::isfinite(plan.vr)
                              ? psnr_for_abs_bound(plan.eb_abs, plan.vr)
                              : std::numeric_limits<double>::infinity();
  out.achieved_psnr_db =
      plan.vr > 0.0
          ? metrics::psnr_from_mse(
                achieved_sse / static_cast<double>(values.size()), plan.vr)
          : std::numeric_limits<double>::infinity();
  out.rel_bound_used = plan.vr > 0.0 ? plan.eb_abs / plan.vr : 0.0;
  out.info.eb_abs_used = plan.eb_abs;
  out.info.value_range = plan.vr;
  out.info.value_count = values.size();
  out.info.achieved_sse = achieved_sse;
  return out;
}

void set_size_info(CompressResult& out, std::size_t raw_bytes,
                   std::size_t compressed_bytes) {
  out.info.compressed_bytes = compressed_bytes;
  out.info.compression_ratio =
      metrics::compression_ratio(raw_bytes, compressed_bytes);
  out.info.bit_rate = metrics::bit_rate(compressed_bytes, out.info.value_count);
}

}  // namespace

/// All job state behind the pimpl. The writer's output (memory or file)
/// is chosen by which constructor ran. `remaining` is the only
/// cross-thread coordination run_block needs: the writer does its own
/// locking, block_infos and plan.encoded slots are per-index, and the rest
/// of the plan is immutable after construction.
template <typename T>
struct FieldCompressor<T>::Impl {
  std::span<const T> values;
  /// Caller's field-sized reconstruction buffer; empty when not wanted.
  std::span<T> recon;
  data::Dims dims;
  ControlRequest request;
  BlockPlan plan;
  std::vector<BlockInfo> block_infos;
  std::optional<io::BlockContainerWriter> writer;
  std::atomic<std::size_t> remaining{0};
  bool finalized = false;

  Impl(std::span<const T> v, const data::Dims& d, const ControlRequest& r,
       const CompressOptions& options, std::span<T> reconstruction = {})
      : values(v), recon(checked_recon(v, reconstruction)), dims(d),
        request(r), plan(plan_blocks(v, d, r, options, recon.empty())),
        block_infos(plan.layout.block_count),
        remaining(plan.layout.block_count) {}

  static std::span<T> checked_recon(std::span<const T> v, std::span<T> r) {
    if (!r.empty() && r.size() != v.size())
      throw std::invalid_argument(
          "block pipeline: reconstruction buffer does not match the field");
    return r;
  }
};

template <typename T>
FieldCompressor<T>::FieldCompressor(std::span<const T> values,
                                    const data::Dims& dims,
                                    const ControlRequest& request,
                                    const CompressOptions& options,
                                    std::span<T> reconstruction)
    : impl_(std::make_unique<Impl>(values, dims, request, options,
                                   reconstruction)) {
  impl_->writer.emplace(impl_->plan.header);
}

template <typename T>
FieldCompressor<T>::FieldCompressor(std::span<const T> values,
                                    const data::Dims& dims,
                                    const ControlRequest& request,
                                    const CompressOptions& options,
                                    std::string path)
    : impl_(std::make_unique<Impl>(values, dims, request, options)) {
  impl_->writer.emplace(std::move(path), impl_->plan.header);
}

template <typename T>
FieldCompressor<T>::~FieldCompressor() = default;

template <typename T>
FieldCompressor<T>::FieldCompressor(FieldCompressor&&) noexcept = default;

template <typename T>
FieldCompressor<T>& FieldCompressor<T>::operator=(FieldCompressor&&) noexcept =
    default;

template <typename T>
std::size_t FieldCompressor<T>::block_count() const {
  return impl_->plan.layout.block_count;
}

template <typename T>
bool FieldCompressor<T>::complete() const {
  return impl_->remaining.load(std::memory_order_acquire) == 0;
}

template <typename T>
bool FieldCompressor<T>::run_block(std::size_t b) {
  Impl& im = *impl_;
  const BlockPlan& plan = im.plan;
  if (b >= plan.layout.block_count)
    throw std::out_of_range("block pipeline: run_block index out of range");
  EncodedBlock block =
      plan.encoded.empty()
          ? encode_block(plan, im.values, im.dims, b, plan.block_eb[b], im.recon)
          : std::move(im.plan.encoded[b]);
  im.block_infos[b] = block.info;
  // The writer rejects duplicate indices, so a double-run can never reach
  // the counter and mis-report completion.
  im.writer->add_block(b, std::move(block.bytes), block.info.achieved_sse);
  return im.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1;
}

template <typename T>
std::uint64_t FieldCompressor<T>::locality_key(std::size_t b) const {
  // Coarsen the tile grid by 2 per axis: the 2^rank tiles of one coarse
  // cell share faces (and the rows flanking them share cache lines), so a
  // locality-aware queue keeps them on one worker. +1 keeps the key
  // non-zero — 0 means "no affinity" to the scheduler.
  const TileLayout& l = impl_->plan.layout;
  const std::size_t rank = impl_->dims.rank();
  std::uint64_t key = 0;
  std::size_t rem = b;
  for (std::size_t a = rank; a-- > 0;) {
    const std::size_t c = rem % l.grid[a];
    rem /= l.grid[a];
    const std::uint64_t coarse_count = (l.grid[a] + 1) / 2;
    key = key * coarse_count + (c / 2);
  }
  return key + 1;
}

template <typename T>
CompressResult FieldCompressor<T>::finalize(io::StreamingStats* stats) {
  Impl& im = *impl_;
  if (im.finalized)
    throw std::logic_error("block pipeline: finalize called twice");
  if (!complete())
    throw std::logic_error("block pipeline: finalize before every block ran");
  // Validate the budget accounting BEFORE finishing the writer: if it
  // fails, a file writer is destroyed unfinished and the partial file
  // removed — nothing is ever installed at the target path for a run the
  // API reports as failed.
  CompressResult out =
      account_blocks(im.plan, im.values, im.request, im.block_infos);
  out.stream = im.writer->finish();
  const io::StreamingStats& written = im.writer->stats();
  if (stats) *stats = written;
  set_size_info(out, im.values.size() * sizeof(T),
                static_cast<std::size_t>(written.total_bytes));
  im.finalized = true;
  return out;
}

template <typename T>
CompressResult compress_blocked(std::span<const T> values,
                                const data::Dims& dims,
                                const ControlRequest& request,
                                const CompressOptions& options,
                                std::span<T> reconstruction) {
  FieldCompressor<T> job(values, dims, request, options, reconstruction);
  for_each_block(job.block_count(), options.parallel.threads,
                 [&](std::size_t b) { job.run_block(b); });
  return job.finalize();
}

template <typename T>
CompressResult compress_to_file(std::span<const T> values,
                                const data::Dims& dims,
                                const ControlRequest& request,
                                const CompressOptions& options,
                                const std::string& path,
                                io::StreamingStats* stats) {
  FieldCompressor<T> job(values, dims, request, options, path);
  for_each_block(job.block_count(), options.parallel.threads,
                 [&](std::size_t b) { job.run_block(b); });
  return job.finalize(stats);
}

namespace {

/// An FPBK header resolved for decoding: the field, its tile grid and the
/// codec that wrote it. The whole-field and the single-block decode build
/// it the same way, so both read every header field alike.
template <typename T>
struct ArchiveDecoder {
  data::Dims dims;
  TileLayout layout;
  const BlockCodec* codec = nullptr;

  explicit ArchiveDecoder(const io::BlockContainerHeader& h) {
    check_scalar<T>(h);
    dims = dims_from_header(h);
    const std::vector<std::size_t> tile(h.tile.begin(), h.tile.end());
    layout = make_layout(dims, tile);
    if (layout.block_count != h.block_count)
      throw io::StreamError("block pipeline: index/block-count mismatch");
    codec = &header_codec(h);
  }

  /// Decode one block's bytes into its tile (C order, region.count
  /// values) — the one place a block's codec runs on decode.
  /// Incompressible blocks are store-demoted at compress time; each
  /// block's own magic says which codec wrote it.
  void decode_tile(std::span<const std::uint8_t> bytes,
                   std::span<T> tile) const {
    const BlockCodec& c = is_store_block_stream(bytes)
                              ? CodecRegistry::instance().at(kCodecStore)
                              : *codec;
    c.decompress(bytes, tile);
  }
};

}  // namespace

template <typename T>
sz::Decompressed<T> decompress_blocked(std::span<const std::uint8_t> stream,
                                       std::size_t threads) {
  const auto view = io::open_block_container(stream);
  const ArchiveDecoder<T> decoder(view.header);
  const data::Dims& dims = decoder.dims;
  const TileLayout& layout = decoder.layout;

  sz::Decompressed<T> out;
  out.dims = dims;
  out.values.resize(dims.count());
  std::span<T> all(out.values);
  for_each_block(layout.block_count, threads, [&](std::size_t b) {
    const TileRegion region = tile_region(layout, dims, b);
    if (region_contiguous(region, dims)) {
      decoder.decode_tile(view.blocks[b],
                          all.subspan(region.start[0] * layout.row_stride,
                                      region.count));
    } else {
      std::vector<T> scratch(region.count);
      decoder.decode_tile(view.blocks[b], std::span<T>(scratch));
      scatter_tile(std::span<const T>(scratch), dims, region, all);
    }
  });
  return out;
}

template <typename T>
sz::Decompressed<T> decompress_block(std::span<const std::uint8_t> stream,
                                     std::size_t block_index) {
  const ArchiveDecoder<T> decoder(io::block_container_header(stream));
  const auto bytes = io::block_container_entry(stream, block_index);
  const TileRegion region = tile_region(decoder.layout, decoder.dims,
                                        block_index);
  sz::Decompressed<T> out;
  out.dims = region_dims(region, decoder.dims.rank());
  out.values.resize(out.dims.count());
  decoder.decode_tile(bytes, std::span<T>(out.values));
  return out;
}

template <typename T>
sz::Decompressed<T> decompress_file(const std::string& path,
                                    std::size_t threads) {
  const io::MappedFile file(path);
  return decompress_blocked<T>(file.bytes(), threads);
}

template class FieldCompressor<float>;
template class FieldCompressor<double>;
template CompressResult compress_blocked<float>(std::span<const float>,
                                                const data::Dims&,
                                                const ControlRequest&,
                                                const CompressOptions&,
                                                std::span<float>);
template CompressResult compress_blocked<double>(std::span<const double>,
                                                 const data::Dims&,
                                                 const ControlRequest&,
                                                 const CompressOptions&,
                                                 std::span<double>);
template sz::Decompressed<float> decompress_blocked<float>(
    std::span<const std::uint8_t>, std::size_t);
template sz::Decompressed<double> decompress_blocked<double>(
    std::span<const std::uint8_t>, std::size_t);
template sz::Decompressed<float> decompress_block<float>(
    std::span<const std::uint8_t>, std::size_t);
template sz::Decompressed<double> decompress_block<double>(
    std::span<const std::uint8_t>, std::size_t);
template CompressResult compress_to_file<float>(
    std::span<const float>, const data::Dims&, const ControlRequest&,
    const CompressOptions&, const std::string&, io::StreamingStats*);
template CompressResult compress_to_file<double>(
    std::span<const double>, const data::Dims&, const ControlRequest&,
    const CompressOptions&, const std::string&, io::StreamingStats*);
template sz::Decompressed<float> decompress_file<float>(const std::string&,
                                                        std::size_t);
template sz::Decompressed<double> decompress_file<double>(const std::string&,
                                                          std::size_t);

}  // namespace fpsnr::core
