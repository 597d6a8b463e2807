// series-3d: a rank-3 advected snapshot chain pushed through
// TimeSeriesSession (keyframe every 8, archives not kept) and decoded in
// order by TimeSeriesDecoder. The temporal layer — per-tile delta-vs-
// spatial planning, reference hashing and the self-decode after every
// push — dominates here and is absent from the other workloads.
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <memory>

#include "core/tile_layout.h"
#include "data/timeseries.h"
#include "facade/facade_detail.h"
#include "fpsnr/timeseries.h"
#include "io/archive.h"
#include "metrics/metrics.h"
#include "replay.h"
#include "temporal/temporal.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr double kTargetDb = 70.0;
constexpr std::size_t kMinCalls = 100;
constexpr std::size_t kChains = 8;
/// One keyframe then seven delta frames per chain (keyframe interval 8).
constexpr std::size_t kChainLength = 8;
/// Delta frames decode as fl(fl(x - ref) + decoded delta): two float
/// roundings on top of the sz bound on the delta. With M the field's
/// largest |x| and |ref| <= 2M, they add at most 1.5 ulp(2M) <= 4 ulp(M).
/// Keyframes are checked exactly.
constexpr int kDeltaSlackUlps = 4;

fpsnr::TimeSeriesOptions series_options() {
  fpsnr::TimeSeriesOptions o;
  o.session.threads = worker_cap();
  o.series = "perfbench";
  o.keyframe_interval = 8;
  o.keep_archives = false;
  return o;
}

struct Frame {
  double push_ms = 0.0;
  double feed_ms = 0.0;
  fpsnr::SnapshotRecord record;
  fpsnr::Field decoded;
  double psnr_db = 0.0;
  bool ok = false;
};

/// One frame: push into the encoder, feed its archive to the decoder, check
/// the reconstruction against the original snapshot (untimed).
Frame run_frame(fpsnr::TimeSeriesSession& enc, fpsnr::TimeSeriesDecoder& dec,
                const fpsnr::Field& snap, Report& rep, Tracer* tracer,
                std::uint64_t op_id) {
  Frame fr;
  const std::string what = "frame " + std::to_string(op_id);
  rep.attempt(2);
  try {
    {
      Span s(tracer, "temporal.push", op_id);
      const Clock::time_point t0 = Clock::now();
      fr.record = enc.push(snap);
      fr.push_ms = ms_since(t0);
    }
    {
      Span s(tracer, "temporal.feed", op_id);
      const Clock::time_point t0 = Clock::now();
      fr.decoded = dec.feed(fr.record.report.archive);
      fr.feed_ms = ms_since(t0);
    }
    const double eb = fpsnr::io::block_container_header(fr.record.report.archive).eb_abs;
    fr.ok = check_decoded(rep, what, snap.f32, snap.dims, fr.decoded, kTargetDb,
                          fr.record.report.achieved_psnr_db, eb, &fr.psnr_db,
                          fr.record.keyframe ? 0 : kDeltaSlackUlps);
  } catch (const std::exception& e) {
    rep.fail(what + ": " + e.what());
  }
  return fr;
}

}  // namespace

double setup_series_3d(const Options&, Report& rep, const fpsnr::data::Field& field) {
  fpsnr::Field snap;
  snap.dims = field.dims.extents;
  snap.f32 = field.values;
  const Clock::time_point t0 = Clock::now();
  fpsnr::TimeSeriesSession enc(fpsnr::FixedPsnr{kTargetDb}, series_options());
  fpsnr::TimeSeriesDecoder dec(worker_cap());
  (void)run_frame(enc, dec, snap, rep, nullptr, 0);
  return ms_since(t0) / 1e3;
}

void run_series_3d(const Options& opt, Report& rep) {
  // kChains independent chains, seeded seed*kChains + c and generated in
  // parallel: each chain draws its own random modes, so a run's aggregates
  // average over several of them instead of following one draw.
  const std::size_t chains = opt.quick ? 2 : kChains;
  const Clock::time_point g0 = Clock::now();
  std::vector<std::vector<fpsnr::Field>> series(chains);
  parallel_for(chains, [&](std::size_t c) {
    fpsnr::data::TimeSeriesConfig cfg;
    cfg.dims = opt.quick ? fpsnr::data::Dims{8, 32, 32} : fpsnr::data::Dims{32, 128, 128};
    cfg.snapshots = kChainLength;
    cfg.seed = opt.seed * kChains + c;
    for (fpsnr::data::Field& f : fpsnr::data::make_advected_series(cfg)) {
      fpsnr::Field snap;
      snap.dims = f.dims.extents;
      snap.f32 = std::move(f.values);
      series[c].push_back(std::move(snap));
    }
  });
  const std::size_t frame_values = series[0][0].f32.size();
  std::printf("inputs: %zu chains x %zu snapshots of %zu values (%.2f MB each), "
              "generated in %.2f s\n",
              chains, kChainLength, frame_values,
              static_cast<double>(frame_values * sizeof(float)) / 1e6,
              ms_since(g0) / 1e3);
  save_setup_input(opt, fpsnr::data::Field("chain0-t0", fpsnr::data::Dims(series[0][0].dims),
                                            series[0][0].f32));
  reset_peak_rss();
  const fpsnr::TimeSeriesOptions topts = series_options();
  const fpsnr::Target target = fpsnr::FixedPsnr{kTargetDb};

  // One chain through a fresh encoder/decoder pair; `each` sees every frame.
  auto pass = [&](std::size_t c, Tracer* tracer, auto&& each) {
    fpsnr::TimeSeriesSession enc(target, topts);
    fpsnr::TimeSeriesDecoder dec(worker_cap());
    for (std::size_t t = 0; t < kChainLength; ++t)
      each(t, run_frame(enc, dec, series[c][t], rep, tracer, c * kChainLength + t));
  };
  pass(0, nullptr, [](std::size_t, const Frame&) {});  // warm, untimed

  if (!opt.trace) {
    // Closed loop, whole rounds over every chain.
    EndToEnd e2e(chains * kChainLength);
    const Clock::time_point t0 = Clock::now();
    std::size_t calls = 0;  // attempted, so a failing build still ends
    while (ms_since(t0) < opt.seconds * 1e3 || calls < kMinCalls)
      for (std::size_t c = 0; c < chains; ++c)
        pass(c, nullptr, [&](std::size_t t, const Frame& fr) {
          ++calls;
          if (fr.ok)
            e2e.add(c * kChainLength + t,
                    static_cast<double>(frame_values * sizeof(float)),
                    static_cast<double>(fr.record.report.archive.size()), fr.push_ms,
                    fr.feed_ms, std::abs(fr.psnr_db - kTargetDb));
        });
    e2e.report(rep);
    return;
  }

  // Four encoder/decoder pairs, one per side, walk every chain in
  // lockstep, so each frame's four runs are back to back.
  struct Pair {
    std::unique_ptr<fpsnr::TimeSeriesSession> enc;
    std::unique_ptr<fpsnr::TimeSeriesDecoder> dec;
  };
  Pair sides[4];
  const double overhead = tracing_overhead(
      chains * kChainLength, [&](std::size_t i, int side, Tracer* tracer) {
        const std::size_t c = i / kChainLength, t = i % kChainLength;
        Pair& p = sides[side];
        if (t == 0) {
          p.enc = std::make_unique<fpsnr::TimeSeriesSession>(target, topts);
          p.dec = std::make_unique<fpsnr::TimeSeriesDecoder>(worker_cap());
        }
        const Frame fr = run_frame(*p.enc, *p.dec, series[c][t], rep, tracer, i);
        return fr.push_ms + fr.feed_ms;
      });

  // Traced pass over every chain: push/feed in spans, each frame then
  // replayed through the layers on its composite (the values the codec
  // saw) with the options the temporal layer used; the replayed archive
  // must equal the frame. Every chain, because how many tiles take the
  // delta path depends on each chain's random modes.
  Tracer tracer;
  const std::string dir = opt.work_dir + "/series-3d";
  std::filesystem::create_directories(dir);
  const fpsnr::data::Dims dims(series[0][0].dims);
  const fpsnr::core::CompressOptions base =
      fpsnr::facade::resolve_session_options(topts.session, nullptr);
  const fpsnr::core::TileLayout layout = fpsnr::core::make_layout(dims, base.parallel.tile);
  double key_ms = 0.0, delta_ms = 0.0, key_n = 0.0, delta_n = 0.0;
  double delta_blocks = 0.0, delta_frame_blocks = 0.0;
  std::vector<float> reference;  // previous frame's reconstruction
  std::printf("per-frame PSNR (target %.0f dB):\n", kTargetDb);
  for (std::size_t c = 0; c < chains; ++c) pass(c, &tracer, [&](std::size_t t, const Frame& fr) {
    const fpsnr::SnapshotRecord& rec = fr.record;
    const std::span<const float> snap = series[c][t].f32;
    const std::uint64_t op = c * kChainLength + t;
    const std::string what = "chain " + std::to_string(c) + " frame " + std::to_string(t);
    std::printf("  c=%-2zu t=%-2zu %-8s %8.3f dB  ratio %8.2f  delta blocks %zu/%zu\n", c, t,
                rec.keyframe ? "keyframe" : "delta", fr.psnr_db,
                rec.report.compression_ratio, rec.temporal_blocks, rec.block_count);
    (rec.keyframe ? key_ms : delta_ms) += fr.push_ms;
    (rec.keyframe ? key_n : delta_n) += 1.0;
    if (!rec.keyframe) {
      delta_blocks += static_cast<double>(rec.temporal_blocks);
      delta_frame_blocks += static_cast<double>(rec.block_count);
    }
    const fpsnr::io::BlockContainerHeader header =
        fpsnr::io::block_container_header(rec.report.archive);
    fpsnr::core::CompressOptions copts = base;
    copts.temporal.enabled = true;
    copts.temporal.series_id = header.series_id;
    copts.temporal.timestep = header.timestep;
    copts.temporal.delta = header.is_delta_frame();
    copts.temporal.ref_hash = header.ref_hash;
    std::span<const float> coded = snap;
    fpsnr::temporal::CompositePlan<float> composite;
    if (rec.keyframe) {
      copts.temporal.block_modes.assign((layout.block_count + 7) / 8, 0);
    } else {
      {
        Span s(&tracer, "temporal.composite", op);
        composite = fpsnr::temporal::build_composite<float>(snap, reference, dims, layout);
      }
      rep.attempt();
      if (composite.block_modes != header.block_modes)
        rep.fail(what + ": composite plan differs from the frame's");
      copts.temporal.block_modes = composite.block_modes;
      copts.value_range_override = fpsnr::metrics::value_range(snap);
      coded = composite.values;
    }
    FieldJob job{coded, dims, fpsnr::facade::to_request(target), copts,
                 rec.report.archive, dir + "/spill.fpbk", op, what};
    replay_field(tracer, rep, job);
    reference = fr.decoded.f32;
  });
  const double ops = static_cast<double>(chains * kChainLength);
  rep.set("facade.compress_ms", tracer.total_ms("temporal.push") / ops, "ms");
  rep.set("facade.decompress_ms", tracer.total_ms("temporal.feed") / ops, "ms");
  rep.set("temporal.self_decode_ms", tracer.total_ms("temporal.feed") / ops, "ms");
  rep.set("temporal.keyframe_ms", key_n > 0 ? key_ms / key_n : 0.0, "ms");
  rep.set("temporal.delta_ms", delta_n > 0 ? delta_ms / delta_n : 0.0, "ms");
  rep.set("temporal.delta_block_frac",
          delta_frame_blocks > 0 ? delta_blocks / delta_frame_blocks : 0.0, "frac");
  finish_trace(rep, tracer, ops, overhead, dir);
}

}  // namespace perfbench
