// hurricane-3d: big rank-3 fields compressed in process by one
// closed-loop caller. Time goes to the block-parallel pipeline, the rank-3
// scalar Lorenzo path, Huffman, deflate and the streaming/mmap io layer;
// the SIMD Lorenzo kernel and the service are bypassed.
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>

#include "data/dataset.h"
#include "facade/facade_detail.h"
#include "fpsnr/session.h"
#include "replay.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr double kTargetDb = 60.0;
constexpr std::size_t kMinCalls = 100;
constexpr std::size_t kRealizations = 3;

struct Op {
  double compress_ms = 0.0;
  double decompress_ms = 0.0;
  std::size_t archive_bytes = 0;
  double psnr_db = 0.0;
  bool ok = false;
};

/// One field: Session::compress to a streaming sink, Session::decompress
/// from the file (mmap), then the output checks (untimed).
Op run_op(const fpsnr::Session& session, const fpsnr::data::Field& f,
          const std::string& path, Report& rep, Tracer* tracer,
          std::uint64_t op_id) {
  Op op;
  const std::vector<std::size_t> dims = f.dims.extents;
  rep.attempt(2);
  try {
    fpsnr::CompressReport cr;
    {
      Span s(tracer, "facade.compress", op_id);
      const Clock::time_point t0 = Clock::now();
      cr = session.compress(fpsnr::Source::memory(f.span(), dims),
                            fpsnr::FixedPsnr{kTargetDb},
                            fpsnr::Sink::stream(path));
      op.compress_ms = ms_since(t0);
    }
    fpsnr::Field out;
    {
      Span s(tracer, "facade.decompress", op_id);
      const Clock::time_point t0 = Clock::now();
      out = session.decompress(fpsnr::Source::file(path));
      op.decompress_ms = ms_since(t0);
    }
    op.archive_bytes = cr.compressed_bytes;
    const double eb = session.inspect(fpsnr::Source::file(path)).eb_abs;
    op.ok = check_decoded(rep, f.name, f.span(), dims, out, kTargetDb,
                          cr.achieved_psnr_db, eb, &op.psnr_db);
  } catch (const std::exception& e) {
    rep.fail(f.name + ": " + e.what());
  }
  return op;
}

fpsnr::SessionOptions session_options() {
  fpsnr::SessionOptions so;
  so.threads = worker_cap();
  return so;
}

std::string work_dir(const Options& opt) {
  const std::string dir = opt.work_dir + "/hurricane-3d";
  std::filesystem::create_directories(dir);
  return dir;
}

}  // namespace

double setup_hurricane_3d(const Options& opt, Report& rep,
                          const fpsnr::data::Field& field) {
  const std::string path = work_dir(opt) + "/setup.fpbk";
  const Clock::time_point t0 = Clock::now();
  const fpsnr::Session session(session_options());
  (void)run_op(session, field, path, rep, nullptr, 0);
  return ms_since(t0) / 1e3;
}

void run_hurricane_3d(const Options& opt, Report& rep) {
  // kRealizations independent datasets, seeded seed*K + j and generated in
  // parallel: a run's aggregates average over them, so the seed moves the
  // sparse hydrometeor fields' ratios less.
  const Clock::time_point g0 = Clock::now();
  std::vector<fpsnr::data::Dataset> sets(kRealizations);
  parallel_for(kRealizations, [&](std::size_t j) {
    fpsnr::data::DatasetConfig cfg;
    cfg.scale = opt.quick ? 0.5 : 2.0;
    cfg.seed = opt.seed * kRealizations + j;
    sets[j] = fpsnr::data::make_hurricane(cfg);
  });
  std::vector<const fpsnr::data::Field*> items;
  for (const auto& ds : sets)
    for (const auto& f : ds.fields) items.push_back(&f);
  const std::size_t per_set = sets[0].fields.size();
  std::printf("inputs: %zu datasets x %zu fields of %zu values (%.2f MB each), "
              "generated in %.2f s\n",
              sets.size(), per_set, items[0]->size(),
              static_cast<double>(items[0]->bytes()) / 1e6, ms_since(g0) / 1e3);
  save_setup_input(opt, *items[0]);
  reset_peak_rss();

  const std::string dir = work_dir(opt);
  auto path_of = [&](std::size_t i) {
    return dir + "/f" + std::to_string(i % per_set) + ".fpbk";
  };
  const fpsnr::SessionOptions so = session_options();
  const fpsnr::Session session(so);
  // Warm, untimed pass over the first dataset.
  for (std::size_t i = 0; i < per_set; ++i)
    (void)run_op(session, *items[i], path_of(i), rep, nullptr, i);

  if (!opt.trace) {
    // Closed loop, whole rounds over every field of every dataset.
    EndToEnd e2e(items.size());
    const Clock::time_point t0 = Clock::now();
    std::size_t calls = 0;  // attempted, so a failing build still ends
    while (ms_since(t0) < opt.seconds * 1e3 || calls < kMinCalls)
      for (std::size_t i = 0; i < items.size(); ++i, ++calls) {
        const Op op = run_op(session, *items[i], path_of(i), rep, nullptr, i);
        if (op.ok)
          e2e.add(i, static_cast<double>(items[i]->bytes()),
                  static_cast<double>(op.archive_bytes), op.compress_ms,
                  op.decompress_ms, std::abs(op.psnr_db - kTargetDb));
      }
    e2e.report(rep);
    return;
  }

  // Traced run: the tracing overhead first, then the facade calls in spans,
  // each followed by the layer replay of the same field.
  const double overhead = tracing_overhead(per_set, [&](std::size_t i, int, Tracer* tracer) {
    const Op op = run_op(session, *items[i], path_of(i), rep, tracer, i);
    return op.compress_ms + op.decompress_ms;
  });
  Tracer tracer;
  const fpsnr::core::CompressOptions copts =
      fpsnr::facade::resolve_session_options(so, nullptr);
  std::printf("per-field PSNR (target %.0f dB):\n", kTargetDb);
  for (std::size_t i = 0; i < per_set; ++i) {
    const fpsnr::data::Field& f = *items[i];
    const Op op = run_op(session, f, path_of(i), rep, &tracer, i);
    std::printf("  %-8s %8.3f dB  ratio %8.2f\n", f.name.c_str(), op.psnr_db,
                static_cast<double>(f.bytes()) /
                    static_cast<double>(std::max<std::size_t>(1, op.archive_bytes)));
    const std::vector<std::uint8_t> archive = read_file(path_of(i));
    FieldJob job{f.span(), f.dims, fpsnr::facade::to_request(fpsnr::FixedPsnr{kTargetDb}),
                 copts, archive, dir + "/spill.fpbk", i, f.name};
    replay_field(tracer, rep, job);
  }
  const double ops = static_cast<double>(per_set);
  rep.set("facade.compress_ms", tracer.total_ms("facade.compress") / ops, "ms");
  rep.set("facade.decompress_ms", tracer.total_ms("facade.decompress") / ops, "ms");
  finish_trace(rep, tracer, ops, overhead, dir);
}

}  // namespace perfbench
