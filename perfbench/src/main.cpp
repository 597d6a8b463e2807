// fpsnr end-to-end benchmark program.
//
//   fpsnr_perfbench --workload <hurricane-3d|atm-2d-fpsnrd|series-3d>
//                   --seed <n> --seconds <s> --trace <0|1>
//                   [--quick] [--work-dir <dir>]
//   fpsnr_perfbench --workload <...> --setup-sample [--quick] [--work-dir <dir>]
//
// With --trace 0 it runs the timed closed loop and reports the end-to-end
// metrics but setup_s; with --trace 1 it runs the traced pass and reports
// the per-layer metrics. With --setup-sample it loads the input a
// measuring run of the same workload saved, times one set-up in this fresh
// process and reports setup_s alone. Either way the last stdout line is
// one JSON object {"correct", "attempted", "failed", "metrics"}; the exit
// code is 0 only when every operation succeeded and every check passed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

/// Name and unit of every per-layer metric, in report order. A workload
/// that bypasses a layer reports its metrics as 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"facade.compress_ms", "ms"},
    {"facade.decompress_ms", "ms"},
    {"core.plan_ms", "ms"},
    {"core.finalize_ms", "ms"},
    {"core.block_busy_ms", "ms"},
    {"core.blocks", "count"},
    {"core.block_max_ms", "ms"},
    {"core.decode_busy_ms", "ms"},
    {"core.store_demoted_frac", "frac"},
    {"core.container_overhead_frac", "frac"},
    {"codec.compress_ms", "ms"},
    {"codec.decompress_ms", "ms"},
    {"codec.replay_gap_frac", "frac"},
    {"sz.quantize_ms", "ms"},
    {"sz.outlier_frac", "frac"},
    {"simd.lorenzo2_calls", "count"},
    {"simd.lorenzo2_MBps", "MB/s"},
    {"simd.sse_MBps", "MB/s"},
    {"huffman.build_ms", "ms"},
    {"huffman.encode_ms", "ms"},
    {"huffman.decode_ms", "ms"},
    {"huffman.bits_per_value", "bits"},
    {"lossless.compress_ms", "ms"},
    {"lossless.decompress_ms", "ms"},
    {"lossless.saved_frac", "frac"},
    {"io.spill_ms", "ms"},
    {"io.mmap_read_ms", "ms"},
    {"io.reorder_peak_MB", "MB"},
    {"parallel.queue_wait_ms_p50", "ms"},
    {"parallel.queue_wait_ms_p90", "ms"},
    {"parallel.busy_frac", "frac"},
    {"temporal.self_decode_ms", "ms"},
    {"temporal.keyframe_ms", "ms"},
    {"temporal.delta_ms", "ms"},
    {"temporal.delta_block_frac", "frac"},
    {"service.ping_us", "us"},
    {"service.hop_ms", "ms"},
    {"service.hop_frac", "frac"},
    {"service.server_latency_ms", "ms"},
    {"service.rejected", "count"},
    {"trace.overhead_frac", "frac"},
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "fpsnr_perfbench: %s\nusage: fpsnr_perfbench --workload "
               "<hurricane-3d|atm-2d-fpsnrd|series-3d> --seed N --seconds S "
               "--trace 0|1 [--quick] [--work-dir DIR]\n       fpsnr_perfbench "
               "--workload W --setup-sample [--quick] [--work-dir DIR]\n",
               msg);
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    try {
      if (a == "--workload") o.workload = value();
      else if (a == "--seed") o.seed = std::stoull(value());
      else if (a == "--seconds") o.seconds = std::stod(value());
      else if (a == "--trace") o.trace = std::stoi(value()) != 0;
      else if (a == "--quick") o.quick = true;
      else if (a == "--setup-sample") o.setup_sample = true;
      else if (a == "--work-dir") o.work_dir = value();
      else usage(("unknown argument " + a).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!o.setup_sample && !(o.seconds > 0.0))
    usage("--seconds is required and must be positive");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opt = parse(argc, argv);
  void (*run)(const Options&, Report&) = nullptr;
  double (*setup)(const Options&, Report&, const fpsnr::data::Field&) = nullptr;
  if (opt.workload == "hurricane-3d") {
    run = run_hurricane_3d;
    setup = setup_hurricane_3d;
  } else if (opt.workload == "atm-2d-fpsnrd") {
    run = run_atm_2d_fpsnrd;
    setup = setup_atm_2d_fpsnrd;
  } else if (opt.workload == "series-3d") {
    run = run_series_3d;
    setup = setup_series_3d;
  } else {
    usage(("unknown workload " + opt.workload).c_str());
  }

  if (opt.setup_sample) {
    Report report;
    try {
      const fpsnr::data::Field field = load_setup_input(opt);
      report.set("setup_s", setup(opt, report, field), "s");
    } catch (const std::exception& e) {
      report.attempt();
      report.fail(std::string("set-up sample aborted: ") + e.what());
    }
    for (const std::string& f : report.failures())
      std::fprintf(stderr, "FAILED: %s\n", f.c_str());
    std::printf("%s\n", report.json().c_str());
    return report.correct() ? 0 : 1;
  }

  std::filesystem::create_directories(opt.work_dir);
  std::printf("fpsnr_perfbench workload=%s seed=%llu seconds=%g trace=%d%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, opt.quick ? " quick" : "");
  std::printf("environment: nproc=%u worker_cap=%zu simd=%s build=%s\n", nproc(),
              worker_cap(), simd_backend(), PERFBENCH_BUILD_TYPE);
  std::fflush(stdout);

  Report report;
  try {
    run(opt, report);
  } catch (const std::exception& e) {
    report.attempt();
    report.fail(std::string("workload aborted: ") + e.what());
  }
  if (opt.trace)
    for (const LayerMetric& m : kLayerMetrics)
      if (!report.has(m.name)) report.set(m.name, 0.0, m.unit);

  report.print_table(opt.trace ? "per-layer metrics (0 = layer not on this path):"
                               : "end-to-end metrics:");
  std::printf("operations: attempted=%llu failed=%llu fail_frac=%.6g\n",
              static_cast<unsigned long long>(report.attempted()),
              static_cast<unsigned long long>(report.failed()),
              report.attempted()
                  ? static_cast<double>(report.failed()) /
                        static_cast<double>(report.attempted())
                  : 0.0);
  for (const std::string& f : report.failures())
    std::fprintf(stderr, "FAILED: %s\n", f.c_str());
  std::printf("%s\n", report.json().c_str());
  return report.correct() ? 0 : 1;
}
