// Shared plumbing of the fpsnr benchmark: options, clocks, percentiles,
// the result object printed as the last stdout line, the correctness
// checks every workload runs on its decoded outputs, and the end-to-end
// metric set all workloads report.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "data/field.h"
#include "fpsnr/session.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double ms_since(Clock::time_point a) { return ms_between(a, Clock::now()); }

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;  ///< measuring time; required except in set-up sample mode
  bool trace = false;
  /// Set-up sample mode: load the input the measuring run saved, time one
  /// set-up in this fresh process, and report only `setup_s`.
  bool setup_sample = false;
  /// Short mode: tiny inputs and a fraction of a second of measurement —
  /// the benchmark's own smoke test.
  bool quick = false;
  /// Directory for archives, sockets and the span file (created if absent).
  std::string work_dir = ".bench_build/perfbench-run";
};

/// Linear-interpolated percentile (q in [0,1]) of an unsorted sample.
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// The result object: every metric by name and unit, plus the operation
/// tally the fail fraction is computed from.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  bool has(const std::string& name) const;
  /// Operations attempted: every compress/decompress call, and every
  /// cross-check that compares two outputs.
  void attempt(std::size_t n = 1) { attempted_ += n; }
  /// Record a failure: an operation that threw, was rejected, or whose
  /// output failed a correctness check. Thread-safe.
  void fail(const std::string& what);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const;
  /// The first recorded failure messages.
  std::vector<std::string> failures() const;
  bool correct() const { return failed() == 0; }
  /// Human-readable metric table on stdout (never the last line).
  void print_table(const std::string& title) const;
  /// The single-line JSON result.
  std::string json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::atomic<std::uint64_t> attempted_{0};
  mutable std::mutex mutex_;  ///< guards failed_ and failures_
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;  ///< first few messages, for stderr
};

/// Whole file as bytes (empty if it cannot be read).
std::vector<std::uint8_t> read_file(const std::string& path);

/// Run fn(i) for every i in [0, n) on up to nproc threads and wait; the
/// first exception a call throws is rethrown here. For input generation.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

/// The input a set-up sample runs on (the workload's first field or
/// frame): the measuring run saves it, each set-up process loads it before
/// its clock starts, so input generation stays outside `setup_s`.
std::string setup_input_path(const Options& options);
void save_setup_input(const Options& options, const fpsnr::data::Field& field);
fpsnr::data::Field load_setup_input(const Options& options);

/// Workers a compressing caller may use: every core but one, at least one.
std::size_t worker_cap();
unsigned nproc();
/// Start the peak-RSS window: return free heap pages to the system and
/// reset the kernel's high-water mark, so the peak measured afterwards is
/// the program's working set on top of what is resident now (the inputs).
void reset_peak_rss();
/// Peak resident set since reset_peak_rss(), above the resident set at
/// that moment (MB).
double peak_rss_mb();
/// Cumulative steal and total time of the host's CPUs, in /proc/stat
/// ticks (zeros if unreadable). Steal is time the hypervisor gave this
/// VM's vCPUs to someone else; wall-time metrics follow it.
struct CpuTicks {
  double steal = 0.0;
  double total = 0.0;
};
CpuTicks cpu_ticks();

/// Active SIMD backend name ("scalar", "avx2", "neon").
const char* simd_backend();

/// PSNR and max pointwise error of `decoded` against `original`, computed
/// here in double precision (value range = max - min of the original), and
/// the number of points whose error exceeds eb_abs + slack_ulps * ulp(M),
/// M the largest |value| of the original.
struct ErrorStats {
  double psnr_db = 0.0;
  double max_abs_err = 0.0;
  std::size_t over_bound = 0;
};
ErrorStats measure_error(std::span<const float> original,
                         std::span<const float> decoded, double eb_abs,
                         int slack_ulps);

/// PSNR slack below the target a fixed-PSNR archive may land (the
/// repository's test convention).
inline constexpr double kPsnrSlackDb = 1.0;
/// Largest gap allowed between the PSNR measured here and the exact
/// achieved PSNR the library reports from its per-block SSE ledger.
inline constexpr double kLedgerToleranceDb = 1e-3;

/// Check one decoded field: dims, PSNR against the target and against the
/// library's achieved PSNR, and the pointwise |err| <= eb_abs bound, with
/// `slack_ulps` float ulps of the field's largest magnitude on top (0 =
/// exact; the temporal layer's delta frames add the rounding of x - ref and
/// of the reference add-back). Failures go to `report` (the decode call was
/// already counted as attempted); returns whether every check passed and
/// stores the measured PSNR in `psnr_db`.
bool check_decoded(Report& report, const std::string& what,
                   std::span<const float> original,
                   const std::vector<std::size_t>& dims,
                   const fpsnr::Field& decoded, double target_db,
                   double achieved_db, double eb_abs, double* psnr_db,
                   int slack_ulps = 0);

/// Everything the end-to-end metrics are computed from. An item is one
/// input (field or frame); the timed loop calls it once per round.
class EndToEnd {
 public:
  /// Construct right before the timed loop: the host steal over the loop
  /// is measured from here and printed with the metrics.
  explicit EndToEnd(std::size_t items) : items_(items), start_(cpu_ticks()) {}

  /// One checked, timed compress + decompress of `item`.
  void add(std::size_t item, double input_bytes, double archive_bytes,
           double compress_ms, double decompress_ms, double psnr_dev_db);

  /// Put the end-to-end metrics but `setup_s` (measured in fresh
  /// processes, see run.py) into `report`. Each item's call time is the
  /// median over its rounds, so a burst of host noise in one round moves no
  /// item: throughputs are input bytes over the summed item medians,
  /// latency percentiles are taken over the item medians, ratio and PSNR
  /// deviation are per-item aggregates, and peak_rss_MB is the growth
  /// since reset_peak_rss().
  void report(Report& report) const;

 private:
  struct Item {
    double input_bytes = 0.0;
    double archive_bytes = 0.0;
    double psnr_dev_db = 0.0;
    std::vector<double> compress_ms, decompress_ms;
  };
  std::vector<Item> items_;
  CpuTicks start_;
};

}  // namespace perfbench
