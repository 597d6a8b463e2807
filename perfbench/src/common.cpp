#include "common.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "simd/dispatch.h"

namespace perfbench {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics_)
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  metrics_.push_back({name, value, unit});
}

bool Report::has(const std::string& name) const {
  for (const Metric& m : metrics_)
    if (m.name == name) return true;
  return false;
}

void Report::fail(const std::string& what) {
  std::lock_guard lock(mutex_);
  ++failed_;
  if (failures_.size() < 20) failures_.push_back(what);
}

std::uint64_t Report::failed() const {
  std::lock_guard lock(mutex_);
  return failed_;
}

std::vector<std::string> Report::failures() const {
  std::lock_guard lock(mutex_);
  return failures_;
}

void Report::print_table(const std::string& title) const {
  std::printf("%s\n", title.c_str());
  for (const Metric& m : metrics_)
    std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  std::fflush(stdout);
}

std::string Report::json() const {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted()
      << ", \"failed\": " << failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    // JSON has no NaN/inf; a non-finite value is reported as 0 and the
    // run is already failing its checks when that happens.
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    out << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << v
        << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

std::string setup_input_path(const Options& o) {
  return o.work_dir + "/" + o.workload + "/setup-input.bin";
}

// Layout: name length u32, name, rank u32, extents u64 each, then the
// float values, all in host byte order (the file never leaves this run).
void save_setup_input(const Options& o, const fpsnr::data::Field& f) {
  std::filesystem::create_directories(o.work_dir + "/" + o.workload);
  std::ofstream out(setup_input_path(o), std::ios::binary | std::ios::trunc);
  auto put = [&](const void* p, std::size_t n) {
    out.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
  };
  const auto name_len = static_cast<std::uint32_t>(f.name.size());
  const auto rank = static_cast<std::uint32_t>(f.dims.rank());
  put(&name_len, sizeof name_len);
  put(f.name.data(), name_len);
  put(&rank, sizeof rank);
  for (std::size_t e : f.dims.extents) {
    const auto e64 = static_cast<std::uint64_t>(e);
    put(&e64, sizeof e64);
  }
  put(f.values.data(), f.bytes());
  if (!out) throw std::runtime_error("cannot write " + setup_input_path(o));
}

fpsnr::data::Field load_setup_input(const Options& o) {
  std::ifstream in(setup_input_path(o), std::ios::binary);
  auto get = [&](void* p, std::size_t n) {
    in.read(static_cast<char*>(p), static_cast<std::streamsize>(n));
    if (!in) throw std::runtime_error("cannot read " + setup_input_path(o));
  };
  std::uint32_t name_len = 0, rank = 0;
  get(&name_len, sizeof name_len);
  std::string name(name_len, '\0');
  get(name.data(), name_len);
  get(&rank, sizeof rank);
  if (rank == 0 || rank > 3) throw std::runtime_error("bad set-up input rank");
  std::vector<std::size_t> extents(rank);
  for (std::size_t& e : extents) {
    std::uint64_t e64 = 0;
    get(&e64, sizeof e64);
    e = static_cast<std::size_t>(e64);
  }
  fpsnr::data::Field f(std::move(name), fpsnr::data::Dims(std::move(extents)));
  get(f.values.data(), f.bytes());
  return f;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  const std::size_t threads = std::min<std::size_t>(nproc(), n);
  std::mutex mutex;
  std::exception_ptr error;
  std::vector<std::thread> pool;
  for (std::size_t w = 0; w < threads; ++w)
    pool.emplace_back([&, w] {
      try {
        for (std::size_t i = w; i < n; i += threads) fn(i);
      } catch (...) {
        std::lock_guard lock(mutex);
        if (!error) error = std::current_exception();
      }
    });
  for (std::thread& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

unsigned nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

std::size_t worker_cap() { return std::max(1u, nproc() - 1); }

namespace {

/// A "Name:   <n> kB" line of /proc/self/status, in MB (-1 if absent).
double proc_status_mb(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind(key + ":", 0) == 0)
      return std::stod(line.substr(key.size() + 1)) / 1024.0;
  return -1.0;
}

double rss_baseline_mb = 0.0;

}  // namespace

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";  // resets VmHWM to the current VmRSS
  clear.close();
  if (!clear) throw std::runtime_error("cannot reset the peak RSS via /proc/self/clear_refs");
  rss_baseline_mb = proc_status_mb("VmRSS");
}

double peak_rss_mb() { return proc_status_mb("VmHWM") - rss_baseline_mb; }

CpuTicks cpu_ticks() {
  // "cpu  user nice system idle iowait irq softirq steal ..."
  std::ifstream in("/proc/stat");
  std::string label;
  CpuTicks t;
  if (!(in >> label) || label != "cpu") return t;
  for (int field = 0; field < 8; ++field) {
    double v = 0.0;
    if (!(in >> v)) return {};
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

const char* simd_backend() {
  return fpsnr::simd::backend_name(fpsnr::simd::active_backend());
}

ErrorStats measure_error(std::span<const float> original,
                         std::span<const float> decoded, double eb_abs,
                         int slack_ulps) {
  ErrorStats s;
  if (original.empty() || original.size() != decoded.size()) {
    s.psnr_db = -std::numeric_limits<double>::infinity();
    s.max_abs_err = std::numeric_limits<double>::infinity();
    s.over_bound = original.size();
    return s;
  }
  const auto [lo_it, hi_it] = std::minmax_element(original.begin(), original.end());
  const double lo = *lo_it, hi = *hi_it;
  const float magnitude = static_cast<float>(std::max(std::abs(lo), std::abs(hi)));
  const double slack =
      slack_ulps * static_cast<double>(
                       std::nextafter(magnitude, std::numeric_limits<float>::infinity()) -
                       magnitude);
  double sse = 0.0;
  for (std::size_t i = 0; i < original.size(); ++i) {
    const double err = std::abs(static_cast<double>(original[i]) -
                                static_cast<double>(decoded[i]));
    sse += err * err;
    s.max_abs_err = std::max(s.max_abs_err, err);
    if (err > eb_abs + slack) ++s.over_bound;
  }
  const double mse = sse / static_cast<double>(original.size());
  s.psnr_db = mse == 0.0 ? std::numeric_limits<double>::infinity()
                         : 20.0 * std::log10(hi - lo) - 10.0 * std::log10(mse);
  return s;
}

bool check_decoded(Report& report, const std::string& what,
                   std::span<const float> original,
                   const std::vector<std::size_t>& dims,
                   const fpsnr::Field& decoded, double target_db,
                   double achieved_db, double eb_abs, double* psnr_db,
                   int slack_ulps) {
  if (decoded.dims != dims || decoded.f32.size() != original.size()) {
    report.fail(what + ": decoded dims or value count differ from the input");
    return false;
  }
  const ErrorStats e = measure_error(original, decoded.f32, eb_abs, slack_ulps);
  *psnr_db = e.psnr_db;
  char buf[256];
  if (!(e.psnr_db >= target_db - kPsnrSlackDb)) {
    std::snprintf(buf, sizeof buf, "%s: PSNR %.4f dB misses target %.2f dB",
                  what.c_str(), e.psnr_db, target_db);
  } else if (!(std::abs(e.psnr_db - achieved_db) <= kLedgerToleranceDb)) {
    std::snprintf(buf, sizeof buf,
                  "%s: measured PSNR %.6f dB disagrees with reported %.6f dB",
                  what.c_str(), e.psnr_db, achieved_db);
  } else if (e.over_bound != 0) {
    std::snprintf(buf, sizeof buf,
                  "%s: %zu point(s) exceed eb_abs %.9g (+%d ulp), max |err| %.9g",
                  what.c_str(), e.over_bound, eb_abs, slack_ulps, e.max_abs_err);
  } else {
    return true;
  }
  report.fail(buf);
  return false;
}

void EndToEnd::add(std::size_t item, double input_bytes, double archive_bytes,
                   double compress_ms, double decompress_ms, double psnr_dev_db) {
  Item& it = items_.at(item);
  it.input_bytes = input_bytes;
  it.archive_bytes = archive_bytes;
  it.psnr_dev_db = psnr_dev_db;
  it.compress_ms.push_back(compress_ms);
  it.decompress_ms.push_back(decompress_ms);
}

void EndToEnd::report(Report& report) const {
  double bytes = 0.0, archive = 0.0, c_ms = 0.0, d_ms = 0.0, dev = 0.0;
  double c_best = 0.0, d_best = 0.0;
  std::size_t calls = 0, min_rounds = 0, max_rounds = 0;
  std::vector<double> med_c, med_d;  // one per input
  for (const Item& it : items_) {
    if (it.compress_ms.empty()) continue;
    const std::size_t rounds = it.compress_ms.size();
    min_rounds = med_c.empty() ? rounds : std::min(min_rounds, rounds);
    max_rounds = std::max(max_rounds, rounds);
    calls += rounds;
    bytes += it.input_bytes;
    archive += it.archive_bytes;
    dev += it.psnr_dev_db;
    med_c.push_back(median(it.compress_ms));
    med_d.push_back(median(it.decompress_ms));
    c_ms += med_c.back();
    d_ms += med_d.back();
    c_best += *std::min_element(it.compress_ms.begin(), it.compress_ms.end());
    d_best += *std::min_element(it.decompress_ms.begin(), it.decompress_ms.end());
  }
  const double inputs = static_cast<double>(med_c.size());
  report.set("compress_MBps", bytes / 1e6 / (c_ms / 1e3), "MB/s");
  report.set("decompress_MBps", bytes / 1e6 / (d_ms / 1e3), "MB/s");
  report.set("compress_ms_p50", percentile(med_c, 0.5), "ms");
  report.set("compress_ms_p90", percentile(med_c, 0.9), "ms");
  report.set("decompress_ms_p50", percentile(med_d, 0.5), "ms");
  report.set("decompress_ms_p90", percentile(med_d, 0.9), "ms");
  report.set("ratio", bytes / archive, "x");
  report.set("psnr_dev_db", inputs > 0 ? dev / inputs : 0.0, "dB");
  report.set("peak_rss_MB", peak_rss_mb(), "MB");
  std::printf("samples: %zu compress and %zu decompress calls over %zu inputs, "
              "%zu-%zu rounds each; percentiles over the %zu per-input medians\n",
              calls, calls, med_c.size(), min_rounds, max_rounds, med_c.size());
  // Each input's fastest round, and the host steal over the loop: how far
  // host noise pulled the medians above down. Printed only; not metrics.
  std::printf("best-round throughput: compress %.2f MB/s, decompress %.2f MB/s\n",
              bytes / 1e6 / (c_best / 1e3), bytes / 1e6 / (d_best / 1e3));
  const CpuTicks end = cpu_ticks();
  if (end.total > start_.total)
    std::printf("host steal during the timed loop: %.3f of vCPU time\n",
                (end.steal - start_.steal) / (end.total - start_.total));
}

}  // namespace perfbench
