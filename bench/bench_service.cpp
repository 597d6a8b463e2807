// bench_service — what does the fpsnrd socket hop cost relative to calling
// fpsnr::Session in-process?
//
//   BM_ServicePing             pure protocol round-trip (frame + wakeup)
//   BM_ServiceCompress/N       compress N*1024 floats through the daemon
//   BM_InProcessCompress/N     the same job via Session::compress directly
//
// The archives are byte-identical by contract (test_service proves it), so
// time(Service)/time(InProcess) at matching N is the pure service overhead:
// two frame copies, one scheduler handoff, and the unix-socket hop. The
// expectation to sanity-check here is that the overhead is O(bytes) and
// amortizes to noise for real snapshot-sized fields.
//
// Every benchmark here is timed in wall-clock time (UseRealTime), and its
// bytes/s is computed from it: the work happens on the daemon's and the
// Session's worker threads, so the calling thread's CPU time would leave
// it out.
#include <benchmark/benchmark.h>

#if !defined(_WIN32)

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "fpsnr/service.h"
#include "fpsnr/session.h"

namespace {

using namespace fpsnr;

/// One daemon shared by every benchmark, started on first use and drained
/// at exit.
class BenchServer {
 public:
  static BenchServer& instance() {
    static BenchServer server;
    return server;
  }

  const std::string& path() const { return path_; }

 private:
  BenchServer() {
    path_ = (std::filesystem::temp_directory_path() /
             ("fpsnrd_bench_" + std::to_string(::getpid()) + ".sock"))
                .string();
    ::unlink(path_.c_str());
    service::ServerOptions opts;
    opts.endpoint.socket_path = path_;
    server_.emplace(std::move(opts));
    runner_ = std::thread([this] { server_->run(); });
  }

  ~BenchServer() {
    server_->request_shutdown();
    runner_.join();
    ::unlink(path_.c_str());
  }

  std::string path_;
  std::optional<service::Server> server_;
  std::thread runner_;
};

std::vector<float> make_values(std::size_t n) {
  std::vector<float> values(n);
  for (std::size_t i = 0; i < n; ++i)
    values[i] = static_cast<float>(std::sin(static_cast<double>(i) * 0.013) *
                                   50.0 +
                                   static_cast<double>(i % 31));
  return values;
}

void BM_ServicePing(benchmark::State& state) {
  service::Client client({BenchServer::instance().path()});
  for (auto _ : state) client.ping();
}
BENCHMARK(BM_ServicePing)->UseRealTime();

void BM_ServiceCompress(benchmark::State& state) {
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  const std::vector<float> values = make_values(rows * 1024);
  service::Client client({BenchServer::instance().path()});
  service::CompressSpec spec;
  spec.mode = "psnr";
  spec.value = 75.0;
  spec.dims = {rows, 1024};
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    const auto r = client.compress(std::span<const float>(values), spec);
    bytes = r.compressed_bytes;
    benchmark::DoNotOptimize(r.archive.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(values.size() *
                                                    sizeof(float)));
  state.counters["compressed_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_ServiceCompress)->Arg(16)->Arg(128)->Arg(1024)->UseRealTime();

void BM_InProcessCompress(benchmark::State& state) {
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  const std::vector<float> values = make_values(rows * 1024);
  const std::vector<std::size_t> dims = {rows, 1024};
  const Session session;
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    const auto report =
        session.compress(Source::memory(std::span<const float>(values), dims),
                         FixedPsnr{75.0}, Sink::memory());
    bytes = report.compressed_bytes;
    benchmark::DoNotOptimize(report.archive.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(values.size() *
                                                    sizeof(float)));
  state.counters["compressed_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_InProcessCompress)->Arg(16)->Arg(128)->Arg(1024)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();

#else

int main() { return 0; }

#endif  // !defined(_WIN32)
