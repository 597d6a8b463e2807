// atm-2d-fpsnrd: 79 small rank-2 fields through an fpsnrd Server started
// in this process on a unix socket (2 server threads), over two blocking
// Clients that one closed-loop caller takes in turn: Compress, then
// Decompress of the returned archive, then the next field on the other
// client. Small requests make per-request fixed costs (framing, the socket
// hop, the session pool, plan/finalize, container headers, queue wait) a
// large share, and rank-2 tiles take the SIMD lorenzo2_quant kernel.
//
// The whole process runs on one CPU: the daemon and its client share a
// core, as beside a simulation that keeps the others. Unconfined, every
// request wakes several idle vCPUs, and on a shared VM that wake-up
// latency swung throughput 2x between runs. Confined, one request runs at
// a time: with two clients calling at once, a call ran either alone or
// beside the other client's, and how often each happened changed from run
// to run (decompress figures spread 0.3 of their median over 10 seeds).
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "data/dataset.h"
#include "facade/facade_detail.h"
#include "fpsnr/service.h"
#include "fpsnr/session.h"
#include "io/archive.h"
#include "replay.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace svc = fpsnr::service;

constexpr double kTargetDb = 80.0;
constexpr std::size_t kServerThreads = 2;
constexpr std::size_t kClients = 2;
constexpr std::size_t kMinCalls = 100;
constexpr int kPings = 200;
/// Every kIdentityStride-th field is also compressed in process and must be
/// byte-identical to the server's archive.
constexpr std::size_t kIdentityStride = 10;

/// A server running on its own thread; the destructor drains and joins it.
class RunningServer {
 public:
  explicit RunningServer(const svc::ServerOptions& options)
      : server_(options), thread_([this] { exit_code_ = server_.run(); }) {}
  ~RunningServer() {
    server_.request_shutdown();
    thread_.join();
  }
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;

  std::string stats() const { return server_.stats(); }

 private:
  svc::Server server_;
  int exit_code_ = 0;
  std::thread thread_;  // last: started after server_ exists
};

svc::CompressSpec spec_for(const fpsnr::data::Field& f) {
  svc::CompressSpec spec;
  spec.mode = "fixed-psnr";
  spec.value = kTargetDb;
  spec.dims = f.dims.extents;
  return spec;
}

struct Op {
  double compress_ms = 0.0;
  double decompress_ms = 0.0;
  std::vector<std::uint8_t> archive;
  double psnr_db = 0.0;
  bool ok = false;
};

/// One request pair on `client`: Compress, then Decompress of the returned
/// archive, then the output checks (untimed).
Op run_op(svc::Client& client, const fpsnr::data::Field& f, Report& rep,
          Tracer* tracer, std::uint64_t op_id) {
  Op op;
  rep.attempt(2);
  try {
    svc::CompressResult cr;
    {
      Span s(tracer, "service.compress_rt", op_id);
      const Clock::time_point t0 = Clock::now();
      cr = client.compress(f.span(), spec_for(f));
      op.compress_ms = ms_since(t0);
    }
    fpsnr::Field out;
    {
      Span s(tracer, "service.decompress_rt", op_id);
      const Clock::time_point t0 = Clock::now();
      out = client.decompress(cr.archive);
      op.decompress_ms = ms_since(t0);
    }
    const double eb = fpsnr::io::block_container_header(cr.archive).eb_abs;
    op.ok = check_decoded(rep, f.name, f.span(), f.dims.extents, out, kTargetDb,
                          cr.achieved_psnr_db, eb, &op.psnr_db);
    op.archive = std::move(cr.archive);
  } catch (const std::exception& e) {
    rep.fail(f.name + ": " + e.what());
  }
  return op;
}

/// Sum of the `rejected_*` counters and the mean per-job latency (us) of a
/// Stats reply.
void parse_stats(const std::string& stats, double* rejected, double* latency_us) {
  std::istringstream in(stats);
  std::string line;
  *rejected = 0.0;
  *latency_us = 0.0;
  while (std::getline(in, line)) {
    if (line.rfind("rejected_", 0) == 0)
      *rejected += std::stod(line.substr(line.find(':') + 1));
    const std::size_t mean = line.find(" mean=");
    if (line.rfind("latency_us{", 0) == 0 && mean != std::string::npos)
      *latency_us = std::stod(line.substr(mean + 6));
  }
}

/// Confine the calling thread, and so every thread it starts afterwards
/// (server, shared pool, clients), to the first CPU it may run on.
/// Returns that CPU, or -1 if the affinity could not be set.
int confine_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
  }
  return -1;
}

/// Before any thread exists: the shared pool is created lazily, later.
void confine() {
  const int cpu = confine_to_one_cpu();
  if (cpu < 0) throw std::runtime_error("cannot confine the process to one CPU");
  std::printf("confined to cpu %d\n", cpu);
}

svc::ServerOptions server_options(const Options& opt) {
  const std::string dir = opt.work_dir + "/atm-2d-fpsnrd";
  std::filesystem::create_directories(dir);
  // Relative socket path: a deep checkout must not hit the sun_path limit.
  svc::ServerOptions sopts;
  sopts.endpoint.socket_path =
      std::filesystem::relative(dir + "/fpsnrd.sock").string();
  sopts.threads = kServerThreads;
  return sopts;
}

}  // namespace

double setup_atm_2d_fpsnrd(const Options& opt, Report& rep,
                           const fpsnr::data::Field& field) {
  confine();
  const svc::ServerOptions sopts = server_options(opt);
  const Clock::time_point t0 = Clock::now();
  RunningServer server(sopts);
  std::vector<svc::Client> clients;
  for (std::size_t c = 0; c < kClients; ++c) clients.emplace_back(sopts.endpoint);
  (void)run_op(clients[0], field, rep, nullptr, 0);
  return ms_since(t0) / 1e3;
}

void run_atm_2d_fpsnrd(const Options& opt, Report& rep) {
  confine();
  fpsnr::data::DatasetConfig cfg;
  cfg.scale = opt.quick ? 0.25 : 1.0;
  cfg.seed = opt.seed;
  const Clock::time_point g0 = Clock::now();
  const fpsnr::data::Dataset ds = fpsnr::data::make_atm(cfg);
  const auto& fields = ds.fields;
  std::printf("inputs: %zu fields of %zu values (%.3f MB each), generated in %.2f s\n",
              fields.size(), fields[0].size(), static_cast<double>(fields[0].bytes()) / 1e6,
              ms_since(g0) / 1e3);
  save_setup_input(opt, fields[0]);
  reset_peak_rss();

  const std::string dir = opt.work_dir + "/atm-2d-fpsnrd";
  const svc::ServerOptions sopts = server_options(opt);
  RunningServer server(sopts);
  std::vector<svc::Client> clients;
  for (std::size_t c = 0; c < kClients; ++c) clients.emplace_back(sopts.endpoint);
  // Warm, untimed pass.
  for (std::size_t i = 0; i < fields.size(); ++i)
    (void)run_op(clients[i % kClients], fields[i], rep, nullptr, i);

  fpsnr::SessionOptions local_opts;
  local_opts.threads = kServerThreads;
  const fpsnr::Session local(local_opts);

  if (!opt.trace) {
    // Closed loop from one caller, which takes the clients in turn: one
    // request at a time, so no call shares the CPU with another's work.
    EndToEnd e2e(fields.size());
    std::vector<std::vector<std::uint8_t>> last(fields.size());
    const Clock::time_point t0 = Clock::now();
    std::size_t calls = 0;  // attempted, so a failing build still ends
    while (ms_since(t0) < opt.seconds * 1e3 || calls < kMinCalls)
      for (std::size_t i = 0; i < fields.size(); ++i, ++calls) {
        Op op = run_op(clients[i % kClients], fields[i], rep, nullptr, i);
        if (op.ok)
          e2e.add(i, static_cast<double>(fields[i].bytes()),
                  static_cast<double>(op.archive.size()), op.compress_ms,
                  op.decompress_ms, std::abs(op.psnr_db - kTargetDb));
        last[i] = std::move(op.archive);
      }

    // The server's archives must be byte-identical to in-process output.
    for (std::size_t i = 0; i < fields.size(); i += kIdentityStride) {
      rep.attempt();
      const auto& remote = last[i];
      const fpsnr::CompressReport mine = local.compress(
          fpsnr::Source::memory(fields[i].span(), fields[i].dims.extents),
          fpsnr::FixedPsnr{kTargetDb}, fpsnr::Sink::memory());
      if (remote != mine.archive)
        rep.fail(fields[i].name + ": fpsnrd archive differs from Session::compress");
    }
    e2e.report(rep);
    return;
  }

  // Traced run, one client: the tracing overhead first, then service round
  // trips and the in-process facade call on the same field and spec (the
  // difference is the socket hop), each followed by the layer replay of
  // the field.
  const double overhead =
      tracing_overhead(fields.size(), [&](std::size_t i, int, Tracer* tracer) {
        const Op op = run_op(clients[0], fields[i], rep, tracer, i);
        return op.compress_ms + op.decompress_ms;
      });
  Tracer tracer;
  std::vector<double> pings;
  for (int k = 0; k < kPings; ++k) {
    const Clock::time_point t0 = Clock::now();
    clients[0].ping();
    pings.push_back(ms_since(t0) * 1e3);
  }
  const fpsnr::core::CompressOptions copts =
      fpsnr::facade::resolve_session_options(local_opts, nullptr);
  double hop_ms = 0.0, rt_ms = 0.0;
  std::printf("per-field PSNR (target %.0f dB):\n", kTargetDb);
  for (std::size_t i = 0; i < fields.size(); ++i) {
    const Op op = run_op(clients[0], fields[i], rep, &tracer, i);
    std::printf("  %-10s %8.3f dB  ratio %8.2f\n", fields[i].name.c_str(), op.psnr_db,
                static_cast<double>(fields[i].bytes()) /
                    static_cast<double>(std::max<std::size_t>(1, op.archive.size())));
    fpsnr::CompressReport mine;
    {
      Span s(&tracer, "facade.compress", i);
      const Clock::time_point t0 = Clock::now();
      mine = local.compress(
          fpsnr::Source::memory(fields[i].span(), fields[i].dims.extents),
          fpsnr::FixedPsnr{kTargetDb}, fpsnr::Sink::memory());
      hop_ms += op.compress_ms - ms_since(t0);
      rt_ms += op.compress_ms;
    }
    {
      Span s(&tracer, "facade.decompress", i);
      (void)local.decompress(fpsnr::Source::memory(mine.archive));
    }
    rep.attempt();
    if (mine.archive != op.archive)
      rep.fail(fields[i].name + ": fpsnrd archive differs from Session::compress");
    FieldJob job{fields[i].span(), fields[i].dims,
                 fpsnr::facade::to_request(fpsnr::FixedPsnr{kTargetDb}), copts,
                 op.archive, dir + "/spill.fpbk", i, fields[i].name};
    replay_field(tracer, rep, job);
  }
  const double ops = static_cast<double>(fields.size());
  double rejected = 0.0, latency_us = 0.0;
  parse_stats(clients[0].stats(), &rejected, &latency_us);
  rep.set("facade.compress_ms", tracer.total_ms("facade.compress") / ops, "ms");
  rep.set("facade.decompress_ms", tracer.total_ms("facade.decompress") / ops, "ms");
  rep.set("service.ping_us", median(pings), "us");
  rep.set("service.hop_ms", hop_ms / ops, "ms");
  rep.set("service.hop_frac", hop_ms / rt_ms, "frac");
  rep.set("service.server_latency_ms", latency_us / 1e3, "ms");
  rep.set("service.rejected", rejected, "count");
  finish_trace(rep, tracer, ops, overhead, dir);
}

}  // namespace perfbench
