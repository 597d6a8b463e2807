// fpsnrd — the long-lived compression service (fpsnr::service::Server).
//
// Shape of the daemon:
//
//   accept loop (run() caller) ── poll(listen fd, control pipe)
//     ├─ per-connection handler threads: read framed requests, admit them
//     │  (bounded in-flight bytes), enqueue jobs with priority + deadline,
//     │  wait for the result, write the response
//     ├─ one scheduler thread: drains the WorkQueue whenever jobs are
//     │  pending (the ONLY drain site — WorkQueue enforces one drain at a
//     │  time, and the service honours it by construction)
//     └─ control pipe: request_shutdown()/request_stats_dump() write one
//        byte from signal context; the accept loop acts on it
//
// Graceful drain: on shutdown the listen socket closes (no new
// connections), handlers are woken through a broadcast pipe and serve only
// the requests already readable on their sockets before closing, every
// admitted job still runs to completion and is answered, and run()
// returns 0. A client therefore sees exactly one of: a complete response,
// or a clean close with no response — never a partial frame.
#include "fpsnr/service.h"

#if !defined(_WIN32)

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <arpa/inet.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <future>
#include <iomanip>
#include <list>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "fpsnr/timeseries.h"
#include "parallel/work_queue.h"
#include "service/metrics.h"
#include "service/wire.h"

namespace fpsnr::service {

namespace {

/// a*b without silent wrap (dims products come off the wire untrusted).
bool checked_mul(std::uint64_t a, std::uint64_t b, std::uint64_t* out) {
  if (a != 0 && b > UINT64_MAX / a) return false;
  *out = a * b;
  return true;
}

/// Outcome of one queued job, handed back to the waiting handler.
struct JobResult {
  bool ok = false;
  ErrorCode code = ErrorCode::Internal;
  std::string message;
  std::vector<std::uint8_t> payload;  ///< Reply payload when ok
};

int close_quietly(int fd) { return fd >= 0 ? ::close(fd) : 0; }

bool carries_field(FrameType type) {
  return type == FrameType::Compress || type == FrameType::CompressSeries;
}

/// One job request, parsed off its frame. `spec` holds the Compress fields
/// too (`series`/`keyframe_interval` are CompressSeries only). `data`
/// borrows the payload: the field's values for the two compress types, the
/// archive for Decompress/Inspect.
struct JobRequest {
  FrameType type = FrameType::Compress;
  bool priority = false;
  std::uint32_t deadline_ms = 0;
  SeriesSpec spec;
  std::uint8_t scalar = 0;  ///< 1 = f64, 0 = f32
  std::uint64_t count = 0;  ///< product of spec.dims
  std::span<const std::uint8_t> data;
};

/// The one place a job payload is decoded. A malformed frame throws
/// io::StreamError (BadFrame); a well-formed frame that asks for something
/// invalid throws std::invalid_argument (BadRequest).
JobRequest parse_request(FrameType type,
                         std::span<const std::uint8_t> payload) {
  io::ByteReader r(payload);
  JobRequest req;
  req.type = type;
  req.priority = r.get<std::uint8_t>() != 0;
  req.deadline_ms = r.get<std::uint32_t>();
  SeriesSpec& spec = req.spec;
  if (carries_field(type)) {
    if (type == FrameType::CompressSeries) {
      spec.series = r.get_string();
      spec.keyframe_interval = r.get<std::uint32_t>();
    }
    spec.engine = r.get_string();
    spec.budget = r.get_string();
    spec.mode = r.get_string();
    spec.value = r.get<double>();
    spec.tile.resize(r.get<std::uint8_t>());
    for (std::size_t& t : spec.tile)
      t = static_cast<std::size_t>(r.get<std::uint64_t>());
    req.scalar = r.get<std::uint8_t>();
    spec.dims.resize(r.get<std::uint8_t>());
    req.count = 1;
    for (std::size_t& d : spec.dims) {
      const std::uint64_t extent = r.get<std::uint64_t>();
      d = static_cast<std::size_t>(extent);
      if (!checked_mul(req.count, extent, &req.count))
        throw std::invalid_argument("dims product overflows");
    }
  }
  req.data = r.get_blob_view();
  r.expect_end();
  if (carries_field(type)) {
    if (req.scalar > 1) throw std::invalid_argument("unknown scalar type");
    const std::size_t elem = req.scalar == 1 ? sizeof(double) : sizeof(float);
    if (req.data.size() % elem != 0 || req.data.size() / elem != req.count)
      throw std::invalid_argument("dims do not match the value payload size");
    if (type == FrameType::CompressSeries && spec.series.empty())
      throw std::invalid_argument("empty series name");
  }
  return req;
}

/// The request's values as a typed vector (the payload is only
/// byte-aligned, and Source::memory borrows a typed span).
template <typename T>
std::vector<T> values_of(const JobRequest& req) {
  return io::ByteReader(req.data).get_array<T>(req.count);
}

/// The report fields both compress Replies start with.
void put_report(io::ByteWriter& w, const CompressReport& report) {
  w.put<std::uint64_t>(report.value_count);
  w.put<std::uint64_t>(report.compressed_bytes);
  w.put<double>(report.achieved_psnr_db);
  w.put<double>(report.bit_rate);
  w.put<std::uint64_t>(report.block_count);
  w.put<std::uint8_t>(static_cast<std::uint8_t>(report.tile.size()));
  for (const std::size_t t : report.tile) w.put<std::uint64_t>(t);
  w.put_blob(report.archive);
}

}  // namespace

struct Server::Impl {
  ServerOptions options;
  std::size_t threads = 0;  ///< resolved worker cap

  int listen_fd = -1;
  int control_rd = -1, control_wr = -1;  ///< signal-safe command bytes
  int stop_rd = -1, stop_wr = -1;  ///< write end closed = drain broadcast

  Metrics metrics;
  parallel::WorkQueue queue;
  std::atomic<bool> stopping{false};
  std::atomic<std::uint64_t> served{0};

  // Scheduler: drains `queue` whenever handlers have enqueued work.
  std::mutex scheduler_mutex;
  std::condition_variable scheduler_cv;
  bool scheduler_stop = false;
  std::thread scheduler;

  // Persistent per-series temporal sessions (CompressSeries). Each entry
  // owns the series' previous reconstruction; its mutex serializes pushes
  // for that one series (frames are ordered) while distinct series still
  // compress concurrently. Entries live until the server exits — the
  // reconstruction IS the chain state and cannot be rebuilt server-side.
  struct SeriesEntry {
    std::string signature;  ///< the non-name spec fields, fixed for life
    std::mutex mutex;
    TimeSeriesSession session;
    SeriesEntry(std::string sig, Target target, TimeSeriesOptions topts)
        : signature(std::move(sig)),
          session(std::move(target), std::move(topts)) {}
  };
  std::mutex series_mutex;
  std::map<std::string, std::unique_ptr<SeriesEntry>> series_sessions;

  struct Connection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };
  std::mutex connections_mutex;
  std::list<Connection> connections;

  ~Impl() {
    close_quietly(listen_fd);
    close_quietly(control_rd);
    close_quietly(control_wr);
    close_quietly(stop_rd);
    close_quietly(stop_wr);
    if (!options.endpoint.socket_path.empty())
      ::unlink(options.endpoint.socket_path.c_str());
  }

  // -- setup ---------------------------------------------------------------

  void bind_and_listen() {
    const Endpoint& ep = options.endpoint;
    const bool unix_socket = !ep.socket_path.empty();
    if (unix_socket == (ep.tcp_port != 0))
      throw std::invalid_argument(
          "fpsnrd: set exactly one of socket_path or tcp_port");
    if (unix_socket) {
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      if (ep.socket_path.size() >= sizeof(addr.sun_path))
        throw std::invalid_argument("fpsnrd: socket path too long: " +
                                    ep.socket_path);
      std::strncpy(addr.sun_path, ep.socket_path.c_str(),
                   sizeof(addr.sun_path) - 1);
      listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (listen_fd < 0)
        throw std::runtime_error(std::string("fpsnrd: socket: ") +
                                 std::strerror(errno));
      if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                 sizeof(addr)) < 0) {
        // A stale socket file from a crashed server binds EADDRINUSE even
        // though nothing listens; reclaim it only when a connect probe
        // confirms no live server answers.
        if (errno == EADDRINUSE && !path_is_live(addr)) {
          ::unlink(ep.socket_path.c_str());
          if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)) == 0)
            goto bound;
        }
        const int err = errno;
        throw std::runtime_error("fpsnrd: bind " + ep.socket_path + ": " +
                                 std::strerror(err));
      }
    } else {
      listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (listen_fd < 0)
        throw std::runtime_error(std::string("fpsnrd: socket: ") +
                                 std::strerror(errno));
      const int one = 1;
      ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback only
      addr.sin_port = htons(ep.tcp_port);
      if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                 sizeof(addr)) < 0) {
        const int err = errno;
        throw std::runtime_error("fpsnrd: bind 127.0.0.1:" +
                                 std::to_string(ep.tcp_port) + ": " +
                                 std::strerror(err));
      }
    }
  bound:
    if (::listen(listen_fd, 64) < 0)
      throw std::runtime_error(std::string("fpsnrd: listen: ") +
                               std::strerror(errno));
  }

  static bool path_is_live(const sockaddr_un& addr) {
    const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (probe < 0) return true;  // cannot prove it is stale — keep it
    const bool live =
        ::connect(probe, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0;
    close_quietly(probe);
    return live;
  }

  void make_pipes() {
    int ctl[2], stp[2];
    if (::pipe(ctl) < 0 || ::pipe(stp) < 0)
      throw std::runtime_error(std::string("fpsnrd: pipe: ") +
                               std::strerror(errno));
    control_rd = ctl[0];
    control_wr = ctl[1];
    stop_rd = stp[0];
    stop_wr = stp[1];
  }

  /// Options of the Session a request runs on. A Session holds only its
  /// resolved options, so each request builds its own and nothing the
  /// client picks outlives the request. Decompress and inspect take the
  /// default spec: archives name their own codec and tiles.
  SessionOptions session_options(const SeriesSpec& spec) const {
    SessionOptions so;
    so.threads = threads;
    so.engine = spec.engine;
    so.budget = spec.budget;
    so.tile = TileShape(spec.tile);
    return so;
  }

  // -- scheduler -----------------------------------------------------------

  void scheduler_loop() {
    for (;;) {
      {
        std::unique_lock lock(scheduler_mutex);
        scheduler_cv.wait(
            lock, [&] { return scheduler_stop || queue.pending() > 0; });
        if (scheduler_stop && queue.pending() == 0) return;
      }
      try {
        queue.drain(threads);
      } catch (const std::exception& e) {
        // Jobs report their own failures through promises; anything that
        // escapes the drain is a service bug worth a trace, not a crash.
        std::fprintf(stderr, "fpsnrd: drain error: %s\n", e.what());
      }
    }
  }

  void enqueue(parallel::WorkQueue::Task task,
               parallel::WorkQueue::TaskOptions task_options) {
    queue.push(std::move(task), std::move(task_options));
    {
      std::lock_guard lock(scheduler_mutex);
    }
    scheduler_cv.notify_one();
  }

  // -- request handling ----------------------------------------------------

  /// The scheduling attributes of a parsed job request.
  static parallel::WorkQueue::TaskOptions scheduling_of(
      const JobRequest& req, std::shared_ptr<std::promise<JobResult>> promise,
      Metrics& metrics) {
    parallel::WorkQueue::TaskOptions opts;
    opts.priority = req.priority;
    if (req.deadline_ms > 0) {
      opts.deadline = std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(req.deadline_ms);
      opts.on_expired = [promise = std::move(promise), &metrics] {
        metrics.rejected_deadline.fetch_add(1, std::memory_order_relaxed);
        promise->set_value({false, ErrorCode::DeadlineExpired,
                            "deadline expired before the job started", {}});
      };
    }
    return opts;
  }

  JobResult run_compress(const JobRequest& req) {
    try {
      const SeriesSpec& spec = req.spec;
      const Target target = make_target(spec.mode, spec.value);
      const Session session(session_options(spec));
      const auto start = std::chrono::steady_clock::now();
      CompressReport report;
      if (req.scalar == 1) {
        const std::vector<double> typed = values_of<double>(req);
        report = session.compress(
            Source::memory(std::span<const double>(typed), spec.dims), target,
            Sink::memory());
      } else {
        const std::vector<float> typed = values_of<float>(req);
        report = session.compress(
            Source::memory(std::span<const float>(typed), spec.dims), target,
            Sink::memory());
      }
      const double micros =
          std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - start)
              .count();
      metrics.record_latency(spec.engine, micros);
      metrics.record_psnr(report.achieved_psnr_db);

      io::ByteWriter w;
      put_report(w, report);
      return {true, ErrorCode::Internal, "", w.take()};
    } catch (const std::invalid_argument& e) {
      return {false, ErrorCode::BadRequest, e.what(), {}};
    } catch (const std::exception& e) {
      return {false, ErrorCode::Internal, e.what(), {}};
    }
  }

  JobResult run_compress_series(const JobRequest& req) {
    try {
      const SeriesSpec& spec = req.spec;
      // Everything but the snapshot values is fixed for a series' lifetime
      // — a mid-chain re-tile or retarget would desynchronize every
      // downstream decoder, so a mismatch is a request error, never a
      // silent new session.
      std::string signature =
          spec.engine + '|' + spec.budget + '|' + spec.mode + '|' +
          std::to_string(spec.value) + '|' +
          std::to_string(spec.keyframe_interval) + '|' +
          std::to_string(static_cast<int>(req.scalar)) + '|';
      for (const std::size_t t : spec.tile)
        signature += std::to_string(t) + 'x';
      signature += '|';
      for (const std::size_t d : spec.dims)
        signature += std::to_string(d) + 'x';

      SeriesEntry* entry = nullptr;
      {
        std::lock_guard lock(series_mutex);
        if (const auto it = series_sessions.find(spec.series);
            it != series_sessions.end()) {
          entry = it->second.get();
        } else {
          TimeSeriesOptions topts;
          topts.session = session_options(spec);
          topts.series = spec.series;
          topts.keyframe_interval = spec.keyframe_interval;
          // The client ships each frame; the daemon keeps only the
          // reconstruction the chain needs.
          topts.keep_archives = false;
          entry =
              series_sessions
                  .emplace(spec.series,
                           std::make_unique<SeriesEntry>(
                               signature, make_target(spec.mode, spec.value),
                               std::move(topts)))
                  .first->second.get();
        }
      }
      // Serialize pushes for this one series; entry pointers are stable
      // (unique_ptr values, entries never erased).
      std::lock_guard frame_lock(entry->mutex);
      if (entry->signature != signature)
        return {false, ErrorCode::BadRequest,
                "series '" + spec.series +
                    "' is open with different parameters (engine, budget, "
                    "target, tile, keyframe interval, scalar, and dims are "
                    "fixed for a series' lifetime)",
                {}};

      Field snapshot;
      snapshot.dims = spec.dims;
      if (req.scalar == 1)
        snapshot.f64 = values_of<double>(req);
      else
        snapshot.f32 = values_of<float>(req);
      const auto start = std::chrono::steady_clock::now();
      const SnapshotRecord rec = entry->session.push(snapshot);
      const double micros =
          std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - start)
              .count();
      metrics.record_latency(spec.engine, micros);
      metrics.record_psnr(rec.report.achieved_psnr_db);

      io::ByteWriter w;
      put_report(w, rec.report);
      w.put<std::uint64_t>(rec.timestep);
      w.put<std::uint8_t>(rec.keyframe ? 1 : 0);
      w.put<std::uint64_t>(rec.temporal_blocks);
      return {true, ErrorCode::Internal, "", w.take()};
    } catch (const std::invalid_argument& e) {
      return {false, ErrorCode::BadRequest, e.what(), {}};
    } catch (const std::exception& e) {
      return {false, ErrorCode::Internal, e.what(), {}};
    }
  }

  // A corrupt archive inside a well-formed frame is the job's fault:
  // every failure below is BadRequest.
  JobResult run_decompress(const JobRequest& req) {
    try {
      const Session session(session_options(SeriesSpec{}));
      const Field field = session.decompress(Source::memory(req.data));
      io::ByteWriter w;
      w.put<std::uint8_t>(field.is_double() ? 1 : 0);
      w.put<std::uint8_t>(static_cast<std::uint8_t>(field.dims.size()));
      for (const std::size_t d : field.dims) w.put<std::uint64_t>(d);
      if (field.is_double())
        w.put_blob(io::bytes_of(std::span<const double>(field.f64)));
      else
        w.put_blob(io::bytes_of(std::span<const float>(field.f32)));
      return {true, ErrorCode::Internal, "", w.take()};
    } catch (const std::exception& e) {
      return {false, ErrorCode::BadRequest, e.what(), {}};
    }
  }

  JobResult run_inspect(const JobRequest& req) {
    try {
      const Session session(session_options(SeriesSpec{}));
      const Inspection info = session.inspect(Source::memory(req.data));
      std::ostringstream out;
      out << "container: "
          << (info.block_container
                  ? "block-parallel (FPBK v" + std::to_string(info.version) + ")"
                  : "flat stream")
          << "\n"
          << "codec: " << info.codec << "\n"
          << "control: " << info.target << " = " << info.target_value << "\n"
          << "rank: " << info.dims.size() << "\n";
      out << "extents:";
      for (const std::size_t d : info.dims) out << " " << d;
      out << "\n"
          << "blocks: " << info.block_count << " x tile";
      for (std::size_t t = 0; t < info.tile.size(); ++t)
        out << (t ? "x" : " ") << info.tile[t];
      out << "\n"
          << "value_range: " << info.value_range << "\n";
      if (!std::isnan(info.achieved_psnr_db))
        out << "achieved_psnr_db: " << std::fixed << std::setprecision(6)
            << info.achieved_psnr_db << "\n";
      out << "archive_bytes: " << info.archive_bytes << "\n";
      io::ByteWriter w;
      w.put_string(out.str());
      return {true, ErrorCode::Internal, "", w.take()};
    } catch (const std::exception& e) {
      return {false, ErrorCode::BadRequest, e.what(), {}};
    }
  }

  /// Serve one connection until EOF, a protocol error, or drain.
  void handle_connection(int fd) {
    metrics.connections_total.fetch_add(1, std::memory_order_relaxed);
    metrics.connections_open.fetch_add(1, std::memory_order_relaxed);
    try {
      serve_requests(fd);
    } catch (...) {
      // Peer vanished or the stream broke mid-response; nothing to answer.
    }
    close_quietly(fd);
    metrics.connections_open.fetch_sub(1, std::memory_order_relaxed);
  }

  void serve_requests(int fd) {
    for (;;) {
      // Wait for either a request or the drain broadcast. Once draining,
      // serve only requests that are ALREADY readable — everything the
      // client managed to send before the drain — then close.
      pollfd fds[2] = {{fd, POLLIN, 0}, {stop_rd, POLLIN, 0}};
      if (::poll(fds, 2, -1) < 0) {
        if (errno == EINTR) continue;
        return;
      }
      const bool readable = (fds[0].revents & (POLLIN | POLLHUP)) != 0;
      if (!readable && stopping.load(std::memory_order_acquire)) return;
      if (!readable) continue;

      wire::FrameHeader header;
      try {
        if (!wire::read_frame_header(fd, &header)) return;  // clean EOF
      } catch (const wire::WireError&) {
        metrics.disconnects_mid_request.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      if (header.magic != kFrameMagic) {
        metrics.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        wire::send_error(fd, ErrorCode::BadMagic,
                         "frame does not start with FPSD");
        return;  // stream alignment is lost — close
      }
      if (header.length > options.max_frame_bytes) {
        metrics.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        wire::send_error(fd, ErrorCode::Oversized,
                         "frame length " + std::to_string(header.length) +
                             " exceeds max_frame_bytes " +
                             std::to_string(options.max_frame_bytes));
        return;  // the declared payload will never be read — close
      }
      const bool job = header.type == FrameType::Compress ||
                       header.type == FrameType::CompressSeries ||
                       header.type == FrameType::Decompress ||
                       header.type == FrameType::Inspect;
      if (!job && header.type != FrameType::Ping &&
          header.type != FrameType::Stats &&
          header.type != FrameType::Shutdown) {
        metrics.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        wire::send_error(fd, ErrorCode::BadFrame,
                         "unknown request type " +
                             std::to_string(static_cast<int>(header.type)));
        return;
      }

      // Admission control BEFORE buffering the payload: a rejected request
      // is skipped in bounded chunks so the connection stays frame-aligned
      // and usable.
      if (job) {
        const std::uint64_t in_flight =
            metrics.in_flight_bytes.load(std::memory_order_relaxed);
        if (in_flight + header.length > options.max_in_flight_bytes) {
          metrics.rejected_overloaded.fetch_add(1, std::memory_order_relaxed);
          try {
            wire::discard_exact(fd, header.length);
          } catch (const wire::WireError&) {
            metrics.disconnects_mid_request.fetch_add(
                1, std::memory_order_relaxed);
            return;
          }
          wire::send_error(fd, ErrorCode::Overloaded,
                           "in-flight byte budget exhausted (" +
                               std::to_string(in_flight) + " of " +
                               std::to_string(options.max_in_flight_bytes) +
                               " in use)");
          continue;
        }
      }

      std::vector<std::uint8_t> payload(
          static_cast<std::size_t>(header.length));
      try {
        if (header.length > 0 &&
            !wire::read_exact(fd, payload.data(), payload.size()))
          throw wire::WireError("eof");
      } catch (const wire::WireError&) {
        metrics.disconnects_mid_request.fetch_add(1, std::memory_order_relaxed);
        return;  // peer died mid-request: nothing to answer
      }
      metrics.bytes_in.fetch_add(header.length, std::memory_order_relaxed);
      metrics.requests_total.fetch_add(1, std::memory_order_relaxed);

      std::vector<std::uint8_t> reply;
      bool close_after = false;
      switch (header.type) {
        case FrameType::Ping:
          metrics.requests_ping.fetch_add(1, std::memory_order_relaxed);
          break;
        case FrameType::Stats: {
          metrics.requests_stats.fetch_add(1, std::memory_order_relaxed);
          io::ByteWriter w;
          w.put_string(metrics.render(queue.pending()));
          reply = w.take();
          break;
        }
        case FrameType::Shutdown:
          request_shutdown_impl();
          close_after = true;
          break;
        default: {  // Compress / CompressSeries / Decompress / Inspect
          if (header.type == FrameType::Compress)
            metrics.requests_compress.fetch_add(1, std::memory_order_relaxed);
          else if (header.type == FrameType::CompressSeries)
            metrics.requests_series.fetch_add(1, std::memory_order_relaxed);
          else if (header.type == FrameType::Decompress)
            metrics.requests_decompress.fetch_add(1, std::memory_order_relaxed);
          else
            metrics.requests_inspect.fetch_add(1, std::memory_order_relaxed);

          const JobResult result = dispatch_job(header.type, std::move(payload));
          if (!result.ok) {
            metrics.request_errors.fetch_add(
                result.code == ErrorCode::DeadlineExpired ? 0 : 1,
                std::memory_order_relaxed);
            wire::send_error(fd, result.code, result.message);
            continue;
          }
          reply = std::move(result.payload);
          break;
        }
      }
      metrics.bytes_out.fetch_add(reply.size(), std::memory_order_relaxed);
      wire::send_frame(fd, FrameType::Reply, reply);
      served.fetch_add(1, std::memory_order_relaxed);
      if (close_after) return;
    }
  }

  /// Parse the request, admit the payload bytes, queue the job, and wait
  /// for its result.
  JobResult dispatch_job(FrameType type, std::vector<std::uint8_t> payload) {
    const auto shared_payload =
        std::make_shared<const std::vector<std::uint8_t>>(std::move(payload));
    JobRequest request;
    try {
      request = parse_request(type, *shared_payload);
    } catch (const io::StreamError& e) {
      return {false, ErrorCode::BadFrame, e.what(), {}};
    } catch (const std::invalid_argument& e) {
      return {false, ErrorCode::BadRequest, e.what(), {}};
    }

    const auto promise = std::make_shared<std::promise<JobResult>>();
    auto future = promise->get_future();
    parallel::WorkQueue::TaskOptions task_options =
        scheduling_of(request, promise, metrics);

    const std::uint64_t admitted = shared_payload->size();
    metrics.in_flight_bytes.fetch_add(admitted, std::memory_order_relaxed);
    enqueue(
        // `request` borrows from the payload the task keeps alive.
        [this, shared_payload, request = std::move(request), promise] {
          JobResult result;
          switch (request.type) {
            case FrameType::Compress:
              result = run_compress(request);
              break;
            case FrameType::CompressSeries:
              result = run_compress_series(request);
              break;
            case FrameType::Decompress:
              result = run_decompress(request);
              break;
            default:
              result = run_inspect(request);
              break;
          }
          promise->set_value(std::move(result));
        },
        std::move(task_options));
    JobResult result = future.get();
    metrics.in_flight_bytes.fetch_sub(admitted, std::memory_order_relaxed);
    return result;
  }

  // -- accept loop / lifecycle ---------------------------------------------

  void request_shutdown_impl() {
    const char byte = 'q';
    // Async-signal-safe: a single write syscall, no locks, no allocation.
    (void)!::write(control_wr, &byte, 1);
  }

  void reap_connections(bool join_all) {
    std::lock_guard lock(connections_mutex);
    for (auto it = connections.begin(); it != connections.end();) {
      if (join_all || it->done.load(std::memory_order_acquire)) {
        if (it->thread.joinable()) it->thread.join();
        it = connections.erase(it);
      } else {
        ++it;
      }
    }
  }

  int run() {
    scheduler = std::thread([this] { scheduler_loop(); });
    for (;;) {
      pollfd fds[2] = {{listen_fd, POLLIN, 0}, {control_rd, POLLIN, 0}};
      if (::poll(fds, 2, -1) < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (fds[1].revents & POLLIN) {
        char byte = 0;
        if (::read(control_rd, &byte, 1) == 1 && byte == 'u') {
          const std::string text = metrics.render(queue.pending());
          std::fprintf(stderr, "fpsnrd: stats\n%s", text.c_str());
        } else {
          break;  // 'q' (or control pipe failure): begin graceful drain
        }
      }
      if (fds[0].revents & POLLIN) {
        const int conn = ::accept(listen_fd, nullptr, nullptr);
        if (conn < 0) continue;
        // Bound mid-frame reads so one stalled peer cannot wedge the drain;
        // between frames the handler blocks in poll(), not read().
        wire::set_socket_options(conn);
        reap_connections(/*join_all=*/false);
        std::lock_guard lock(connections_mutex);
        Connection& c = connections.emplace_back();
        c.fd = conn;
        c.thread = std::thread([this, conn, &c] {
          handle_connection(conn);
          c.done.store(true, std::memory_order_release);
        });
      }
    }

    // Graceful drain: stop accepting, broadcast the stop pipe (handlers
    // wake, serve what is already readable, close), answer everything
    // admitted, then retire the scheduler.
    stopping.store(true, std::memory_order_release);
    close_quietly(std::exchange(listen_fd, -1));
    close_quietly(std::exchange(stop_wr, -1));  // POLLHUP wakes every handler
    reap_connections(/*join_all=*/true);
    {
      std::lock_guard lock(scheduler_mutex);
      scheduler_stop = true;
    }
    scheduler_cv.notify_one();
    scheduler.join();
    if (!options.endpoint.socket_path.empty())
      ::unlink(options.endpoint.socket_path.c_str());
    std::fprintf(stderr, "fpsnrd: drained, %llu request(s) served, exit 0\n",
                 static_cast<unsigned long long>(
                     served.load(std::memory_order_relaxed)));
    return 0;
  }
};

Server::Server(ServerOptions options) : impl_(std::make_unique<Impl>()) {
  impl_->options = std::move(options);
  impl_->threads = impl_->options.threads
                       ? impl_->options.threads
                       : std::max(1u, std::thread::hardware_concurrency());
  impl_->make_pipes();
  impl_->bind_and_listen();
}

Server::~Server() = default;

int Server::run() { return impl_->run(); }

void Server::request_shutdown() { impl_->request_shutdown_impl(); }

void Server::request_stats_dump() {
  const char byte = 'u';
  (void)!::write(impl_->control_wr, &byte, 1);
}

std::string Server::stats() const {
  return impl_->metrics.render(impl_->queue.pending());
}

}  // namespace fpsnr::service

#else  // _WIN32

namespace fpsnr::service {

struct Server::Impl {};

Server::Server(ServerOptions) {
  throw std::runtime_error("fpsnrd requires POSIX sockets");
}
Server::~Server() = default;
int Server::run() { return 1; }
void Server::request_shutdown() {}
void Server::request_stats_dump() {}
std::string Server::stats() const { return {}; }

}  // namespace fpsnr::service

#endif
