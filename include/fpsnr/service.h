// fpsnr public API — the fpsnrd compression service.
//
// fpsnrd is the library's long-lived, in-situ shape: simulations emit
// snapshot streams continuously, so compression runs as a resident daemon
// beside them instead of one-shot batch invocations. A Server runs each
// request on an fpsnr::Session behind a length-framed request/response
// protocol on a unix-domain socket (loopback TCP optional), with admission
// control, per-request priority + deadline scheduling, live metrics, and
// graceful drain on shutdown. A Client is the matching blocking connection.
//
// Wire protocol (all integers little-endian):
//
//   frame  := magic:u32 ('FPSD') | type:u16 | flags:u16 (0) | length:u64
//             | payload[length]
//
// Request payloads for Compress/CompressSeries/Decompress/Inspect start
// with the scheduling prefix `priority:u8 | deadline_ms:u32` (deadline 0 = none,
// measured from server receipt). Strings are `len:u32 | bytes`. Every
// request is answered by exactly one Reply or Error frame; an Error
// payload is `code:u16 | message:string`. Archives returned by Compress
// are byte-identical to in-process Session::compress output for the same
// options.
//
// Self-contained: installed under <prefix>/include/fpsnr and includes only
// the C++ standard library. The service is POSIX-only; on other platforms
// the entry points throw.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "fpsnr/session.h"

namespace fpsnr::service {

/// First four payload-frame bytes on the wire: "FPSD".
inline constexpr std::uint32_t kFrameMagic = 0x44535046u;

/// Frame header size in bytes (magic + type + flags + length).
inline constexpr std::size_t kFrameHeaderBytes = 16;

/// Frame types. Requests are client->server; Reply/Error are the two
/// server->client answers (Reply's payload layout depends on the request
/// it answers).
enum class FrameType : std::uint16_t {
  Ping = 1,        ///< liveness probe; empty payload both ways
  Compress = 2,    ///< field in, archive + report out
  Decompress = 3,  ///< archive in, field out
  Inspect = 4,     ///< archive in, rendered metadata out
  Stats = 5,       ///< metrics snapshot as `key: value` lines
  Shutdown = 6,    ///< begin graceful drain; replies before draining
  CompressSeries = 7,  ///< next snapshot of a named series in, v4 frame out
  Reply = 0x80,
  Error = 0x81,
};

/// Typed error codes carried by Error frames. Protocol-level codes
/// (BadMagic/BadFrame/Oversized) also close the connection — the stream
/// can no longer be trusted to be frame-aligned.
enum class ErrorCode : std::uint16_t {
  BadMagic = 1,         ///< frame did not start with kFrameMagic
  BadFrame = 2,         ///< unknown type / malformed or truncated payload
  Oversized = 3,        ///< frame length above the server's max_frame_bytes
  BadRequest = 4,       ///< well-formed frame, invalid job (engine, dims, ...)
  Overloaded = 5,       ///< admission control: in-flight byte cap reached
  DeadlineExpired = 6,  ///< queued past its deadline; job never ran
  ShuttingDown = 7,     ///< server is draining and takes no new work
  Internal = 8,         ///< unexpected server-side failure
};

/// Stable name of an error code ("bad-magic", "overloaded", ...).
std::string_view error_code_name(ErrorCode code);

/// Thrown by Client when the server answers with an Error frame (code()
/// is the typed cause) or the connection itself fails (code() ==
/// ErrorCode::Internal).
class ServiceError : public std::runtime_error {
 public:
  ServiceError(ErrorCode code, const std::string& message)
      : std::runtime_error(message), code_(code) {}
  ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

/// Where a server listens / a client connects. Exactly one of socket_path
/// (unix-domain) or tcp_port (loopback 127.0.0.1) must be set.
struct Endpoint {
  std::string socket_path;
  std::uint16_t tcp_port = 0;
};

struct ServerOptions {
  Endpoint endpoint;
  /// Worker cap for the compression queue (0 = hardware concurrency).
  std::size_t threads = 0;
  /// Hard per-frame payload cap; longer frames are rejected with Oversized
  /// and the connection is closed.
  std::size_t max_frame_bytes = std::size_t{1} << 30;
  /// Admission control: total request-payload bytes admitted (queued or
  /// running) at once. A request that would exceed it is rejected with
  /// Overloaded; smaller bursts simply queue.
  std::size_t max_in_flight_bytes = std::size_t{256} << 20;
};

/// The daemon. The constructor binds and listens (throws on failure — a
/// returned Server is ready to accept), run() serves until shutdown
/// completes. request_shutdown()/request_stats_dump() are async-signal-safe
/// (they write one byte to an internal pipe), so signal handlers may call
/// them directly; on shutdown the server stops accepting, answers every
/// admitted request, flushes, and run() returns 0.
class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Serve until a shutdown request drains the server. Returns the process
  /// exit code (0 = graceful).
  int run();

  void request_shutdown();
  void request_stats_dump();  ///< render metrics to stderr (SIGUSR1 hook)

  /// Rendered metrics snapshot (`key: value` lines, same as a Stats reply).
  std::string stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Per-request scheduling attributes (the wire prefix of job requests).
struct RequestOptions {
  bool priority = false;      ///< jump the server's FIFO lane
  std::uint32_t deadline_ms = 0;  ///< reject if not started in time; 0 = none
};

/// Compression job parameters, mirroring SessionOptions + Target by value
/// (the server builds one Session from them per request).
struct CompressSpec {
  std::string engine = "sz-lorenzo";
  std::string budget = "uniform";
  std::string mode = "fixed-psnr";  ///< target_name() spelling or CLI alias
  double value = 80.0;
  /// Pipeline tile geometry (TileShape::extents semantics: empty = auto
  /// near-cubic, {r} = legacy axis-0 slab). On the wire: rank:u8 followed
  /// by that many u64 extents.
  std::vector<std::size_t> tile;
  std::vector<std::size_t> dims;  ///< C order; must multiply to the count
};

struct CompressResult {
  std::vector<std::uint8_t> archive;
  std::uint64_t value_count = 0;
  std::uint64_t compressed_bytes = 0;
  double achieved_psnr_db = 0.0;
  double bit_rate = 0.0;
  std::uint64_t block_count = 0;
  /// Per-axis tile extents of the emitted container (rank:u8 + u64 each on
  /// the wire).
  std::vector<std::size_t> tile;
};

/// Temporal-compression job parameters. The server keeps one persistent
/// TimeSeriesSession (see fpsnr/timeseries.h) per series name; every
/// CompressSeries request appends the next snapshot to that chain, and the
/// non-name parameters must match the request that opened the series
/// exactly (a mismatch is BadRequest — silently re-tiling mid-chain would
/// desynchronize every downstream decoder). Requests for ONE series are
/// serialized server-side; distinct series compress concurrently.
struct SeriesSpec {
  std::string series = "series";
  /// Spatial keyframe cadence (TimeSeriesOptions::keyframe_interval).
  std::uint32_t keyframe_interval = 8;
  std::string engine = "sz-lorenzo";
  std::string budget = "uniform";
  std::string mode = "fixed-psnr";  ///< target_name() spelling or CLI alias
  double value = 80.0;
  std::vector<std::size_t> tile;  ///< TileShape::extents semantics
  std::vector<std::size_t> dims;  ///< C order; fixed for the whole series
};

/// One frame's outcome: the CompressResult fields plus the frame's chain
/// position. `archive` is the FPBK v4 frame — decode chains of them with a
/// TimeSeriesDecoder.
struct SeriesResult {
  std::vector<std::uint8_t> archive;
  std::uint64_t value_count = 0;
  std::uint64_t compressed_bytes = 0;
  double achieved_psnr_db = 0.0;  ///< measured against the ORIGINAL snapshot
  double bit_rate = 0.0;
  std::uint64_t block_count = 0;
  std::vector<std::size_t> tile;
  std::uint64_t timestep = 0;
  bool keyframe = false;
  std::uint64_t temporal_blocks = 0;  ///< blocks that chose delta mode
};

/// A blocking client connection. Not thread-safe — one in-flight request
/// per Client; open one Client per concurrent stream.
class Client {
 public:
  explicit Client(Endpoint endpoint);  ///< connects; throws on failure
  ~Client();

  Client(Client&&) noexcept;
  Client& operator=(Client&&) noexcept;

  void ping();
  CompressResult compress(std::span<const float> values,
                          const CompressSpec& spec,
                          const RequestOptions& options = {});
  CompressResult compress(std::span<const double> values,
                          const CompressSpec& spec,
                          const RequestOptions& options = {});
  /// Push the next snapshot of spec.series; the server's persistent
  /// per-series session codes it against the previous frame's
  /// reconstruction. Frames come back in push order — feed them to a
  /// TimeSeriesDecoder as a chain.
  SeriesResult compress_series(std::span<const float> values,
                               const SeriesSpec& spec,
                               const RequestOptions& options = {});
  SeriesResult compress_series(std::span<const double> values,
                               const SeriesSpec& spec,
                               const RequestOptions& options = {});
  Field decompress(std::span<const std::uint8_t> archive,
                   const RequestOptions& options = {});
  std::string inspect(std::span<const std::uint8_t> archive,
                      const RequestOptions& options = {});
  std::string stats();
  void shutdown_server();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace fpsnr::service
