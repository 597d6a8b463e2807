// Tests for fpsnrd (fpsnr::service) — the long-lived compression daemon.
//
// Covers the wire contract end to end: byte-identity of socket archives
// against in-process Session output for every engine x target mode,
// protocol corruption (truncated frames, oversized lengths, bad magic,
// mid-request disconnects -> typed errors, never a crash or a hang),
// admission control, deadline expiry, and the graceful-drain guarantee
// (every admitted request answered; run() returns 0).
#include "fpsnr/service.h"

// The daemon is POSIX-sockets only; on Windows this compiles to an empty
// (passing) binary rather than pretending.
#if !defined(_WIN32)

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fpsnr/session.h"
#include "fpsnr/timeseries.h"
#include "service/wire.h"

namespace {

using namespace fpsnr;
namespace fs = std::filesystem;

std::string unique_socket_path(const std::string& tag) {
  // Keep it short: sun_path caps out around 108 bytes.
  return (fs::temp_directory_path() /
          ("fpsnrd_" + tag + "_" + std::to_string(::getpid()) + ".sock"))
      .string();
}

/// A Server running on its own thread, torn down via graceful drain.
struct TestServer {
  std::optional<service::Server> server;
  std::thread runner;
  int exit_code = -1;
  std::string path;

  void start(const std::string& tag, service::ServerOptions opts = {}) {
    path = unique_socket_path(tag);
    ::unlink(path.c_str());
    opts.endpoint.socket_path = path;
    server.emplace(std::move(opts));  // binds + listens in the ctor
    runner = std::thread([this] { exit_code = server->run(); });
  }

  void stop() {
    if (server && runner.joinable()) {
      server->request_shutdown();
      runner.join();
    }
  }

  ~TestServer() {
    stop();
    ::unlink(path.c_str());
  }
};

/// Raw client socket for protocol-corruption tests (bypasses Client).
struct RawConn {
  int fd = -1;

  explicit RawConn(const std::string& path) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("socket() failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
      throw std::runtime_error(std::string("connect() failed: ") +
                               std::strerror(errno));
  }
  ~RawConn() {
    if (fd >= 0) ::close(fd);
  }

  void send_bytes(const std::vector<std::uint8_t>& bytes) {
    service::wire::write_all(fd, bytes.data(), bytes.size());
  }

  /// Read one frame; nullopt on clean close.
  std::optional<std::pair<service::wire::FrameHeader,
                          std::vector<std::uint8_t>>>
  read_frame() {
    service::wire::FrameHeader header;
    if (!service::wire::read_frame_header(fd, &header)) return std::nullopt;
    std::vector<std::uint8_t> body(static_cast<std::size_t>(header.length));
    if (!body.empty() &&
        !service::wire::read_exact(fd, body.data(), body.size()))
      return std::nullopt;
    return std::make_pair(header, std::move(body));
  }
};

std::vector<std::uint8_t> frame_header(std::uint32_t magic, std::uint16_t type,
                                       std::uint64_t length) {
  io::ByteWriter w;
  w.put<std::uint32_t>(magic);
  w.put<std::uint16_t>(type);
  w.put<std::uint16_t>(0);
  w.put<std::uint64_t>(length);
  return w.take();
}

/// Deterministic test field.
std::vector<float> make_values(std::size_t n) {
  std::vector<float> values(n);
  for (std::size_t i = 0; i < n; ++i)
    values[i] = static_cast<float>(std::sin(static_cast<double>(i) * 0.013) *
                                   50.0 +
                                   static_cast<double>(i % 31));
  return values;
}

service::ErrorCode code_of(const std::vector<std::uint8_t>& body) {
  io::ByteReader r(body);
  return static_cast<service::ErrorCode>(r.get<std::uint16_t>());
}

/// The server's stats() text once it contains `line`, polled for up to
/// ~5 s (a disconnect is counted by its connection handler, which may
/// still be running when the client's next request has been answered);
/// the last text read if it never does.
std::string stats_once_they_contain(const service::Server& server,
                                    const std::string& line) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::string stats = server.stats();
  while (stats.find(line) == std::string::npos &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    stats = server.stats();
  }
  return stats;
}

/// Lower-case hex of a byte run, for pinning wire layouts.
std::string hex(const std::vector<std::uint8_t>& bytes) {
  static const char digits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out += digits[b >> 4];
    out += digits[b & 15];
  }
  return out;
}

/// A one-connection stand-in for fpsnrd: it records the first frame a
/// client sends (header and payload, as raw bytes) and answers it with a
/// Reply frame carrying `reply`.
struct FakeServer {
  std::string path;
  int listen_fd = -1;
  std::thread runner;
  std::vector<std::uint8_t> request;

  FakeServer(const std::string& tag, std::vector<std::uint8_t> reply) {
    path = unique_socket_path(tag);
    ::unlink(path.c_str());
    listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (listen_fd < 0 ||
        ::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
            0 ||
        ::listen(listen_fd, 1) != 0)
      throw std::runtime_error("fake server: cannot listen");
    runner = std::thread([this, reply = std::move(reply)] {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) return;
      try {
        request.resize(service::kFrameHeaderBytes);
        if (service::wire::read_exact(fd, request.data(), request.size())) {
          std::uint64_t length = 0;
          std::memcpy(&length, request.data() + 8, sizeof(length));
          request.resize(request.size() + length);
          if (length > 0)
            service::wire::read_exact(fd, request.data() + 16, length);
          service::wire::send_frame(fd, service::FrameType::Reply, reply);
        }
      } catch (const service::wire::WireError&) {
        // The test's checks on `request` report what arrived.
      }
      ::close(fd);
    });
  }
  FakeServer(const FakeServer&) = delete;
  FakeServer& operator=(const FakeServer&) = delete;
  ~FakeServer() {
    if (runner.joinable()) runner.join();
    ::close(listen_fd);
    ::unlink(path.c_str());
  }
};

}  // namespace

TEST(Service, PingStatsAndGracefulShutdown) {
  TestServer ts;
  ts.start("ping");
  {
    service::Client client({ts.path});
    client.ping();
    const std::string stats = client.stats();
    EXPECT_NE(stats.find("requests_total:"), std::string::npos);
    EXPECT_NE(stats.find("queue_depth:"), std::string::npos);
    EXPECT_NE(ts.server->stats().find("requests_ping: 1"), std::string::npos);
  }
  ts.stop();
  EXPECT_EQ(ts.exit_code, 0);
}

TEST(Service, ArchivesAreByteIdenticalToInProcessForEveryEngineAndMode) {
  // The tentpole acceptance bar: for every engine x target mode, the
  // archive a client gets over the socket is byte-for-byte what an
  // in-process Session produces. Combos the Session itself rejects must
  // surface remotely as a typed BadRequest, not a crash or a hang.
  TestServer ts;
  ts.start("matrix");
  service::Client client({ts.path});

  const std::vector<std::size_t> dims = {48, 32};
  const std::vector<float> values = make_values(48 * 32);
  const std::vector<std::string> engines = {
      "sz-lorenzo", "transform-haar", "transform-dct",
      "interp",     "zfpr",           "store"};
  const std::vector<std::pair<std::string, double>> modes = {
      {"psnr", 70.0}, {"abs", 0.05},    {"rel", 1e-3},
      {"pwrel", 1e-2}, {"nrmse", 1e-3}, {"rate", 8.0}};

  for (const auto& engine : engines) {
    for (const auto& [mode, value] : modes) {
      SCOPED_TRACE(engine + " / " + mode);
      std::vector<std::uint8_t> expected;
      bool rejected = false;
      try {
        SessionOptions so;
        so.engine = engine;
        so.threads = 2;
        const Session session{std::move(so)};
        expected = session
                       .compress(Source::memory(std::span<const float>(values),
                                                dims),
                                 make_target(mode, value), Sink::memory())
                       .archive;
      } catch (const std::invalid_argument&) {
        rejected = true;  // the combo is invalid in-process too
      }

      service::CompressSpec spec;
      spec.engine = engine;
      spec.mode = mode;
      spec.value = value;
      spec.dims = dims;
      if (rejected) {
        try {
          client.compress(std::span<const float>(values), spec);
          FAIL() << "server accepted a combo the Session rejects";
        } catch (const service::ServiceError& e) {
          EXPECT_EQ(e.code(), service::ErrorCode::BadRequest);
        }
        continue;
      }
      const service::CompressResult r =
          client.compress(std::span<const float>(values), spec);
      EXPECT_EQ(r.archive, expected);
      EXPECT_EQ(r.value_count, values.size());
    }
  }
}

TEST(Service, ExplicitTileShapeCrossesTheWire) {
  // A non-slab full-rank tile requested by the client must drive the
  // server's plan (byte-identity with an in-process Session using the
  // same TileShape) and echo back in the result's tile geometry.
  TestServer ts;
  ts.start("tile");
  service::Client client({ts.path});

  const std::vector<std::size_t> dims = {48, 32};
  const std::vector<float> values = make_values(48 * 32);
  const std::vector<std::size_t> tile = {10, 12};

  SessionOptions so;
  so.threads = 2;
  so.tile = TileShape(tile);
  const Session session{std::move(so)};
  const auto expected =
      session
          .compress(Source::memory(std::span<const float>(values), dims),
                    FixedPsnr{70.0}, Sink::memory())
          .archive;

  service::CompressSpec spec;
  spec.mode = "psnr";
  spec.value = 70.0;
  spec.dims = dims;
  spec.tile = tile;
  const service::CompressResult r =
      client.compress(std::span<const float>(values), spec);
  EXPECT_EQ(r.archive, expected);
  EXPECT_EQ(r.tile, tile);
  EXPECT_EQ(r.block_count, 5u * 3u);  // ceil(48/10) x ceil(32/12)
}

TEST(Service, EveryTileShapeIsAnsweredWithItsOwnTile) {
  // Each request builds its own Session from its spec, so a stream of
  // distinct tile shapes is answered tile for tile, byte-identical to an
  // in-process Session with the same TileShape.
  TestServer ts;
  ts.start("tiles");
  service::Client client({ts.path});

  const std::vector<std::size_t> dims = {48, 32};
  const std::vector<float> values = make_values(48 * 32);
  for (std::size_t a = 3; a <= 48; a += 5)
    for (std::size_t b = 4; b <= 32; b += 7) {
      const std::vector<std::size_t> tile = {a, b};
      SessionOptions so;
      so.threads = 2;
      so.tile = TileShape(tile);
      const auto expected =
          Session{std::move(so)}
              .compress(Source::memory(std::span<const float>(values), dims),
                        FixedPsnr{70.0}, Sink::memory())
              .archive;

      service::CompressSpec spec;
      spec.mode = "psnr";
      spec.value = 70.0;
      spec.dims = dims;
      spec.tile = tile;
      const service::CompressResult r =
          client.compress(std::span<const float>(values), spec);
      EXPECT_EQ(r.tile, tile);
      EXPECT_EQ(r.archive, expected) << "tile " << a << "x" << b;
    }
}

TEST(Service, RemoteDecompressMatchesInProcess) {
  TestServer ts;
  ts.start("roundtrip");
  service::Client client({ts.path});

  const std::vector<std::size_t> dims = {32, 32};
  const std::vector<float> values = make_values(32 * 32);
  service::CompressSpec spec;
  spec.mode = "psnr";
  spec.value = 75.0;
  spec.dims = dims;
  const auto r = client.compress(std::span<const float>(values), spec);

  const Field remote =
      client.decompress(std::span<const std::uint8_t>(r.archive));
  const Session session;
  const Field local = session.decompress(
      Source::memory(std::span<const std::uint8_t>(r.archive)));
  ASSERT_EQ(remote.f32.size(), local.f32.size());
  EXPECT_EQ(std::memcmp(remote.f32.data(), local.f32.data(),
                        local.f32.size() * sizeof(float)),
            0);
  EXPECT_EQ(remote.dims, local.dims);

  const std::string info =
      client.inspect(std::span<const std::uint8_t>(r.archive));
  EXPECT_NE(info.find("codec: sz-lorenzo"), std::string::npos);
}

TEST(Service, DoublePrecisionRoundTrip) {
  TestServer ts;
  ts.start("f64");
  service::Client client({ts.path});

  std::vector<double> values(64 * 16);
  for (std::size_t i = 0; i < values.size(); ++i)
    values[i] = std::cos(static_cast<double>(i) * 0.01) * 1e3;
  service::CompressSpec spec;
  spec.mode = "psnr";
  spec.value = 80.0;
  spec.dims = {64, 16};
  const auto r = client.compress(std::span<const double>(values), spec);

  const Field remote =
      client.decompress(std::span<const std::uint8_t>(r.archive));
  const Session session;
  const Field local = session.decompress(
      Source::memory(std::span<const std::uint8_t>(r.archive)));
  ASSERT_TRUE(remote.is_double());
  ASSERT_EQ(remote.f64.size(), local.f64.size());
  EXPECT_EQ(std::memcmp(remote.f64.data(), local.f64.data(),
                        local.f64.size() * sizeof(double)),
            0);
}

TEST(Service, CompressSeriesChainIsByteIdenticalToInProcess) {
  // The daemon keeps one TimeSeriesSession per series name; each frame a
  // client pushes must come back byte-for-byte what an in-process session
  // with the same options would emit, and the resulting archives must
  // decode as one chain.
  TestServer ts;
  ts.start("series");
  service::Client client({ts.path});

  const std::vector<std::size_t> dims = {32, 24};
  std::vector<float> values = make_values(32 * 24);

  TimeSeriesOptions topts;
  topts.series = "wire-series";
  topts.keyframe_interval = 2;
  TimeSeriesSession local(FixedPsnr{70.0}, std::move(topts));

  service::SeriesSpec spec;
  spec.series = "wire-series";
  spec.keyframe_interval = 2;
  spec.mode = "psnr";
  spec.value = 70.0;
  spec.dims = dims;

  TimeSeriesDecoder dec;
  for (std::size_t t = 0; t < 4; ++t) {
    SCOPED_TRACE("frame " + std::to_string(t));
    Field snap;
    snap.dims = dims;
    snap.f32 = values;
    const SnapshotRecord expected = local.push(snap);

    const service::SeriesResult r =
        client.compress_series(std::span<const float>(values), spec);
    EXPECT_EQ(r.archive, expected.report.archive);
    EXPECT_EQ(r.timestep, t);
    EXPECT_EQ(r.keyframe, t % 2 == 0);
    EXPECT_EQ(r.temporal_blocks, expected.temporal_blocks);
    EXPECT_EQ(r.value_count, values.size());

    // The wire archives form a decodable chain.
    const Field frame = dec.feed(std::span<const std::uint8_t>(r.archive));
    EXPECT_EQ(frame.f32.size(), values.size());

    // Evolve gently so delta frames have something to predict.
    for (std::size_t i = 0; i < values.size(); ++i)
      values[i] += 0.02f * std::sin(static_cast<float>(i) * 0.05f);
  }
  EXPECT_EQ(dec.frames(), 4u);
}

TEST(Service, SeriesSpecIsLockedForItsLifetime) {
  // A series' parameters are fixed at first push; a later request for the
  // same name with a different target (or scalar type) is a BadRequest,
  // and the original chain keeps working afterwards.
  TestServer ts;
  ts.start("serieslock");
  service::Client client({ts.path});

  const std::vector<std::size_t> dims = {24, 16};
  const std::vector<float> values = make_values(24 * 16);
  service::SeriesSpec spec;
  spec.series = "locked";
  spec.mode = "psnr";
  spec.value = 70.0;
  spec.dims = dims;
  const auto first = client.compress_series(std::span<const float>(values), spec);
  EXPECT_EQ(first.timestep, 0u);
  EXPECT_TRUE(first.keyframe);

  auto changed = spec;
  changed.value = 75.0;
  try {
    client.compress_series(std::span<const float>(values), changed);
    FAIL() << "server accepted a target change mid-series";
  } catch (const service::ServiceError& e) {
    EXPECT_EQ(e.code(), service::ErrorCode::BadRequest);
  }

  std::vector<double> dvalues(values.begin(), values.end());
  try {
    client.compress_series(std::span<const double>(dvalues), spec);
    FAIL() << "server accepted a scalar-type change mid-series";
  } catch (const service::ServiceError& e) {
    EXPECT_EQ(e.code(), service::ErrorCode::BadRequest);
  }

  // The rejections did not corrupt the chain: the next matching push is t=1.
  const auto second = client.compress_series(std::span<const float>(values), spec);
  EXPECT_EQ(second.timestep, 1u);
  EXPECT_FALSE(second.keyframe);

  // A different series name is an independent chain.
  auto other = spec;
  other.series = "locked-2";
  other.value = 75.0;
  const auto fresh = client.compress_series(std::span<const float>(values), other);
  EXPECT_EQ(fresh.timestep, 0u);
}

TEST(Service, DoublePrecisionSeriesRoundTrip) {
  TestServer ts;
  ts.start("seriesf64");
  service::Client client({ts.path});

  const std::vector<std::size_t> dims = {16, 16};
  std::vector<double> values(16 * 16);
  for (std::size_t i = 0; i < values.size(); ++i)
    values[i] = std::cos(static_cast<double>(i) * 0.03) * 40.0;

  service::SeriesSpec spec;
  spec.series = "f64-series";
  spec.mode = "psnr";
  spec.value = 80.0;
  spec.dims = dims;

  TimeSeriesDecoder dec;
  for (std::size_t t = 0; t < 2; ++t) {
    const auto r = client.compress_series(std::span<const double>(values), spec);
    EXPECT_EQ(r.timestep, t);
    const Field frame = dec.feed(std::span<const std::uint8_t>(r.archive));
    ASSERT_TRUE(frame.is_double());
    EXPECT_EQ(frame.f64.size(), values.size());
    for (auto& v : values) v *= 1.001;
  }
}

TEST(Service, BadMagicGetsTypedErrorAndClose) {
  TestServer ts;
  ts.start("magic");
  {
    RawConn conn(ts.path);
    conn.send_bytes(frame_header(0xDEADBEEFu, 1, 0));
    const auto reply = conn.read_frame();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->first.type, service::FrameType::Error);
    EXPECT_EQ(code_of(reply->second), service::ErrorCode::BadMagic);
    // Stream alignment is lost, so the server closes the connection.
    EXPECT_FALSE(conn.read_frame().has_value());
  }
  // The daemon itself survives a garbage peer.
  service::Client client({ts.path});
  client.ping();
}

TEST(Service, OversizedFrameGetsTypedErrorAndClose) {
  TestServer ts;
  service::ServerOptions opts;
  opts.max_frame_bytes = 1024;
  ts.start("oversized", std::move(opts));
  {
    RawConn conn(ts.path);
    conn.send_bytes(frame_header(
        service::kFrameMagic,
        static_cast<std::uint16_t>(service::FrameType::Compress), 1u << 20));
    const auto reply = conn.read_frame();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(code_of(reply->second), service::ErrorCode::Oversized);
    EXPECT_FALSE(conn.read_frame().has_value());
  }
  service::Client client({ts.path});
  client.ping();
}

TEST(Service, UnknownFrameTypeGetsTypedError) {
  TestServer ts;
  ts.start("unknown");
  RawConn conn(ts.path);
  conn.send_bytes(frame_header(service::kFrameMagic, 99, 0));
  const auto reply = conn.read_frame();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(code_of(reply->second), service::ErrorCode::BadFrame);
}

TEST(Service, TruncatedHeaderThenDisconnectDoesNotKillTheServer) {
  TestServer ts;
  ts.start("trunc");
  {
    RawConn conn(ts.path);
    conn.send_bytes({0x46, 0x50, 0x53});  // 3 of 16 header bytes, then close
  }
  service::Client client({ts.path});
  client.ping();
  EXPECT_NE(stats_once_they_contain(*ts.server, "disconnects_mid_request: 1")
                .find("disconnects_mid_request: 1"),
            std::string::npos);
}

TEST(Service, MidPayloadDisconnectDoesNotKillTheServer) {
  TestServer ts;
  ts.start("midreq");
  {
    RawConn conn(ts.path);
    conn.send_bytes(frame_header(
        service::kFrameMagic,
        static_cast<std::uint16_t>(service::FrameType::Compress), 4096));
    conn.send_bytes(std::vector<std::uint8_t>(64, 0x7f));  // 64 of 4096
  }
  service::Client client({ts.path});
  client.ping();
  EXPECT_NE(stats_once_they_contain(*ts.server, "disconnects_mid_request: 1")
                .find("disconnects_mid_request: 1"),
            std::string::npos);
}

TEST(Service, MalformedJobPayloadGetsTypedErrorNotACrash) {
  // A complete frame whose payload lies about its own layout (truncated
  // fields, bogus blob lengths) must come back as a typed error with the
  // connection still usable — every ByteReader access is bounds-checked.
  TestServer ts;
  ts.start("payload");
  RawConn conn(ts.path);
  const std::vector<std::uint8_t> junk(32, 0xff);
  conn.send_bytes(frame_header(
      service::kFrameMagic,
      static_cast<std::uint16_t>(service::FrameType::Compress), junk.size()));
  conn.send_bytes(junk);
  const auto reply = conn.read_frame();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->first.type, service::FrameType::Error);
  const auto code = code_of(reply->second);
  EXPECT_TRUE(code == service::ErrorCode::BadFrame ||
              code == service::ErrorCode::BadRequest);
  // Same connection, next request: still frame-aligned.
  conn.send_bytes(frame_header(
      service::kFrameMagic,
      static_cast<std::uint16_t>(service::FrameType::Ping), 0));
  const auto pong = conn.read_frame();
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->first.type, service::FrameType::Reply);
}

TEST(Service, WireBytesArePinned) {
  // The request a Client puts on the wire and the Reply layout it reads
  // back, byte for byte. Any change here breaks every deployed peer.
  io::ByteWriter w;
  w.put<std::uint64_t>(4);     // value_count
  w.put<std::uint64_t>(3);     // compressed_bytes
  w.put<double>(61.5);         // achieved_psnr_db
  w.put<double>(6.0);          // bit_rate
  w.put<std::uint64_t>(1);     // block_count
  w.put<std::uint8_t>(1);      // tile rank
  w.put<std::uint64_t>(2);     // tile extent
  const std::vector<std::uint8_t> archive = {0xaa, 0xbb, 0xcc};
  w.put_blob(archive);
  const std::vector<std::uint8_t> reply = w.take();
  EXPECT_EQ(hex(reply),
            "0400000000000000"  // value_count
            "0300000000000000"  // compressed_bytes
            "0000000000c04e40"  // achieved_psnr_db 61.5
            "0000000000001840"  // bit_rate 6.0
            "0100000000000000"  // block_count
            "01" "0200000000000000"           // tile {2}
            "0300000000000000" "aabbcc");     // archive blob

  FakeServer fake("pin", reply);
  service::CompressResult result;
  {
    service::Client client({fake.path});
    service::CompressSpec spec;
    spec.mode = "psnr";
    spec.value = 60.0;
    spec.tile = {2};
    spec.dims = {2, 2};
    const std::vector<float> values = {1.0f, -2.0f, 0.5f, 4.0f};
    service::RequestOptions options;
    options.priority = true;
    options.deadline_ms = 250;
    result = client.compress(std::span<const float>(values), spec, options);
  }
  fake.runner.join();
  EXPECT_EQ(hex(fake.request),
            "46505344" "0200" "0000" "6100000000000000"  // FPSD Compress, 97 B
            "01" "fa000000"                       // priority, deadline 250 ms
            "0a000000" "737a2d6c6f72656e7a6f"     // engine "sz-lorenzo"
            "07000000" "756e69666f726d"           // budget "uniform"
            "04000000" "70736e72"                 // mode "psnr"
            "0000000000004e40"                    // value 60.0
            "01" "0200000000000000"               // tile {2}
            "00" "02" "0200000000000000" "0200000000000000"  // f32, dims 2x2
            "1000000000000000"                    // values blob, 16 B
            "0000803f" "000000c0" "0000003f" "00008040");
  EXPECT_EQ(result.value_count, 4u);
  EXPECT_EQ(result.compressed_bytes, 3u);
  EXPECT_EQ(result.achieved_psnr_db, 61.5);
  EXPECT_EQ(result.bit_rate, 6.0);
  EXPECT_EQ(result.block_count, 1u);
  EXPECT_EQ(result.tile, (std::vector<std::size_t>{2}));
  EXPECT_EQ(result.archive, (std::vector<std::uint8_t>{0xaa, 0xbb, 0xcc}));
}

TEST(Service, BlobLengthThatWrapsIsBadFrame) {
  // A Decompress frame whose archive blob claims 2^64-16 bytes: the length
  // check must not wrap, and a malformed frame is BadFrame, with the
  // connection left frame-aligned.
  TestServer ts;
  ts.start("wrapblob");
  RawConn conn(ts.path);
  io::ByteWriter w;
  w.put<std::uint8_t>(0);                        // priority
  w.put<std::uint32_t>(0);                       // deadline_ms
  w.put<std::uint64_t>(~std::uint64_t{0} - 15);  // blob length 2^64-16
  w.put<std::uint64_t>(0x5a5a5a5a5a5a5a5aull);   // 8 bytes where it starts
  const std::vector<std::uint8_t> payload = w.take();
  conn.send_bytes(frame_header(
      service::kFrameMagic,
      static_cast<std::uint16_t>(service::FrameType::Decompress),
      payload.size()));
  conn.send_bytes(payload);
  const auto reply = conn.read_frame();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->first.type, service::FrameType::Error);
  EXPECT_EQ(code_of(reply->second), service::ErrorCode::BadFrame);
  conn.send_bytes(frame_header(
      service::kFrameMagic,
      static_cast<std::uint16_t>(service::FrameType::Ping), 0));
  const auto pong = conn.read_frame();
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->first.type, service::FrameType::Reply);
}

TEST(Service, GarbageArchiveInAWellFormedFrameIsBadRequest) {
  // The frame parses; the archive inside it does not. That is the job's
  // fault, not the protocol's: BadRequest, not BadFrame.
  TestServer ts;
  ts.start("garbage");
  RawConn conn(ts.path);
  io::ByteWriter w;
  w.put<std::uint8_t>(0);
  w.put<std::uint32_t>(0);
  const std::vector<std::uint8_t> garbage(32, 0x5a);
  w.put_blob(garbage);
  const std::vector<std::uint8_t> payload = w.take();
  conn.send_bytes(frame_header(
      service::kFrameMagic,
      static_cast<std::uint16_t>(service::FrameType::Decompress),
      payload.size()));
  conn.send_bytes(payload);
  const auto reply = conn.read_frame();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->first.type, service::FrameType::Error);
  EXPECT_EQ(code_of(reply->second), service::ErrorCode::BadRequest);
}

TEST(Service, OverloadedRequestsAreRejectedAndTheConnectionSurvives) {
  TestServer ts;
  service::ServerOptions opts;
  opts.max_in_flight_bytes = 64;  // any real compress payload exceeds this
  ts.start("overload", std::move(opts));
  service::Client client({ts.path});

  const std::vector<float> values = make_values(1024);
  service::CompressSpec spec;
  spec.mode = "psnr";
  spec.value = 70.0;
  spec.dims = {32, 32};
  try {
    client.compress(std::span<const float>(values), spec);
    FAIL() << "a 4KiB payload passed a 64-byte admission budget";
  } catch (const service::ServiceError& e) {
    EXPECT_EQ(e.code(), service::ErrorCode::Overloaded);
  }
  // The rejected payload was skipped, not half-read: the same connection
  // still serves the next request.
  client.ping();
  EXPECT_NE(ts.server->stats().find("rejected_overloaded: 1"),
            std::string::npos);
}

TEST(Service, DeadlineExpiredWhileQueuedBehindASlowJob) {
  // threads=1 serializes the queue: a long job holds the lane while a
  // second request with a 1ms deadline waits. By the time the scheduler
  // pops the second job its deadline has passed, so its on_expired path
  // answers with the typed DeadlineExpired error instead of compressing.
  TestServer ts;
  service::ServerOptions opts;
  opts.threads = 1;
  ts.start("deadline", std::move(opts));

  const std::vector<float> big = make_values(4096 * 512);  // a slow compress
  std::thread slow([&] {
    service::Client client({ts.path});
    service::CompressSpec spec;
    spec.mode = "psnr";
    spec.value = 90.0;
    spec.dims = {4096, 512};
    client.compress(std::span<const float>(big), spec);
  });
  // Wait until the server has fully received the slow request (the counter
  // is bumped only after its payload is read), so it is guaranteed to sit
  // ahead of ours in the FIFO. A fixed sleep is not enough: under TSan the
  // 8 MiB upload itself can take longer than any reasonable constant.
  for (int i = 0; i < 2000; ++i) {
    if (ts.server->stats().find("requests_compress: 1") != std::string::npos)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));

  service::Client client({ts.path});
  const std::vector<float> small = make_values(1024);
  service::CompressSpec spec;
  spec.mode = "psnr";
  spec.value = 70.0;
  spec.dims = {32, 32};
  service::RequestOptions ropts;
  ropts.deadline_ms = 1;
  try {
    client.compress(std::span<const float>(small), spec, ropts);
    ADD_FAILURE() << "the queued job beat a 1ms deadline behind a "
                     "multi-hundred-ms compress";
  } catch (const service::ServiceError& e) {
    EXPECT_EQ(e.code(), service::ErrorCode::DeadlineExpired);
  }
  slow.join();
}

TEST(Service, PriorityRequestsJumpTheQueue) {
  // Smoke only (ordering is timing-dependent at the service level; the
  // deterministic lane test lives in test_work_queue): a priority request
  // must complete correctly alongside normal traffic.
  TestServer ts;
  ts.start("priority");
  service::Client client({ts.path});
  const std::vector<float> values = make_values(1024);
  service::CompressSpec spec;
  spec.mode = "psnr";
  spec.value = 70.0;
  spec.dims = {32, 32};
  service::RequestOptions high;
  high.priority = true;
  const auto r = client.compress(std::span<const float>(values), spec, high);
  EXPECT_GT(r.compressed_bytes, 0u);
}

TEST(Service, GracefulDrainUnderConcurrentLoadAnswersEveryAdmittedRequest) {
  // The drain contract: after request_shutdown() mid-load, every client
  // sees, per request, either a complete correct response or a clean
  // close — never a partial frame, never a hang — and run() returns 0.
  TestServer ts;
  ts.start("drain");

  const std::vector<std::size_t> dims = {64, 64};
  const std::vector<float> values = make_values(64 * 64);
  std::vector<std::uint8_t> expected;
  {
    SessionOptions so;
    so.threads = 2;
    const Session session{std::move(so)};
    expected = session
                   .compress(Source::memory(std::span<const float>(values),
                                            dims),
                             FixedPsnr{70.0}, Sink::memory())
                   .archive;
  }

  std::atomic<int> completed{0}, clean_closes{0}, corrupt{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 6; ++c) {
    clients.emplace_back([&] {
      try {
        service::Client client({ts.path});
        for (int i = 0; i < 4; ++i) {
          service::CompressSpec spec;
          spec.mode = "psnr";
          spec.value = 70.0;
          spec.dims = dims;
          const auto r =
              client.compress(std::span<const float>(values), spec);
          if (r.archive == expected)
            completed.fetch_add(1);
          else
            corrupt.fetch_add(1);
        }
      } catch (const service::ServiceError&) {
        // Clean close (or connect refused after the drain began): the
        // request was never admitted, which the contract allows.
        clean_closes.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  ts.server->request_shutdown();
  for (auto& t : clients) t.join();
  ts.stop();

  EXPECT_EQ(ts.exit_code, 0);
  EXPECT_EQ(corrupt.load(), 0) << "a drained response was corrupt";
  EXPECT_GT(completed.load(), 0) << "the server answered nothing before drain";
}

TEST(Service, ShutdownFrameDrainsTheServer) {
  TestServer ts;
  ts.start("shutfr");
  {
    service::Client client({ts.path});
    client.shutdown_server();
  }
  ts.runner.join();
  EXPECT_EQ(ts.exit_code, 0);
}

TEST(Service, StaleSocketFileIsReclaimed) {
  // A socket file left by a crashed daemon (bound, never unlinked, no
  // listener behind it) must not brick the path: the new server probes it,
  // reclaims it, and serves.
  const std::string path = unique_socket_path("stale");
  ::unlink(path.c_str());
  {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    ::close(fd);  // the file stays behind with nothing listening
  }
  TestServer ts;
  service::ServerOptions opts;
  opts.endpoint.socket_path = path;
  ts.path = path;
  ts.server.emplace(std::move(opts));
  ts.runner = std::thread([&] { ts.exit_code = ts.server->run(); });
  service::Client client({path});
  client.ping();
}

#endif  // !defined(_WIN32)
