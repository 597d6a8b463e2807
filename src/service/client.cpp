// fpsnr::service::Client — the blocking side of the fpsnrd protocol.
// One request in flight per connection: build a payload, send a frame,
// read exactly one Reply or Error frame back. Error frames surface as
// ServiceError with the server's typed code; transport failures surface
// as ServiceError{Internal}.
#include "fpsnr/service.h"

#if !defined(_WIN32)

#include <sys/socket.h>
#include <sys/un.h>
#include <netinet/in.h>
#include <arpa/inet.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "service/wire.h"

namespace fpsnr::service {

struct Client::Impl {
  int fd = -1;

  ~Impl() {
    if (fd >= 0) ::close(fd);
  }

  void connect(const Endpoint& endpoint) {
    const bool unix_socket = !endpoint.socket_path.empty();
    if (unix_socket == (endpoint.tcp_port != 0))
      throw std::invalid_argument(
          "fpsnr client: set exactly one of socket_path or tcp_port");
    if (unix_socket) {
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      if (endpoint.socket_path.size() >= sizeof(addr.sun_path))
        throw std::invalid_argument("fpsnr client: socket path too long: " +
                                    endpoint.socket_path);
      std::strncpy(addr.sun_path, endpoint.socket_path.c_str(),
                   sizeof(addr.sun_path) - 1);
      fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd < 0 || ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                              sizeof(addr)) < 0)
        throw ServiceError(ErrorCode::Internal,
                           "cannot connect to " + endpoint.socket_path + ": " +
                               std::strerror(errno));
    } else {
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(endpoint.tcp_port);
      fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0 || ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                              sizeof(addr)) < 0)
        throw ServiceError(ErrorCode::Internal,
                           "cannot connect to 127.0.0.1:" +
                               std::to_string(endpoint.tcp_port) + ": " +
                               std::strerror(errno));
    }
    // No receive timeout on the client: a large compress job legitimately
    // takes as long as it takes; the server bounds ITS reads instead.
    wire::set_socket_options(fd, /*recv_timeout_ms=*/0);
  }

  /// Send one request and read its one answer; Error frames throw.
  std::vector<std::uint8_t> round_trip(FrameType type,
                                       const std::vector<std::uint8_t>& payload) {
    try {
      wire::send_frame(fd, type, payload);
      wire::FrameHeader header;
      if (!wire::read_frame_header(fd, &header))
        throw ServiceError(ErrorCode::Internal,
                           "server closed the connection without a response");
      if (header.magic != kFrameMagic)
        throw ServiceError(ErrorCode::BadMagic, "response frame is not FPSD");
      std::vector<std::uint8_t> body(static_cast<std::size_t>(header.length));
      if (header.length > 0 &&
          !wire::read_exact(fd, body.data(), body.size()))
        throw ServiceError(ErrorCode::Internal, "truncated response frame");
      if (header.type == FrameType::Error) {
        io::ByteReader r(body);
        const auto code = static_cast<ErrorCode>(r.get<std::uint16_t>());
        throw ServiceError(code, r.get_string());
      }
      if (header.type != FrameType::Reply)
        throw ServiceError(ErrorCode::BadFrame,
                           "unexpected response frame type");
      return body;
    } catch (const wire::WireError& e) {
      throw ServiceError(ErrorCode::Internal, e.what());
    } catch (const io::StreamError& e) {
      throw ServiceError(ErrorCode::Internal, e.what());
    }
  }

  /// Decode a whole Reply payload with `read`; a malformed one is Internal.
  template <typename Read>
  static auto decode_reply(const std::vector<std::uint8_t>& body, Read&& read) {
    try {
      io::ByteReader r(body);
      auto out = read(r);
      r.expect_end();
      return out;
    } catch (const io::StreamError& e) {
      throw ServiceError(ErrorCode::Internal, e.what());
    }
  }

  static void scheduling_prefix(io::ByteWriter& w,
                                const RequestOptions& options) {
    w.put<std::uint8_t>(options.priority ? 1 : 0);
    w.put<std::uint32_t>(options.deadline_ms);
  }

  /// The job fields CompressSpec and SeriesSpec share, then the values.
  template <typename T, typename Spec>
  static void put_field_job(io::ByteWriter& w, std::span<const T> values,
                            const Spec& spec) {
    w.put_string(spec.engine);
    w.put_string(spec.budget);
    w.put_string(spec.mode);
    w.put<double>(spec.value);
    w.put<std::uint8_t>(static_cast<std::uint8_t>(spec.tile.size()));
    for (const std::size_t t : spec.tile) w.put<std::uint64_t>(t);
    w.put<std::uint8_t>(std::is_same_v<T, double> ? 1 : 0);
    w.put<std::uint8_t>(static_cast<std::uint8_t>(spec.dims.size()));
    for (const std::size_t d : spec.dims) w.put<std::uint64_t>(d);
    w.put_blob(io::bytes_of(values));
  }

  /// The report fields both compress Replies start with.
  template <typename Result>
  static void read_report(io::ByteReader& r, Result& result) {
    result.value_count = r.get<std::uint64_t>();
    result.compressed_bytes = r.get<std::uint64_t>();
    result.achieved_psnr_db = r.get<double>();
    result.bit_rate = r.get<double>();
    result.block_count = r.get<std::uint64_t>();
    const std::uint8_t tile_rank = r.get<std::uint8_t>();
    result.tile.resize(tile_rank);
    for (std::size_t& t : result.tile)
      t = static_cast<std::size_t>(r.get<std::uint64_t>());
    result.archive = r.get_blob();
  }

  template <typename T>
  CompressResult compress(std::span<const T> values, const CompressSpec& spec,
                          const RequestOptions& options) {
    io::ByteWriter w;
    scheduling_prefix(w, options);
    put_field_job(w, values, spec);
    return decode_reply(round_trip(FrameType::Compress, w.buffer()),
                        [](io::ByteReader& r) {
                          CompressResult result;
                          read_report(r, result);
                          return result;
                        });
  }

  template <typename T>
  SeriesResult compress_series(std::span<const T> values,
                               const SeriesSpec& spec,
                               const RequestOptions& options) {
    io::ByteWriter w;
    scheduling_prefix(w, options);
    w.put_string(spec.series);
    w.put<std::uint32_t>(spec.keyframe_interval);
    put_field_job(w, values, spec);
    return decode_reply(round_trip(FrameType::CompressSeries, w.buffer()),
                        [](io::ByteReader& r) {
                          SeriesResult result;
                          read_report(r, result);
                          result.timestep = r.get<std::uint64_t>();
                          result.keyframe = r.get<std::uint8_t>() != 0;
                          result.temporal_blocks = r.get<std::uint64_t>();
                          return result;
                        });
  }

  /// Send an archive-in job (Decompress/Inspect) and return the Reply body.
  std::vector<std::uint8_t> archive_job(FrameType type,
                                        std::span<const std::uint8_t> archive,
                                        const RequestOptions& options) {
    io::ByteWriter w;
    scheduling_prefix(w, options);
    w.put_blob(archive);
    return round_trip(type, w.buffer());
  }
};

Client::Client(Endpoint endpoint) : impl_(std::make_unique<Impl>()) {
  impl_->connect(endpoint);
}

Client::~Client() = default;
Client::Client(Client&&) noexcept = default;
Client& Client::operator=(Client&&) noexcept = default;

void Client::ping() { impl_->round_trip(FrameType::Ping, {}); }

CompressResult Client::compress(std::span<const float> values,
                                const CompressSpec& spec,
                                const RequestOptions& options) {
  return impl_->compress(values, spec, options);
}

CompressResult Client::compress(std::span<const double> values,
                                const CompressSpec& spec,
                                const RequestOptions& options) {
  return impl_->compress(values, spec, options);
}

SeriesResult Client::compress_series(std::span<const float> values,
                                     const SeriesSpec& spec,
                                     const RequestOptions& options) {
  return impl_->compress_series(values, spec, options);
}

SeriesResult Client::compress_series(std::span<const double> values,
                                     const SeriesSpec& spec,
                                     const RequestOptions& options) {
  return impl_->compress_series(values, spec, options);
}

Field Client::decompress(std::span<const std::uint8_t> archive,
                         const RequestOptions& options) {
  return Impl::decode_reply(
      impl_->archive_job(FrameType::Decompress, archive, options),
      [](io::ByteReader& r) {
        Field field;
        const bool is_double = r.get<std::uint8_t>() == 1;
        field.dims.resize(r.get<std::uint8_t>());
        for (std::size_t& d : field.dims)
          d = static_cast<std::size_t>(r.get<std::uint64_t>());
        const auto values = r.get_blob_view();
        io::ByteReader vr(values);
        if (is_double)
          field.f64 = vr.get_array<double>(values.size() / sizeof(double));
        else
          field.f32 = vr.get_array<float>(values.size() / sizeof(float));
        vr.expect_end();  // a partial trailing value
        return field;
      });
}

std::string Client::inspect(std::span<const std::uint8_t> archive,
                            const RequestOptions& options) {
  return Impl::decode_reply(
      impl_->archive_job(FrameType::Inspect, archive, options),
      [](io::ByteReader& r) { return r.get_string(); });
}

std::string Client::stats() {
  return Impl::decode_reply(impl_->round_trip(FrameType::Stats, {}),
                            [](io::ByteReader& r) { return r.get_string(); });
}

void Client::shutdown_server() { impl_->round_trip(FrameType::Shutdown, {}); }

}  // namespace fpsnr::service

#else  // _WIN32

namespace fpsnr::service {

struct Client::Impl {};

Client::Client(Endpoint) {
  throw std::runtime_error("fpsnr client requires POSIX sockets");
}
Client::~Client() = default;
Client::Client(Client&&) noexcept = default;
Client& Client::operator=(Client&&) noexcept = default;
void Client::ping() {}
CompressResult Client::compress(std::span<const float>, const CompressSpec&,
                                const RequestOptions&) {
  return {};
}
CompressResult Client::compress(std::span<const double>, const CompressSpec&,
                                const RequestOptions&) {
  return {};
}
SeriesResult Client::compress_series(std::span<const float>,
                                     const SeriesSpec&,
                                     const RequestOptions&) {
  return {};
}
SeriesResult Client::compress_series(std::span<const double>,
                                     const SeriesSpec&,
                                     const RequestOptions&) {
  return {};
}
Field Client::decompress(std::span<const std::uint8_t>,
                         const RequestOptions&) {
  return {};
}
std::string Client::inspect(std::span<const std::uint8_t>,
                            const RequestOptions&) {
  return {};
}
std::string Client::stats() { return {}; }
void Client::shutdown_server() {}

}  // namespace fpsnr::service

#endif
