#include "service/wire.h"

#if !defined(_WIN32)

#include <cerrno>
#include <cstring>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#endif

namespace fpsnr::service::wire {

std::string_view error_code_name_impl(ErrorCode code) {
  switch (code) {
    case ErrorCode::BadMagic: return "bad-magic";
    case ErrorCode::BadFrame: return "bad-frame";
    case ErrorCode::Oversized: return "oversized";
    case ErrorCode::BadRequest: return "bad-request";
    case ErrorCode::Overloaded: return "overloaded";
    case ErrorCode::DeadlineExpired: return "deadline-expired";
    case ErrorCode::ShuttingDown: return "shutting-down";
    case ErrorCode::Internal: return "internal";
  }
  return "unknown";
}

#if !defined(_WIN32)

bool read_exact(int fd, void* buffer, std::size_t n) {
  auto* p = static_cast<std::uint8_t*>(buffer);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, p + got, n - got);
    if (r == 0) {
      if (got == 0) return false;  // clean EOF between frames
      throw WireError("connection closed mid-frame (" + std::to_string(got) +
                      "/" + std::to_string(n) + " byte(s))");
    }
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        throw WireError("read timed out mid-frame");
      throw WireError(std::string("read failed: ") + std::strerror(errno));
    }
    got += static_cast<std::size_t>(r);
  }
  return true;
}

void write_all(int fd, const void* buffer, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(buffer);
  std::size_t sent = 0;
  while (sent < n) {
    // MSG_NOSIGNAL: a vanished peer must surface as EPIPE (a WireError the
    // handler catches), never as a process-killing SIGPIPE. Platforms
    // without it (macOS) rely on SO_NOSIGPIPE from set_socket_options.
#if defined(MSG_NOSIGNAL)
    const ssize_t r = ::send(fd, p + sent, n - sent, MSG_NOSIGNAL);
#else
    const ssize_t r = ::write(fd, p + sent, n - sent);
#endif
    if (r < 0) {
      if (errno == EINTR) continue;
      throw WireError(std::string("write failed: ") + std::strerror(errno));
    }
    sent += static_cast<std::size_t>(r);
  }
}

void set_socket_options(int fd, int recv_timeout_ms) {
#if defined(SO_NOSIGPIPE)
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_NOSIGPIPE, &one, sizeof(one));
#endif
  if (recv_timeout_ms > 0) {
    timeval tv{};
    tv.tv_sec = recv_timeout_ms / 1000;
    tv.tv_usec = (recv_timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
}

bool read_frame_header(int fd, FrameHeader* header) {
  std::uint8_t raw[kFrameHeaderBytes];
  if (!read_exact(fd, raw, sizeof(raw))) return false;
  io::ByteReader r(raw);
  header->magic = r.get<std::uint32_t>();
  header->type = static_cast<FrameType>(r.get<std::uint16_t>());
  header->flags = r.get<std::uint16_t>();
  header->length = r.get<std::uint64_t>();
  return true;
}

void send_frame(int fd, FrameType type,
                const std::vector<std::uint8_t>& payload) {
  io::ByteWriter head;
  head.put<std::uint32_t>(kFrameMagic);
  head.put<std::uint16_t>(static_cast<std::uint16_t>(type));
  head.put<std::uint16_t>(0);
  head.put<std::uint64_t>(payload.size());
  write_all(fd, head.buffer().data(), head.size());
  if (!payload.empty()) write_all(fd, payload.data(), payload.size());
}

void send_error(int fd, ErrorCode code, const std::string& message) {
  io::ByteWriter w;
  w.put<std::uint16_t>(static_cast<std::uint16_t>(code));
  w.put_string(message);
  send_frame(fd, FrameType::Error, w.buffer());
}

void discard_exact(int fd, std::uint64_t n) {
  std::uint8_t sink[4096];
  while (n > 0) {
    const std::size_t chunk =
        static_cast<std::size_t>(n < sizeof(sink) ? n : sizeof(sink));
    if (!read_exact(fd, sink, chunk))
      throw WireError("connection closed while skipping a rejected payload");
    n -= chunk;
  }
}

#endif  // !defined(_WIN32)

}  // namespace fpsnr::service::wire

namespace fpsnr::service {

std::string_view error_code_name(ErrorCode code) {
  return wire::error_code_name_impl(code);
}

}  // namespace fpsnr::service
