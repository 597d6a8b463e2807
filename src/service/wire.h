// Socket framing shared by the fpsnrd server and client: frame headers,
// exact reads and writes, error frames, and per-socket options. Payloads
// are encoded and decoded with io::ByteWriter/io::ByteReader, whose
// bounds-checked reads throw io::StreamError on a truncated or lying
// payload; WireError is only for the socket itself failing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "fpsnr/service.h"
#include "io/bytebuffer.h"

namespace fpsnr::service::wire {

/// Socket I/O failure: EOF mid-frame, a timed-out read, a failed write.
struct WireError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Parsed frame header.
struct FrameHeader {
  std::uint32_t magic = 0;
  FrameType type = FrameType::Ping;
  std::uint16_t flags = 0;
  std::uint64_t length = 0;
};

/// Read exactly n bytes. Returns false on clean EOF at offset 0; throws
/// WireError on mid-buffer EOF or I/O error.
bool read_exact(int fd, void* buffer, std::size_t n);

/// Write all bytes or throw WireError (EPIPE included).
void write_all(int fd, const void* buffer, std::size_t n);

/// Read one frame header. Returns false on clean EOF before any byte.
/// Validates nothing beyond byte count — callers check magic/type/length.
bool read_frame_header(int fd, FrameHeader* header);

/// Send one complete frame (header + payload).
void send_frame(int fd, FrameType type, const std::vector<std::uint8_t>& payload);

/// Send an Error frame.
void send_error(int fd, ErrorCode code, const std::string& message);

/// Read and discard n payload bytes in bounded chunks (used to keep a
/// connection frame-aligned after rejecting a request without buffering
/// its payload). Throws WireError on EOF/error.
void discard_exact(int fd, std::uint64_t n);

/// Per-socket hardening applied by both ends: suppress SIGPIPE where
/// MSG_NOSIGNAL is unavailable (SO_NOSIGPIPE), and bound mid-frame reads
/// with a receive timeout so one stalled peer cannot wedge a drain.
void set_socket_options(int fd, int recv_timeout_ms = 30000);

}  // namespace fpsnr::service::wire
