// channel.h -- sockets and frame transport for the fleet protocol.
//
// An Endpoint is where a coordinator listens and agents connect, in
// one of two plain-POSIX spellings (no third-party transport):
//
//   unix:<path>          AF_UNIX stream socket at <path>
//   tcp:<host>:<port>    AF_INET loopback-or-LAN TCP (port 0 binds an
//                        ephemeral port; Listener::endpoint() reports
//                        the actual one)
//
// A Channel owns one connected fd and moves whole protocol frames:
// send() writes a length-prefixed message (MSG_NOSIGNAL -- a dead peer
// is a return value here, never a SIGPIPE), recv() blocks for the next
// complete frame. Writes are mutex-serialized so an agent's heartbeat
// thread can share the socket with its result stream. The receive path
// also powers the coordinator's non-blocking poll loop via
// feed()/next() on the inbound buffer.
#pragma once

#include <cstddef>
#include <mutex>
#include <optional>
#include <string>

#include "fleet/protocol.h"

namespace dash::fleet {

/// A parsed listen/connect address. Throws std::invalid_argument for
/// anything but the two documented spellings.
struct Endpoint {
  enum class Kind { kUnix, kTcp };
  Kind kind = Kind::kUnix;
  std::string path;         ///< unix: socket path
  std::string host;         ///< tcp: host (default 127.0.0.1)
  std::uint16_t port = 0;   ///< tcp: port (0 = ephemeral when listening)

  static Endpoint parse(const std::string& spec);
  /// Canonical spec ("unix:/tmp/f.sock", "tcp:127.0.0.1:4815").
  std::string spec() const;
};

/// RAII fd with frame-granular I/O.
class Channel {
 public:
  Channel() = default;
  explicit Channel(int fd) : fd_(fd) {}
  ~Channel() { close(); }
  Channel(Channel&& other) noexcept;
  Channel& operator=(Channel&& other) noexcept;
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  bool open() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void close();

  /// Frame and write one message. Returns false when the peer is gone
  /// (EPIPE/ECONNRESET); throws std::runtime_error on other I/O errors.
  bool send(const Message& m);

  /// Write raw pre-framed bytes (the torn-frame chaos path). Same
  /// return contract as send().
  bool send_raw(const std::string& bytes);

  /// Block for the next complete frame; nullopt on orderly EOF (or EOF
  /// mid-frame -- a dead peer, indistinguishable on purpose). Throws
  /// FrameError for corrupt length prefixes.
  std::optional<Message> recv();

  /// Non-blocking pump for poll loops: read whatever is available into
  /// the inbound buffer. Returns false when the peer closed or the read
  /// failed (the connection is dead either way).
  bool feed();

  /// Pop the next buffered complete frame, if any.
  std::optional<Message> next();

 private:
  int fd_ = -1;
  std::string inbuf_;
  std::mutex write_mutex_;
};

/// Connect to a coordinator. Throws std::runtime_error (with errno
/// text) when nothing listens there.
Channel connect_channel(const Endpoint& to);

/// A bound, listening socket.
class Listener {
 public:
  /// Bind + listen. Throws std::runtime_error on failure (address in
  /// use, bad path, ...). A unix endpoint unlinks a stale socket file
  /// first; the file is removed again on destruction.
  explicit Listener(const Endpoint& at);
  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  int fd() const { return fd_; }
  /// The actual endpoint (tcp port resolved when 0 was requested).
  const Endpoint& endpoint() const { return endpoint_; }

  /// Accept one pending connection (call after poll says readable).
  Channel accept();

  /// Stop listening: connections still queued are reset and new ones
  /// refused; a unix socket file is removed. endpoint() stays valid.
  /// Idempotent; the destructor calls it.
  void close();

 private:
  int fd_ = -1;
  Endpoint endpoint_;
};

}  // namespace dash::fleet
