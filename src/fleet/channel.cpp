#include "fleet/channel.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace dash::fleet {

namespace {

[[noreturn]] void die(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// sockaddr for an endpoint; returns the length used.
socklen_t fill_sockaddr(const Endpoint& ep, sockaddr_storage* storage) {
  std::memset(storage, 0, sizeof(*storage));
  if (ep.kind == Endpoint::Kind::kUnix) {
    auto* sun = reinterpret_cast<sockaddr_un*>(storage);
    sun->sun_family = AF_UNIX;
    if (ep.path.size() >= sizeof(sun->sun_path)) {
      throw std::invalid_argument("unix socket path too long: " + ep.path);
    }
    std::memcpy(sun->sun_path, ep.path.c_str(), ep.path.size() + 1);
    return static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) +
                                  ep.path.size() + 1);
  }
  auto* sin = reinterpret_cast<sockaddr_in*>(storage);
  sin->sin_family = AF_INET;
  sin->sin_port = htons(ep.port);
  if (::inet_pton(AF_INET, ep.host.c_str(), &sin->sin_addr) != 1) {
    throw std::invalid_argument("bad tcp host '" + ep.host +
                                "' (expected a dotted-quad address)");
  }
  return sizeof(sockaddr_in);
}

int make_socket(const Endpoint& ep) {
  const int domain = ep.kind == Endpoint::Kind::kUnix ? AF_UNIX : AF_INET;
  // SOCK_CLOEXEC: fleet sockets must not leak into spawned agents -- an
  // inherited listener fd keeps a dead agent's peer "connected" (the
  // kernel never delivers EOF while any copy is open), stalling lease
  // reassignment until the whole process tree exits.
  const int fd = ::socket(domain, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) die("socket");
  if (ep.kind == Endpoint::Kind::kTcp) {
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return fd;
}

}  // namespace

// ---- Endpoint --------------------------------------------------------------

Endpoint Endpoint::parse(const std::string& spec) {
  Endpoint out;
  if (spec.rfind("unix:", 0) == 0) {
    out.kind = Kind::kUnix;
    out.path = spec.substr(5);
    if (out.path.empty()) {
      throw std::invalid_argument("empty unix socket path in '" + spec +
                                  "'");
    }
    return out;
  }
  if (spec.rfind("tcp:", 0) == 0) {
    out.kind = Kind::kTcp;
    const std::string rest = spec.substr(4);
    const auto colon = rest.rfind(':');
    std::string port_text;
    if (colon == std::string::npos) {
      out.host = "127.0.0.1";
      port_text = rest;
    } else {
      out.host = rest.substr(0, colon);
      port_text = rest.substr(colon + 1);
    }
    if (out.host.empty()) out.host = "127.0.0.1";
    unsigned long port = 0;
    const auto [end, ec] = std::from_chars(
        port_text.data(), port_text.data() + port_text.size(), port);
    if (ec != std::errc{} || end != port_text.data() + port_text.size() ||
        port_text.empty() || port > 65535) {
      throw std::invalid_argument("bad tcp port in '" + spec +
                                  "' (expected tcp:[host:]port)");
    }
    out.port = static_cast<std::uint16_t>(port);
    return out;
  }
  throw std::invalid_argument(
      "bad fleet endpoint '" + spec +
      "' (expected unix:<path> or tcp:[host:]<port>)");
}

std::string Endpoint::spec() const {
  if (kind == Kind::kUnix) return "unix:" + path;
  return "tcp:" + host + ":" + std::to_string(port);
}

// ---- Channel ---------------------------------------------------------------

Channel::Channel(Channel&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), inbuf_(std::move(other.inbuf_)) {}

Channel& Channel::operator=(Channel&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    inbuf_ = std::move(other.inbuf_);
  }
  return *this;
}

void Channel::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  inbuf_.clear();
}

bool Channel::send_raw(const std::string& bytes) {
  std::lock_guard<std::mutex> lock(write_mutex_);
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) return false;
      die("send");
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool Channel::send(const Message& m) {
  return send_raw(frame_bytes(encode_message(m)));
}

std::optional<Message> Channel::recv() {
  while (true) {
    if (auto m = next()) return m;
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == ECONNRESET) return std::nullopt;
      die("recv");
    }
    if (n == 0) return std::nullopt;  // EOF (possibly mid-frame)
    inbuf_.append(chunk, static_cast<std::size_t>(n));
  }
}

bool Channel::feed() {
  char chunk[4096];
  while (true) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n > 0) {
      inbuf_.append(chunk, static_cast<std::size_t>(n));
      if (n < static_cast<ssize_t>(sizeof(chunk))) return true;
      continue;  // a full chunk: more may be pending
    }
    if (n == 0) return false;  // peer closed
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    return false;  // ECONNRESET and friends: the connection is dead
  }
}

std::optional<Message> Channel::next() {
  std::string payload;
  if (!take_frame(&inbuf_, &payload)) return std::nullopt;
  return decode_message(payload);
}

// ---- connect / listen ------------------------------------------------------

Channel connect_channel(const Endpoint& to) {
  const int fd = make_socket(to);
  sockaddr_storage addr;
  const socklen_t len = fill_sockaddr(to, &addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), len) < 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    die("connect to " + to.spec());
  }
  return Channel(fd);
}

Listener::Listener(const Endpoint& at) : endpoint_(at) {
  fd_ = make_socket(at);
  if (at.kind == Endpoint::Kind::kUnix) {
    ::unlink(at.path.c_str());  // stale socket from a crashed serve
  } else {
    const int one = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  }
  sockaddr_storage addr;
  const socklen_t len = fill_sockaddr(at, &addr);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), len) < 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    die("bind " + at.spec());
  }
  if (::listen(fd_, 64) < 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    die("listen on " + at.spec());
  }
  if (at.kind == Endpoint::Kind::kTcp && at.port == 0) {
    sockaddr_in bound;
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound),
                      &bound_len) == 0) {
      endpoint_.port = ntohs(bound.sin_port);
    }
  }
}

Listener::~Listener() { close(); }

void Listener::close() {
  if (fd_ < 0) return;
  ::close(fd_);
  fd_ = -1;
  if (endpoint_.kind == Endpoint::Kind::kUnix) {
    ::unlink(endpoint_.path.c_str());
  }
}

Channel Listener::accept() {
  while (true) {
    // accept4 so the accepted fd is CLOEXEC from birth -- a plain
    // accept + fcntl leaves a window where a concurrently spawned
    // agent inherits the connection.
    const int fd = ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd >= 0) return Channel(fd);
    if (errno == EINTR) continue;
    die("accept on " + endpoint_.spec());
  }
}

}  // namespace dash::fleet
