#include "runtime/socket.h"

#include "runtime/chaos.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>

namespace sweb::runtime {

namespace {

/// Polls one fd for the given events until `deadline`; true when ready,
/// false on timeout. EINTR re-polls with the *remaining* budget, so signal
/// storms cannot extend the wait.
[[nodiscard]] bool wait_ready_until(int fd, short events, Deadline deadline) {
  pollfd pfd{fd, events, 0};
  for (;;) {
    const int rc = ::poll(&pfd, 1,
                          static_cast<int>(time_remaining(deadline).count()));
    if (rc > 0) return (pfd.revents & (events | POLLERR | POLLHUP)) != 0;
    if (rc == 0) return false;  // timeout
    if (errno != EINTR) return false;
  }
}

[[nodiscard]] bool wait_ready(int fd, short events,
                              std::chrono::milliseconds timeout) {
  return wait_ready_until(fd, events, deadline_after(timeout));
}

void set_fd_nonblocking(int fd, bool enable) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return;
  ::fcntl(fd, F_SETFL, enable ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK));
}

}  // namespace

std::chrono::milliseconds time_remaining(Deadline deadline) noexcept {
  const auto now = std::chrono::steady_clock::now();
  if (now >= deadline) return std::chrono::milliseconds{0};
  return std::chrono::ceil<std::chrono::milliseconds>(deadline - now);
}

FileDescriptor::~FileDescriptor() { reset(); }

FileDescriptor::FileDescriptor(FileDescriptor&& other) noexcept
    : fd_(other.fd_) {
  other.fd_ = -1;
}

FileDescriptor& FileDescriptor::operator=(FileDescriptor&& other) noexcept {
  if (this != &other) {
    reset(other.fd_);
    other.fd_ = -1;
  }
  return *this;
}

void FileDescriptor::reset(int fd) noexcept {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

SocketAddress SocketAddress::loopback(std::uint16_t port) noexcept {
  SocketAddress a;
  a.host = INADDR_LOOPBACK;
  a.port = port;
  return a;
}

sockaddr_in SocketAddress::to_sockaddr() const noexcept {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(host);
  sa.sin_port = htons(port);
  return sa;
}

std::optional<TcpStream> TcpStream::connect(const SocketAddress& addr,
                                            std::chrono::milliseconds timeout) {
  FileDescriptor fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return std::nullopt;
  set_fd_nonblocking(fd.get(), true);
  const sockaddr_in sa = addr.to_sockaddr();
  const int rc =
      ::connect(fd.get(), reinterpret_cast<const sockaddr*>(&sa), sizeof sa);
  if (rc != 0) {
    // EINTR on a nonblocking connect is NOT a failure: POSIX says the
    // attempt proceeds asynchronously, exactly like EINPROGRESS, so a
    // signal landing here must fall through to the POLLOUT wait rather
    // than spuriously failing the fetch.
    if (errno != EINPROGRESS && errno != EINTR) return std::nullopt;
    if (!wait_ready(fd.get(), POLLOUT, timeout)) return std::nullopt;
    int err = 0;
    socklen_t len = sizeof err;
    if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
        err != 0) {
      return std::nullopt;
    }
  }
  set_fd_nonblocking(fd.get(), false);
  return TcpStream(std::move(fd));
}

TcpStream::ReadResult TcpStream::read_some(std::size_t max,
                                           std::chrono::milliseconds timeout) {
  ReadResult result;
  if (!fd_.valid()) return result;
  const Deadline deadline = deadline_after(timeout);
  result.data.resize(max);
  for (;;) {
    if (!wait_ready_until(fd_.get(), POLLIN, deadline)) {
      result.data.clear();
      return result;
    }
    const ssize_t n = ::recv(fd_.get(), result.data.data(), max, 0);
    if (n >= 0) {
      result.data.resize(static_cast<std::size_t>(n));
      result.ok = true;
      result.eof = (n == 0);
      return result;
    }
    // A signal (EINTR) or a readiness race (poll reported readable but the
    // kernel had nothing by the time we called recv — EAGAIN) is not a
    // dead connection: retry within the remaining deadline.
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
    result.data.clear();
    return result;
  }
}

bool TcpStream::wait_readable(std::chrono::milliseconds timeout) const {
  if (!fd_.valid()) return false;
  return wait_ready(fd_.get(), POLLIN, timeout);
}

void TcpStream::set_nonblocking(bool enable) noexcept {
  if (fd_.valid()) set_fd_nonblocking(fd_.get(), enable);
}

TcpStream::NbRead TcpStream::read_nb(std::size_t max) {
  NbRead result;
  if (!fd_.valid() || max == 0) return result;
  std::chrono::steady_clock::time_point now{};
  if (faults_ != nullptr) {
    now = std::chrono::steady_clock::now();
    const ConnectionFaults::Gate gate = faults_->gate_read(max, now);
    if (gate.retry_at) {
      result.ok = true;
      result.retry_at = gate.retry_at;
      return result;
    }
    max = gate.budget;
  }
  result.data.resize(max);
  ssize_t n = 0;
  do {
    n = ::recv(fd_.get(), result.data.data(), max, MSG_DONTWAIT);
  } while (n < 0 && errno == EINTR);
  const int err = errno;
  if (faults_ != nullptr) {
    faults_->note_read(n > 0 ? static_cast<std::size_t>(n) : 0, now);
  }
  if (n >= 0) {
    result.data.resize(static_cast<std::size_t>(n));
    result.ok = true;
    result.eof = (n == 0);
    return result;
  }
  result.data.clear();
  if (err == EAGAIN || err == EWOULDBLOCK) {
    result.ok = true;
    result.would_block = true;
  }
  return result;
}

TcpStream::NbWrite TcpStream::write_some_v_nb(const std::string_view* segments,
                                              std::size_t count) {
  NbWrite result;
  if (!fd_.valid()) return result;
  std::array<iovec, 8> iov{};
  std::size_t iov_count = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (segments[i].empty()) continue;
    if (iov_count == iov.size()) return result;  // caller exceeded the fan-in
    iov[iov_count].iov_base =
        const_cast<char*>(segments[i].data());  // sendmsg never writes it
    iov[iov_count].iov_len = segments[i].size();
    ++iov_count;
  }
  if (iov_count == 0) {
    result.ok = true;
    return result;
  }
  std::chrono::steady_clock::time_point now{};
  if (faults_ != nullptr) {
    now = std::chrono::steady_clock::now();
    std::size_t want = 0;
    for (std::size_t i = 0; i < iov_count; ++i) want += iov[i].iov_len;
    const ConnectionFaults::Gate gate = faults_->gate_write(want, now);
    if (gate.reset) {
      hard_reset();
      return result;
    }
    if (gate.retry_at) {
      result.ok = true;
      result.retry_at = gate.retry_at;
      return result;
    }
    // Torn writes / throttle: trim the gather list to the byte budget.
    std::size_t budget = gate.budget;
    std::size_t kept = 0;
    while (kept < iov_count && budget > 0) {
      iov[kept].iov_len = std::min(iov[kept].iov_len, budget);
      budget -= iov[kept].iov_len;
      ++kept;
    }
    iov_count = kept;
  }
  msghdr msg{};
  msg.msg_iov = iov.data();
  msg.msg_iovlen = iov_count;
  ssize_t n = 0;
  do {
    n = ::sendmsg(fd_.get(), &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
  } while (n < 0 && errno == EINTR);
  const int err = errno;
  if (faults_ != nullptr) {
    faults_->note_write(n > 0 ? static_cast<std::size_t>(n) : 0, now);
  }
  if (n >= 0) {
    result.written = static_cast<std::size_t>(n);
    result.ok = true;
    return result;
  }
  if (err == EAGAIN || err == EWOULDBLOCK) {
    result.ok = true;
    result.would_block = true;
  }
  return result;
}

bool TcpStream::write_all(std::string_view data,
                          std::chrono::milliseconds timeout) {
  return write_all_v({data}, timeout);
}

bool TcpStream::write_all_v(std::initializer_list<std::string_view> segments,
                            std::chrono::milliseconds timeout) {
  if (!fd_.valid()) return false;
  const Deadline deadline = deadline_after(timeout);
  // Working copy of the non-empty segments; consumed ones are dropped by
  // advancing `first`, the partially-sent head is narrowed in place.
  std::array<std::string_view, 8> pending{};
  std::size_t count = 0;
  for (const std::string_view segment : segments) {
    if (segment.empty()) continue;
    if (count == pending.size()) return false;  // caller exceeded the fan-in
    pending[count++] = segment;
  }
  std::size_t first = 0;
  while (first < count) {
    if (!wait_ready_until(fd_.get(), POLLOUT, deadline)) return false;
    std::array<iovec, 8> iov{};
    std::size_t iov_count = 0;
    for (std::size_t i = first; i < count; ++i) {
      iov[iov_count].iov_base =
          const_cast<char*>(pending[i].data());  // sendmsg never writes it
      iov[iov_count].iov_len = pending[i].size();
      ++iov_count;
    }
    // MSG_DONTWAIT: the fd is in blocking mode, and a blocking send of
    // more than the free buffer space parks in the kernel with no regard
    // for our deadline. Write what fits now; poll covers the waiting.
    msghdr msg{};
    msg.msg_iov = iov.data();
    msg.msg_iovlen = iov_count;
    const ssize_t n = ::sendmsg(fd_.get(), &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return false;
    }
    // A zero-byte send made no progress and set no errno; treating it as
    // EINTR-like by consulting the stale errno could loop or misreport.
    if (n == 0) return false;
    std::size_t sent = static_cast<std::size_t>(n);
    while (first < count && sent >= pending[first].size()) {
      sent -= pending[first].size();
      ++first;
    }
    if (first < count) pending[first].remove_prefix(sent);
  }
  return true;
}

void TcpStream::shutdown_write() noexcept {
  if (fd_.valid()) ::shutdown(fd_.get(), SHUT_WR);
}

void TcpStream::hard_reset() noexcept {
  if (!fd_.valid()) return;
  // Zero linger turns close() into an abortive RST instead of an orderly
  // FIN — exactly how a mid-stream connection death looks on the wire.
  const linger abort_on_close{1, 0};
  ::setsockopt(fd_.get(), SOL_SOCKET, SO_LINGER, &abort_on_close,
               sizeof abort_on_close);
  fd_.reset();
}

TcpListener::TcpListener(std::uint16_t port, int backlog) {
  fd_.reset(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd_.valid()) {
    throw std::system_error(errno, std::generic_category(), "socket");
  }
  const int one = 1;
  ::setsockopt(fd_.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in sa = SocketAddress::loopback(port).to_sockaddr();
  if (::bind(fd_.get(), reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0) {
    throw std::system_error(errno, std::generic_category(), "bind");
  }
  if (::listen(fd_.get(), backlog) != 0) {
    throw std::system_error(errno, std::generic_category(), "listen");
  }
  socklen_t len = sizeof sa;
  if (::getsockname(fd_.get(), reinterpret_cast<sockaddr*>(&sa), &len) != 0) {
    throw std::system_error(errno, std::generic_category(), "getsockname");
  }
  port_ = ntohs(sa.sin_port);
}

std::optional<TcpStream> TcpListener::accept(
    std::chrono::milliseconds timeout) {
  if (!wait_ready(fd_.get(), POLLIN, timeout)) return std::nullopt;
  const int client = ::accept(fd_.get(), nullptr, nullptr);
  if (client < 0) return std::nullopt;
  return TcpStream{FileDescriptor(client)};
}

void TcpListener::set_nonblocking(bool enable) noexcept {
  if (fd_.valid()) set_fd_nonblocking(fd_.get(), enable);
}

std::optional<TcpStream> TcpListener::accept_nb() {
  if (!fd_.valid()) return std::nullopt;
  for (;;) {
    const int client = ::accept(fd_.get(), nullptr, nullptr);
    if (client >= 0) return TcpStream{FileDescriptor(client)};
    if (errno == EINTR) continue;
    return std::nullopt;  // EAGAIN (backlog drained) or a transient error
  }
}

}  // namespace sweb::runtime
