// RAII POSIX sockets for the real (non-simulated) SWEB runtime.
//
// The paper built on "the sockets library built on the Solaris TCP/IP
// streams implementation" for compatibility and portability; this module is
// the modern equivalent: blocking TCP with poll-based timeouts, loopback
// addresses, no exceptions across the accept loop.
#pragma once

#include <netinet/in.h>

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>

#include "runtime/clock.h"

namespace sweb::runtime {

class ConnectionFaults;  // chaos.h

/// Absolute deadline for a multi-step I/O sequence. Loops that poll + read
/// or poll + write repeatedly must budget ONE overall deadline, not a fresh
/// timeout per iteration — otherwise a peer trickling one byte per timeout
/// window keeps the call alive forever.
using Deadline = std::chrono::steady_clock::time_point;

[[nodiscard]] inline Deadline deadline_after(
    std::chrono::milliseconds timeout) noexcept {
  return std::chrono::steady_clock::now() + timeout;
}

/// Milliseconds left until `deadline`, clamped to >= 0 (rounded up so a
/// sub-millisecond remainder still polls instead of spinning).
[[nodiscard]] std::chrono::milliseconds time_remaining(
    Deadline deadline) noexcept;

/// Move-only owner of a file descriptor.
class FileDescriptor {
 public:
  FileDescriptor() = default;
  explicit FileDescriptor(int fd) noexcept : fd_(fd) {}
  ~FileDescriptor();
  FileDescriptor(FileDescriptor&& other) noexcept;
  FileDescriptor& operator=(FileDescriptor&& other) noexcept;
  FileDescriptor(const FileDescriptor&) = delete;
  FileDescriptor& operator=(const FileDescriptor&) = delete;

  [[nodiscard]] int get() const noexcept { return fd_; }
  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  void reset(int fd = -1) noexcept;

 private:
  int fd_ = -1;
};

/// IPv4 address/port pair.
struct SocketAddress {
  std::uint32_t host = 0;  // network byte order inside sockaddr helpers
  std::uint16_t port = 0;

  [[nodiscard]] static SocketAddress loopback(std::uint16_t port) noexcept;
  [[nodiscard]] sockaddr_in to_sockaddr() const noexcept;
};

/// A connected TCP stream.
class TcpStream {
 public:
  TcpStream() = default;
  explicit TcpStream(FileDescriptor fd) noexcept : fd_(std::move(fd)) {}

  /// Connects with a timeout; std::nullopt on failure/timeout.
  [[nodiscard]] static std::optional<TcpStream> connect(
      const SocketAddress& addr, std::chrono::milliseconds timeout);

  [[nodiscard]] bool valid() const noexcept { return fd_.valid(); }

  /// Raw fd for event-loop registration (epoll); -1 when invalid. The
  /// stream keeps ownership.
  [[nodiscard]] int fd() const noexcept { return fd_.get(); }

  /// Switches the socket between blocking and O_NONBLOCK mode. The
  /// blocking helpers below work either way (they poll first and send with
  /// MSG_DONTWAIT); the reactor flips accepted connections nonblocking.
  void set_nonblocking(bool enable) noexcept;

  /// Reads up to `max` bytes; "" + ok=false on error, "" + ok=true on EOF is
  /// distinguished via the eof flag.
  struct ReadResult {
    std::string data;
    bool ok = false;
    bool eof = false;
  };
  [[nodiscard]] ReadResult read_some(std::size_t max,
                                     std::chrono::milliseconds timeout);

  /// Waits up to `timeout` for the stream to become readable (data or EOF)
  /// without consuming anything — lets callers wait in short slices and
  /// re-check a stop token between them.
  [[nodiscard]] bool wait_readable(std::chrono::milliseconds timeout) const;

  /// Writes the whole buffer; false on any error/timeout. The timeout is
  /// one overall deadline for the entire buffer, however many partial
  /// sends it takes.
  [[nodiscard]] bool write_all(std::string_view data,
                               std::chrono::milliseconds timeout);

  /// Gather-write: sends `segments` back to back as if they were one
  /// buffer, without ever concatenating them (sendmsg/writev). Same
  /// contract as write_all (one overall deadline, false on error/timeout).
  [[nodiscard]] bool write_all_v(
      std::initializer_list<std::string_view> segments,
      std::chrono::milliseconds timeout);

  // The blocking helpers above ignore attached faults: they serve clean
  // client and test streams.

  // --- Non-blocking primitives (reactor event loop) -----------------------
  // These never sleep and never poll, and they are the only calls that
  // consult attached faults (chaos.h): a faulted stream may answer
  // retry_at — the link holds the op, no I/O was done, call again at that
  // time on the faults' clock (an earlier call answers the same time) —
  // and clamps the bytes one op moves. EINTR is retried inline (a signal
  // is not a state change); EAGAIN surfaces as would_block=true so the
  // state machine can park until the next readiness event. A clean stream
  // pays a pointer test and no clock read.

  /// One nonblocking recv of up to `max` bytes.
  struct NbRead {
    std::string data;
    bool ok = false;          // false: hard error (connection is dead)
    bool eof = false;         // ok && the peer half-closed
    bool would_block = false; // ok && no bytes available right now
    std::optional<Clock::TimePoint> retry_at;  // ok && held by a link fault
  };
  [[nodiscard]] NbRead read_nb(std::size_t max);

  /// One nonblocking gather send (a single sendmsg of up to 8 segments).
  /// `written` may cover any prefix of the total; the caller resumes the
  /// remainder on the next writability event. A doomed faulted stream
  /// fires its RST here (hard_reset) and answers ok=false.
  struct NbWrite {
    std::size_t written = 0;
    bool ok = false;
    bool would_block = false;
    std::optional<Clock::TimePoint> retry_at;  // ok && held by a link fault
  };
  [[nodiscard]] NbWrite write_some_v_nb(const std::string_view* segments,
                                        std::size_t count);

  /// Half-closes the write side (signals EOF to the peer — HTTP/1.0 framing).
  void shutdown_write() noexcept;
  void close() noexcept { fd_.reset(); }

  /// Aborts the connection with an RST (SO_LINGER 0 + close): the peer's
  /// next read fails with ECONNRESET instead of seeing clean EOF. Used by
  /// the chaos layer's mid-stream reset fault; valid for tests too.
  void hard_reset() noexcept;

  /// Attaches per-connection fault injection (see chaos.h); every later
  /// read_nb/write_some_v_nb consults it. nullptr detaches.
  void set_faults(std::shared_ptr<ConnectionFaults> faults) noexcept {
    faults_ = std::move(faults);
  }
  /// Whether chaos fault injection is attached — requests served over a
  /// faulted connection are flagged in the slow-request forensics log.
  [[nodiscard]] bool faulted() const noexcept { return faults_ != nullptr; }

 private:
  FileDescriptor fd_;
  std::shared_ptr<ConnectionFaults> faults_;
};

/// A listening TCP socket bound to 127.0.0.1.
class TcpListener {
 public:
  /// Binds and listens; port 0 picks an ephemeral port. Throws
  /// std::system_error on failure (server startup is fail-fast).
  explicit TcpListener(std::uint16_t port = 0, int backlog = 64);

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Waits up to `timeout` for a connection; std::nullopt on timeout.
  [[nodiscard]] std::optional<TcpStream> accept(
      std::chrono::milliseconds timeout);

  /// Raw fd for event-loop registration; -1 after close().
  [[nodiscard]] int fd() const noexcept { return fd_.get(); }

  /// Switches the listening socket between blocking and O_NONBLOCK mode.
  void set_nonblocking(bool enable) noexcept;

  /// Nonblocking accept: one pending connection or std::nullopt when the
  /// backlog is empty (or on a transient accept error). The listener must
  /// be in nonblocking mode.
  [[nodiscard]] std::optional<TcpStream> accept_nb();

  /// Closes the listening socket (further connects are refused) but keeps
  /// port() — fault injection for a crashed node. Join any thread blocked
  /// in accept() before calling. A later `listener = TcpListener(port())`
  /// rebinds the same port (SO_REUSEADDR).
  void close() noexcept { fd_.reset(); }

 private:
  FileDescriptor fd_;
  std::uint16_t port_ = 0;
};

}  // namespace sweb::runtime
