#include "bench_client.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstring>

#include "config.h"
#include "util/strings.h"

namespace perfbench {

namespace {

[[nodiscard]] std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

}  // namespace

void ResponseReader::start(const Expectation& expect) {
  expect_ = expect;
  state_ = State::kHead;
  head_.clear();
  received_ = 0;
  status_ = 0;
  keep_alive_ = false;
  location_.clear();
  body_needed_ = 0;
  body_seen_ = 0;
  check_body_ = false;
  error_.clear();
}

void ResponseReader::fail(std::string why) {
  if (state_ == State::kFailed) return;
  state_ = State::kFailed;
  error_ = std::move(why);
}

void ResponseReader::parse_head() {
  const std::string_view head(head_);
  std::size_t line_end = head.find("\r\n");
  const std::string_view status_line = head.substr(0, line_end);
  int status = 0;
  if (status_line.size() < 12 || status_line.substr(0, 7) != "HTTP/1." ||
      std::from_chars(status_line.data() + 9, status_line.data() + 12, status)
              .ec != std::errc()) {
    fail("malformed status line");
    return;
  }
  status_ = status;
  bool has_length = false;
  std::uint64_t length = 0;
  while (line_end + 2 < head.size()) {
    const std::size_t start = line_end + 2;
    line_end = head.find("\r\n", start);
    const std::string_view line = head.substr(start, line_end - start);
    if (line.empty()) break;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      fail("malformed header line");
      return;
    }
    const std::string_view name = line.substr(0, colon);
    const std::string_view value = trim(line.substr(colon + 1));
    if (sweb::util::iequals(name, "Content-Length")) {
      if (std::from_chars(value.data(), value.data() + value.size(), length)
              .ec != std::errc()) {
        fail("bad Content-Length");
        return;
      }
      has_length = true;
    } else if (sweb::util::iequals(name, "Connection")) {
      keep_alive_ = sweb::util::iequals(value, "keep-alive");
    } else if (sweb::util::iequals(name, "Location")) {
      location_ = std::string(value);
    }
  }
  if (!has_length) {
    fail("no Content-Length");
    return;
  }
  if (status == 302) {
    if (location_.empty()) {
      fail("302 without Location");
      return;
    }
    // A HEAD's 302 is framed like any HEAD answer: no body is read (the
    // client leaves the connection after a redirect either way).
    body_needed_ = expect_.head ? 0 : length;
  } else if (status == 200) {
    if (length != expect_.body->size()) {
      fail("Content-Length " + std::to_string(length) + " != expected " +
           std::to_string(expect_.body->size()));
      return;
    }
    body_needed_ = expect_.head ? 0 : length;
    check_body_ = true;
  } else {
    fail("status " + std::to_string(status));
    return;
  }
  state_ = body_needed_ == 0 ? State::kDone : State::kBody;
}

std::size_t ResponseReader::feed(const char* data, std::size_t n) {
  std::size_t used = 0;
  received_ += n;
  if (state_ == State::kHead) {
    // Search only the new bytes (plus 3 of overlap) for the blank line.
    const std::size_t before = head_.size();
    head_.append(data, n);
    const std::size_t from = before >= 3 ? before - 3 : 0;
    const std::size_t end = head_.find("\r\n\r\n", from);
    if (end == std::string::npos) {
      if (head_.size() > 16 * 1024) fail("response head too long");
      return n;
    }
    const std::size_t head_len = end + 4;
    used = head_len - before;
    head_.resize(head_len);
    parse_head();
  }
  if (state_ == State::kBody) {
    const std::size_t take = static_cast<std::size_t>(
        std::min<std::uint64_t>(n - used, body_needed_ - body_seen_));
    if (check_body_ &&
        std::memcmp(data + used,
                    expect_.body->data() + static_cast<std::size_t>(body_seen_),
                    take) != 0) {
      fail("body bytes differ from the DocStore entry");
      return used + take;
    }
    body_seen_ += take;
    used += take;
    if (body_seen_ == body_needed_) state_ = State::kDone;
  }
  return used;
}

bool Connection::connect(std::uint16_t port, bool nonblocking) {
  close();
  auto stream = sweb::runtime::TcpStream::connect(
      sweb::runtime::SocketAddress::loopback(port),
      std::chrono::milliseconds(kIoTimeoutMs));
  if (!stream) return false;
  stream_ = std::move(*stream);
  port_ = port;
  const int one = 1;
  (void)setsockopt(stream_.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  stream_.set_nonblocking(nonblocking);
  return true;
}

void Connection::close() noexcept {
  stream_.close();
  port_ = 0;
}

bool Connection::send_all(std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n =
        ::send(stream_.fd(), bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n > 0) {
      bytes.remove_prefix(static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{stream_.fd(), POLLOUT, 0};
      if (::poll(&pfd, 1, kIoTimeoutMs) <= 0) return false;
      continue;
    }
    return false;
  }
  return true;
}

void Connection::feed_all(ResponseReader& reader, std::size_t n) {
  const std::size_t used = reader.feed(buf_.data(), n);
  // Bytes past a finished response mean the server sent more than it
  // framed — except after a 302, which the client abandons.
  if (used < n && reader.done() && reader.status() != 302) {
    reader.fail("bytes beyond the framed response");
  }
}

bool Connection::receive(ResponseReader& reader, bool& stale) {
  stale = false;
  // Busy-poll for kSpinNs, then block: a reply that comes quickly is
  // caught without paying a vCPU wake-up (noise that has nothing to do
  // with the server), and a slow one does not burn a CPU the server needs.
  using Clock = std::chrono::steady_clock;
  auto spin_until = Clock::now() + std::chrono::nanoseconds(kSpinNs);
  while (!reader.done() && !reader.failed()) {
    const ssize_t n =
        ::recv(stream_.fd(), buf_.data(), buf_.size(), MSG_DONTWAIT);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (Clock::now() < spin_until) {
        cpu_relax();
        continue;
      }
      pollfd pfd{stream_.fd(), POLLIN, 0};
      const int ready = ::poll(&pfd, 1, kIoTimeoutMs);
      if (ready == 0) {
        reader.fail("response timed out");
        return false;
      }
      spin_until = Clock::now() + std::chrono::nanoseconds(kSpinNs);
      continue;
    }
    if (n <= 0) {
      stale = !reader.started();
      reader.fail(n == 0 ? "connection closed mid-response"
                         : "recv failed");
      return false;
    }
    feed_all(reader, static_cast<std::size_t>(n));
  }
  return reader.done();
}

bool Connection::pump(ResponseReader& reader) {
  while (!reader.done() && !reader.failed()) {
    const ssize_t n = ::recv(stream_.fd(), buf_.data(), buf_.size(), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n <= 0) {
      reader.fail(n == 0 ? "connection closed mid-response" : "recv failed");
      return false;
    }
    feed_all(reader, static_cast<std::size_t>(n));
  }
  return true;
}

void append_request(std::string& out, std::string_view method,
                    std::string_view target, std::uint16_t port,
                    std::string_view post_body) {
  out.append(method).append(" ").append(target).append(" HTTP/1.0\r\n");
  out.append("Host: 127.0.0.1:").append(std::to_string(port)).append("\r\n");
  out.append("Connection: Keep-Alive\r\n");
  if (!post_body.empty()) {
    out.append("Content-Type: application/x-www-form-urlencoded\r\n");
    out.append("Content-Length: ")
        .append(std::to_string(post_body.size()))
        .append("\r\n\r\n")
        .append(post_body);
    return;
  }
  out.append("\r\n");
}

}  // namespace perfbench
