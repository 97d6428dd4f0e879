// The benchmark's own HTTP/1.0 keep-alive client. It frames responses by
// Content-Length and checks each one as it streams in — status, length and
// body bytes against the DocStore entry — without copying bodies, so the
// generator stays cheap next to the server it measures. The same reader
// serves the blocking closed-loop sessions and the nonblocking open-loop
// generator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/socket.h"

namespace perfbench {

/// What a response must look like to count as correct.
struct Expectation {
  bool head = false;
  /// The exact entity a 200 must carry (its size is the Content-Length a
  /// HEAD must announce). Never null for a request the benchmark sends.
  const std::string* body = nullptr;
};

/// Incremental response reader and checker.
class ResponseReader {
 public:
  void start(const Expectation& expect);
  /// Consumes up to `n` bytes and returns how many it used; stops at the
  /// end of the response. done() or failed() once the outcome is known.
  std::size_t feed(const char* data, std::size_t n);

  [[nodiscard]] bool done() const noexcept { return state_ == State::kDone; }
  [[nodiscard]] bool failed() const noexcept {
    return state_ == State::kFailed;
  }
  [[nodiscard]] bool started() const noexcept { return received_ > 0; }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }
  [[nodiscard]] int status() const noexcept { return status_; }
  [[nodiscard]] bool keep_alive() const noexcept { return keep_alive_; }
  [[nodiscard]] const std::string& location() const noexcept {
    return location_;
  }
  [[nodiscard]] std::uint64_t body_bytes() const noexcept {
    return body_seen_;
  }
  void fail(std::string why);

 private:
  enum class State { kHead, kBody, kDone, kFailed };
  void parse_head();

  Expectation expect_;
  State state_ = State::kHead;
  std::string head_;
  std::uint64_t received_ = 0;
  int status_ = 0;
  bool keep_alive_ = false;
  std::string location_;
  std::uint64_t body_needed_ = 0;
  std::uint64_t body_seen_ = 0;
  bool check_body_ = false;
  std::string error_;
};

/// One keep-alive TCP connection to a node on loopback.
class Connection {
 public:
  Connection() : buf_(64 * 1024) {}

  [[nodiscard]] bool connect(std::uint16_t port, bool nonblocking);
  void close() noexcept;
  [[nodiscard]] bool open() const noexcept { return stream_.valid(); }
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] int fd() const noexcept { return stream_.fd(); }

  /// Sends the whole request (requests are small: one send normally).
  [[nodiscard]] bool send_all(std::string_view bytes);
  /// Reads (busy-polling briefly, then blocking) until `reader` completes
  /// or fails. Returns false on a
  /// transport failure, EOF or timeout; `stale` is set when the peer had
  /// closed the connection before sending any byte of the response.
  [[nodiscard]] bool receive(ResponseReader& reader, bool& stale);
  /// Nonblocking: feeds whatever is readable into `reader`. False on a
  /// transport failure or EOF before the response completed.
  [[nodiscard]] bool pump(ResponseReader& reader);

 private:
  /// Bytes left over after a response mean the server sent more than it
  /// framed (e.g. a body on a HEAD): the reader fails.
  void feed_all(ResponseReader& reader, std::size_t n);

  sweb::runtime::TcpStream stream_;
  std::uint16_t port_ = 0;
  std::vector<char> buf_;
};

/// "METHOD target HTTP/1.0" with Host and Connection: Keep-Alive, plus a
/// form body for POST; appended to `out`.
void append_request(std::string& out, std::string_view method,
                    std::string_view target, std::uint16_t port,
                    std::string_view post_body);

}  // namespace perfbench
