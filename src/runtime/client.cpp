#include "runtime/client.h"

#include <algorithm>
#include <cstdlib>
#include <thread>

#include "http/parser.h"
#include "util/strings.h"

namespace sweb::runtime {

using namespace std::chrono_literals;

namespace {

/// One request/response exchange on an already-connected stream;
/// std::nullopt on any failure. With keep_alive the write side stays open
/// (the response is framed by Content-Length); otherwise the client
/// half-closes after writing, HTTP/1.0 style.
[[nodiscard]] std::optional<http::Response> exchange_on(
    TcpStream& stream, const http::Url& url, const FetchOptions& options) {
  http::Request request;
  request.method = options.head          ? http::Method::kHead
                   : options.post_body.empty() ? http::Method::kGet
                                               : http::Method::kPost;
  request.target = url.path + (url.query.empty() ? "" : "?" + url.query);
  request.headers.add("Host", url.host + ":" + std::to_string(url.port));
  request.headers.add("User-Agent", "sweb-client/1.0");
  if (options.keep_alive) request.headers.add("Connection", "Keep-Alive");
  if (!options.post_body.empty()) {
    request.headers.add("Content-Type", options.post_content_type);
    request.headers.add("Content-Length",
                        std::to_string(options.post_body.size()));
    request.body = options.post_body;
  }
  if (!stream.write_all(request.serialize(), options.timeout)) {
    return std::nullopt;
  }
  if (!options.keep_alive) stream.shutdown_write();

  http::ResponseParser parser;
  parser.expect_head_response(options.head);
  http::ParseResult state = http::ParseResult::kNeedMore;
  // One overall deadline for the whole response, however many reads.
  const Deadline deadline = deadline_after(options.timeout);
  while (state == http::ParseResult::kNeedMore) {
    const auto chunk = stream.read_some(64 * 1024, time_remaining(deadline));
    if (!chunk.ok) return std::nullopt;
    if (chunk.eof) {
      state = parser.finish_eof();
      break;
    }
    std::size_t consumed = 0;
    state = parser.feed(chunk.data, consumed);
  }
  if (state != http::ParseResult::kComplete) return std::nullopt;
  return parser.message();
}

/// Did the server agree to keep the connection open after this response?
[[nodiscard]] bool server_kept_alive(const http::Response& response) {
  const auto connection = response.headers.get("Connection");
  return connection.has_value() && util::iequals(*connection, "keep-alive");
}

/// `url` with the at-most-once marker appended, so the node it reaches
/// serves locally instead of redirecting again.
[[nodiscard]] std::string with_hop_marker(const std::string& url) {
  if (url.find("sweb-hop=1") != std::string::npos) return url;
  return url +
         (url.find('?') == std::string::npos ? "?sweb-hop=1" : "&sweb-hop=1");
}

/// A 503's Retry-After as a sleep; nullopt when absent or unparseable.
/// Lenient delta-seconds: fractions accepted ("1.5"), dates are not.
[[nodiscard]] std::optional<std::chrono::milliseconds> retry_after_of(
    const http::Response& response) {
  const auto header = response.headers.get("Retry-After");
  if (!header) return std::nullopt;
  const std::string text(*header);
  char* end = nullptr;
  const double seconds = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || seconds < 0.0 || seconds > 3600.0) {
    return std::nullopt;
  }
  return std::chrono::ceil<std::chrono::milliseconds>(
      std::chrono::duration<double>(seconds));
}

}  // namespace

FetchSession::FetchSession(FetchOptions options)
    : options_(std::move(options)), rng_(options_.retry.seed) {}

void FetchSession::count(const char* name) {
  if (options_.registry != nullptr) options_.registry->counter(name).inc();
}

std::chrono::milliseconds FetchSession::next_backoff() {
  const std::int64_t base =
      std::max<std::int64_t>(1, options_.retry.base_backoff.count());
  const std::int64_t cap =
      std::max(base, options_.retry.max_backoff.count());
  // Decorrelated jitter: uniform over [base, 3 * previous sleep], capped.
  // Unlike plain exponential-with-jitter, consecutive sleeps decorrelate
  // from each other, so a herd of clients shed at once spreads out.
  const std::int64_t high = std::max(base, 3 * prev_backoff_ms_);
  std::uniform_int_distribution<std::int64_t> dist(base, high);
  prev_backoff_ms_ = std::min(cap, dist(rng_));
  return std::chrono::milliseconds(prev_backoff_ms_);
}

std::chrono::milliseconds FetchSession::jittered_floor(
    std::chrono::milliseconds floor) {
  const std::int64_t extra_max = static_cast<std::int64_t>(
      static_cast<double>(floor.count()) *
      std::max(0.0, options_.retry.retry_after_spread));
  if (extra_max <= 0) return floor;
  std::uniform_int_distribution<std::int64_t> dist(0, extra_max);
  return floor + std::chrono::milliseconds(dist(rng_));
}

std::optional<http::Response> FetchSession::exchange(const http::Url& url,
                                                     ExchangeError& error) {
  error = ExchangeError::kNone;
  if (options_.keep_alive && stream_.has_value() &&
      connected_port_ == url.port) {
    if (auto response = exchange_on(*stream_, url, options_)) {
      if (!server_kept_alive(*response)) stream_.reset();
      return response;
    }
    // The reused connection was stale (server hit its per-connection cap
    // or idle-timed-out between requests). No hidden retry here: surface
    // the failure and let the one retry policy recover on a fresh
    // connection.
    stream_.reset();
    error = ExchangeError::kIo;
    return std::nullopt;
  }
  // Loopback-only client: the MiniCluster lives on 127.0.0.1.
  auto fresh = TcpStream::connect(SocketAddress::loopback(url.port),
                                  options_.timeout);
  if (!fresh) {
    error = ExchangeError::kConnect;
    return std::nullopt;
  }
  ++connections_opened_;
  stream_ = std::move(*fresh);
  connected_port_ = url.port;
  auto response = exchange_on(*stream_, url, options_);
  if (!response || !options_.keep_alive || !server_kept_alive(*response)) {
    stream_.reset();
  }
  if (!response) error = ExchangeError::kIo;
  return response;
}

FetchSession::Attempt FetchSession::attempt_once(const std::string& url) {
  Attempt out;
  auto parsed = http::parse_url(url);
  if (!parsed) return out;  // kFatal
  out.result.final_url = url;
  for (int hop = 0; hop <= options_.max_redirects; ++hop) {
    ExchangeError error = ExchangeError::kNone;
    auto response = exchange(*parsed, error);
    if (!response) {
      if (error == ExchangeError::kConnect) {
        // A Location hop whose connect failed led to a dead target (the
        // node crashed between the 302 and our connect): the
        // origin-fallback case. Any other hop failure may have reached
        // the target's handler, so it is a transport failure.
        out.status = hop > 0 ? Attempt::Status::kDeadHop
                             : Attempt::Status::kNoConnect;
      } else {
        out.status = Attempt::Status::kTransport;
      }
      return out;
    }
    const int status = http::code(response->status);
    if (status >= 300 && status < 400) {
      const auto location = response->headers.get("Location");
      // A redirect without a Location header is malformed — there is
      // nowhere to go, so fail instead of dereferencing nothing.
      if (!location) return out;  // kFatal
      auto next = http::parse_url(std::string(*location));
      if (!next) return out;  // kFatal
      parsed = std::move(next);
      out.result.final_url = std::string(*location);
      ++out.result.redirects_followed;
      continue;
    }
    out.status = Attempt::Status::kOk;
    out.result.response = std::move(*response);
    return out;
  }
  return out;  // too many redirects: kFatal
}

std::optional<FetchResult> FetchSession::fetch(const std::string& url) {
  const RetryPolicy& policy = options_.retry;
  // Only idempotent requests are resent; the dead-hop origin fallback is
  // exempt because the dead target's connect failed, so it provably never
  // saw the request.
  const bool idempotent = options_.post_body.empty();
  const int max_attempts = std::max(1, policy.max_attempts);
  const Deadline budget = deadline_after(policy.total_deadline);
  prev_backoff_ms_ = 0;

  std::string attempt_url = url;
  bool fell_back = false;
  std::optional<FetchResult> shed_in_hand;  // last 503, returned on give-up
  for (int attempts = 1;; ++attempts) {
    Attempt attempt = attempt_once(attempt_url);
    std::chrono::milliseconds floor{0};  // server-imposed minimum sleep
    bool retryable = false;
    switch (attempt.status) {
      case Attempt::Status::kOk: {
        attempt.result.attempts = attempts;
        attempt.result.origin_fallback = fell_back;
        if (http::code(attempt.result.response.status) != 503) {
          return attempt.result;
        }
        // Shed. Retry after at least the server's Retry-After hint; on
        // give-up the 503 is the answer, not a nullopt.
        if (const auto hint = retry_after_of(attempt.result.response)) {
          floor = *hint;
        }
        shed_in_hand = std::move(attempt.result);
        retryable = idempotent;
        break;
      }
      case Attempt::Status::kFatal:
        return std::nullopt;
      case Attempt::Status::kDeadHop:
        // Re-ask the origin, forced local — safe for any method.
        attempt_url = with_hop_marker(url);
        fell_back = true;
        retryable = true;
        break;
      case Attempt::Status::kNoConnect:
      case Attempt::Status::kTransport:
        retryable = idempotent;
        break;
    }
    if (!retryable || attempts >= max_attempts) break;
    // The dead-hop fallback goes immediately — it targets a different
    // (live) node, so there is no one to back off from. Everything else
    // sleeps the jittered backoff, within the total deadline.
    if (attempt.status != Attempt::Status::kDeadHop) {
      // A server-imposed Retry-After floor gets the comeback jitter: the
      // whole herd holds the same hint, so sleeping it exactly would
      // synchronize the retry wave the moment it expires.
      const auto sleep =
          floor > 0ms ? std::max(jittered_floor(floor), next_backoff())
                      : next_backoff();
      if (sleep >= time_remaining(budget)) break;  // budget exhausted
      std::this_thread::sleep_for(sleep);
    } else if (time_remaining(budget) <= 0ms) {
      break;
    }
    count("client.retries");
  }
  if (shed_in_hand.has_value()) return shed_in_hand;
  if (idempotent) count("client.retry_exhausted");
  return std::nullopt;
}

std::optional<FetchResult> fetch(const std::string& url,
                                 const FetchOptions& options) {
  FetchSession session(options);
  return session.fetch(url);
}

}  // namespace sweb::runtime
