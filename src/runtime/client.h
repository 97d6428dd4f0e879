// Redirect-following HTTP client for the real runtime.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <random>
#include <string>

#include "http/message.h"
#include "http/url.h"
#include "obs/registry.h"
#include "runtime/socket.h"

namespace sweb::runtime {

/// How the client retries a fetch that failed in a recoverable way: a
/// connect that never went through, a connection that died mid-exchange, a
/// redirect hop to a dead node, or a 503 shed. One policy, one loop — there
/// is no other retry path in the client.
///
/// Only idempotent requests (GET/HEAD) are retried; a POST is never resent,
/// with one exception: the dead-redirect origin fallback, where the connect
/// to the redirect target failed, so the target provably never received
/// the request and re-asking the origin — with `sweb-hop=1` set to force
/// local service — is safe for any method. A hop whose exchange died after
/// the connect (a reset mid-response) may have run the request, so it is a
/// plain transport failure.
struct RetryPolicy {
  /// Total tries, the first included. 1 disables retries (and with them
  /// the dead-redirect origin fallback).
  int max_attempts = 3;
  /// Backoff between attempts: decorrelated jitter,
  /// sleep = min(max_backoff, uniform(base_backoff, 3 * previous sleep)) —
  /// retries from a herd of clients spread out instead of re-colliding.
  std::chrono::milliseconds base_backoff{25};
  std::chrono::milliseconds max_backoff{1000};
  /// Whole-fetch budget across every attempt and backoff sleep; a retry
  /// whose backoff would overrun it is abandoned instead of slept.
  std::chrono::milliseconds total_deadline{10000};
  /// A 503's Retry-After (delta-seconds, fractions allowed) is always
  /// honored, with jitter on top of it: the actual sleep is
  /// uniform over [hint, hint * (1 + retry_after_spread)]. Every client a
  /// shedding server turned away got the *same* hint, so sleeping exactly
  /// the hint would march the whole herd back in one synchronized wave
  /// the second it expires — the spread de-correlates the comeback. 0
  /// restores exact-hint sleeps. The total_deadline still wins: a sleep
  /// that would overrun the budget is abandoned, never taken.
  double retry_after_spread = 0.5;
  /// Seed for the jitter RNG — reproducible backoff sequences in tests.
  std::uint64_t seed = 0x5eb7e7c4ULL;
};

struct FetchResult {
  http::Response response;
  int redirects_followed = 0;
  std::string final_url;
  /// True when a redirect target was dead (its connect failed) and the
  /// response came from retrying the origin with the at-most-once marker
  /// set, forcing it to serve locally.
  bool origin_fallback = false;
  /// Attempts the retry policy spent, the successful one included (1 =
  /// first try succeeded).
  int attempts = 1;
};

struct FetchOptions {
  int max_redirects = 4;
  std::chrono::milliseconds timeout{3000};
  bool head = false;  // HEAD instead of GET
  /// Send "Connection: Keep-Alive" and keep the TCP connection open for
  /// reuse (across redirect hops in one fetch, and across fetches in a
  /// FetchSession) for as long as the server agrees. Off by default: the
  /// one-shot client half-closes after writing, HTTP/1.0 style.
  bool keep_alive = false;
  // Non-empty body turns the request into a POST (CGI endpoints).
  std::string post_body;
  std::string post_content_type = "application/x-www-form-urlencoded";
  /// Retry behavior for recoverable failures (see RetryPolicy).
  RetryPolicy retry;
  /// Optional metrics sink: client.retries / client.retry_exhausted land
  /// here (the cluster registry in tests and benches).
  obs::Registry* registry = nullptr;
};

/// A client that can hold its TCP connection open between requests.
/// With options.keep_alive, consecutive fetches against the same host:port
/// reuse one connection as long as the server answers "Keep-Alive" —
/// exercising the server's keep-alive path end-to-end. A reused connection
/// the server already closed (per-connection cap, idle timeout) surfaces as
/// a transport failure, which the retry policy recovers on a fresh one.
class FetchSession {
 public:
  explicit FetchSession(FetchOptions options = {});

  /// Fetches `url` (absolute http:// form), following up to
  /// options.max_redirects Location hops, under options.retry: dead
  /// redirect targets (refused connects, retried at once against the
  /// origin with `sweb-hop=1` appended so it serves locally), and — for
  /// idempotent requests only — transport failures and 503 sheds, retried
  /// with backoff until the policy's attempt count or deadline budget runs
  /// out. std::nullopt on non-recoverable failures (malformed
  /// response, 3xx without Location, redirect loop overflow) and on retry
  /// exhaustion without a response in hand; exhaustion holding a 503
  /// returns that 503 so the caller sees what the server last said.
  [[nodiscard]] std::optional<FetchResult> fetch(const std::string& url);

  /// TCP connections opened so far — fetches minus reuses.
  [[nodiscard]] int connections_opened() const noexcept {
    return connections_opened_;
  }

 private:
  /// Why an exchange produced no response.
  enum class ExchangeError {
    kNone,
    kConnect,  // never connected: the request was provably not sent
    kIo,       // connected but the exchange died (write/read/parse)
  };
  /// One full attempt: follow redirects until a final response, a dead
  /// hop, or a failure.
  struct Attempt {
    enum class Status {
      kOk,         // result holds a response (any status code)
      kNoConnect,  // origin unreachable, request never sent
      kTransport,  // origin reached but the exchange died mid-flight
      kDeadHop,    // a redirect target refused the connect; origin fallback
      kFatal,      // malformed URL/redirect, hop overflow: never retry
    };
    Status status = Status::kFatal;
    FetchResult result;
  };
  [[nodiscard]] Attempt attempt_once(const std::string& url);
  [[nodiscard]] std::optional<http::Response> exchange(const http::Url& url,
                                                       ExchangeError& error);
  /// Next decorrelated-jitter backoff (advances prev_backoff_).
  [[nodiscard]] std::chrono::milliseconds next_backoff();
  /// A server-imposed Retry-After floor with the policy's comeback
  /// jitter applied: uniform over [floor, floor * (1 + spread)].
  [[nodiscard]] std::chrono::milliseconds jittered_floor(
      std::chrono::milliseconds floor);
  void count(const char* name);

  FetchOptions options_;
  std::optional<TcpStream> stream_;
  std::uint16_t connected_port_ = 0;
  int connections_opened_ = 0;
  std::mt19937_64 rng_;
  std::int64_t prev_backoff_ms_ = 0;
};

/// One-shot convenience wrapper: a fresh FetchSession per call.
[[nodiscard]] std::optional<FetchResult> fetch(const std::string& url,
                                               const FetchOptions& options = {});

}  // namespace sweb::runtime
