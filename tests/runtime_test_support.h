// Helpers shared by the runtime tests: a small corpus, a wall-clock poll
// for threaded clusters, a response reader, and the stepping loop that
// drives a never-started MiniCluster on the test's own thread.
#pragma once

#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <thread>

#include "fs/docbase.h"
#include "http/message.h"
#include "http/parser.h"
#include "runtime/mini_cluster.h"
#include "runtime/socket.h"

namespace sweb::runtime {

/// 12 documents of 4 KiB, /docs/file<i>.html owned by node i % nodes.
inline fs::Docbase small_docbase(int nodes) {
  return fs::make_uniform(12, 4096, nodes, fs::Placement::kRoundRobin,
                          nullptr, "/docs");
}

/// Spins until `predicate` holds or `timeout` passes; true on success.
template <typename Predicate>
[[nodiscard]] bool eventually(
    Predicate predicate,
    std::chrono::milliseconds timeout = std::chrono::milliseconds{5000}) {
  const Deadline deadline = deadline_after(timeout);
  while (!predicate()) {
    if (time_remaining(deadline) <= std::chrono::milliseconds{0}) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds{2});
  }
  return true;
}

/// Reads one full HTTP response off `stream` (EOF- or
/// Content-Length-framed); nullopt on failure/timeout.
[[nodiscard]] inline std::optional<http::Response> try_read_response(
    TcpStream& stream,
    std::chrono::milliseconds timeout = std::chrono::milliseconds{2000}) {
  http::ResponseParser parser;
  http::ParseResult state = http::ParseResult::kNeedMore;
  const Deadline deadline = deadline_after(timeout);
  while (state == http::ParseResult::kNeedMore) {
    const auto chunk = stream.read_some(16 * 1024, time_remaining(deadline));
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

/// try_read_response that fails the test when no full response arrives.
[[nodiscard]] inline http::Response read_response(TcpStream& stream) {
  std::optional<http::Response> response = try_read_response(stream);
  EXPECT_TRUE(response.has_value()) << "no complete response";
  return response.value_or(http::Response{});
}

/// Steps a never-started `cluster` (MiniCluster::run_once) until `done()`
/// holds. Fails the test and returns false if it still does not after
/// `max_steps` steps.
template <typename Predicate>
[[nodiscard]] bool step_until(MiniCluster& cluster, Predicate done,
                              int max_steps = 1000) {
  for (int step = 0; step < max_steps; ++step) {
    if (done()) return true;
    cluster.run_once();
  }
  if (done()) return true;
  ADD_FAILURE() << "step bound hit: still not done after " << max_steps
                << " cluster steps";
  return false;
}

}  // namespace sweb::runtime
