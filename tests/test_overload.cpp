// Overload control, unit to cluster: the OverloadController state machine
// in isolation (synthetic signal feeds, hysteresis bounds, drain pricing),
// brownout admission on a live MiniCluster (resident documents keep
// serving while CGI and copy-path documents shed), broker route-around via
// the LoadBoard overload flag, connection-cap shedding under keep-alive
// churn, shedding at accept, and the client-side deadline guarantee
// against hostile Retry-After hints.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fs/docbase.h"
#include "http/message.h"
#include "http/parser.h"
#include "runtime/client.h"
#include "runtime/load_board.h"
#include "runtime/mini_cluster.h"
#include "runtime/overload.h"
#include "runtime/socket.h"
#include "runtime_test_support.h"

namespace sweb::runtime {
namespace {

using namespace std::chrono_literals;

/// One request on an already-open keep-alive connection.
[[nodiscard]] std::optional<http::Response> keepalive_get(
    TcpStream& stream, const std::string& path) {
  const std::string request = "GET " + path +
                              " HTTP/1.0\r\n"
                              "Host: 127.0.0.1\r\n"
                              "Connection: Keep-Alive\r\n\r\n";
  if (!stream.write_all(request, 2000ms)) return std::nullopt;
  return try_read_response(stream);
}

/// Enabled params with thresholds sized for synthetic feeds: brownout at
/// 50 ms, shedding at 250 ms, 1 s dwell — the defaults, switched on.
[[nodiscard]] OverloadParams enabled_params() {
  OverloadParams params;
  params.enabled = true;
  return params;
}

// --- OverloadController in isolation ---------------------------------------

TEST(OverloadController, DisabledControllerNeverLeavesHealthy) {
  OverloadController controller;  // params.enabled = false
  ASSERT_FALSE(controller.enabled());
  for (int i = 0; i < 10; ++i) {
    controller.record_queue_delay(1.0, 5.0);  // catastrophic queue delay
  }
  EXPECT_EQ(controller.evaluate(1.0, 100, 10), OverloadState::kHealthy);
  // The estimate is still published for status/observability...
  EXPECT_GT(controller.queue_delay_estimate_s(), 1.0);
  // ...but the state machine stays parked.
  EXPECT_EQ(controller.state(), OverloadState::kHealthy);
  EXPECT_EQ(controller.transitions(), 0u);
}

TEST(OverloadController, UpgradesFireImmediately) {
  OverloadController controller(enabled_params());
  // One loop tick of bad news is enough: no dwell on the way up.
  controller.record_queue_delay(1.0, 0.080);
  EXPECT_EQ(controller.evaluate(1.0, 1, 64), OverloadState::kBrownout);
  controller.record_queue_delay(1.1, 0.900);
  EXPECT_EQ(controller.evaluate(1.1, 1, 64), OverloadState::kShedding);
  EXPECT_EQ(controller.transitions(), 2u);
}

TEST(OverloadController, HealthyJumpsStraightToSheddingOnCollapse) {
  OverloadController controller(enabled_params());
  controller.record_queue_delay(1.0, 1.0);  // far past shed_enter
  EXPECT_EQ(controller.evaluate(1.0, 1, 64), OverloadState::kShedding);
  EXPECT_EQ(controller.transitions(), 1u);  // one jump, not two steps
}

TEST(OverloadController, UtilizationAloneTriggersBrownout) {
  OverloadController controller(enabled_params());
  // No queue-delay samples at all: the in-flight/capacity ratio crossing
  // brownout_utilization is an independent trigger (the cap is about to
  // shed anyway; degrade before the cliff).
  EXPECT_EQ(controller.evaluate(1.0, 58, 64), OverloadState::kBrownout);
  EXPECT_DOUBLE_EQ(controller.queue_delay_estimate_s(), 0.0);
}

TEST(OverloadController, DowngradeWaitsForDwellAndExitThreshold) {
  OverloadController controller(enabled_params());
  controller.record_queue_delay(1.0, 0.080);
  ASSERT_EQ(controller.evaluate(1.0, 1, 64), OverloadState::kBrownout);

  // 0.5 s later the estimate has fully decayed (the sample aged out of
  // the 2 s horizon? no — it is still inside; feed a clean sample so the
  // mean lands between exit (20 ms) and enter (50 ms): the hysteresis
  // band, where nothing may change no matter how long we dwell).
  controller.record_queue_delay(1.5, 0.0);  // mean now 40 ms
  EXPECT_EQ(controller.evaluate(2.5, 1, 64), OverloadState::kBrownout);

  // Past the horizon every old sample is gone and the estimate is clean,
  // but the dwell clock restarts with each state change, not each call:
  // entered at t=1.0, so t=1.9 is still inside min_dwell_s = 1 s.
  EXPECT_EQ(controller.evaluate(1.9, 1, 64), OverloadState::kBrownout);
  // t=4.0: dwell satisfied AND estimate (no samples left) below exit.
  EXPECT_EQ(controller.evaluate(4.0, 1, 64), OverloadState::kHealthy);
  EXPECT_EQ(controller.transitions(), 2u);
}

TEST(OverloadController, SheddingStepsDownOneStateAtATime) {
  OverloadController controller(enabled_params());
  controller.record_queue_delay(1.0, 1.0);
  ASSERT_EQ(controller.evaluate(1.0, 1, 64), OverloadState::kShedding);
  // Ten quiet seconds later the estimate is zero — but recovery must walk
  // shedding -> brownout -> healthy, one dwell apiece, never a single
  // leap back to full admission into a still-fragile node.
  EXPECT_EQ(controller.evaluate(11.0, 1, 64), OverloadState::kBrownout);
  EXPECT_EQ(controller.evaluate(11.5, 1, 64), OverloadState::kBrownout);
  EXPECT_EQ(controller.evaluate(12.5, 1, 64), OverloadState::kHealthy);
  EXPECT_EQ(controller.transitions(), 3u);
}

TEST(OverloadController, HighUtilizationBlocksBrownoutExit) {
  OverloadController controller(enabled_params());
  controller.record_queue_delay(1.0, 0.080);
  ASSERT_EQ(controller.evaluate(1.0, 1, 64), OverloadState::kBrownout);
  // Queue delay recovered (samples aged out) but the node is still
  // running at 95% of its admission cap: brownout holds.
  EXPECT_EQ(controller.evaluate(5.0, 61, 64), OverloadState::kBrownout);
  EXPECT_EQ(controller.evaluate(6.0, 10, 64), OverloadState::kHealthy);
}

TEST(OverloadController, DrainEstimatePricesRetryAfter) {
  OverloadController controller(enabled_params());
  // 6 completions over the 2 s horizon -> 3 rps; 12 in flight -> 4 s.
  for (int i = 0; i < 6; ++i) {
    controller.record_completion(9.0 + 0.1 * i);
  }
  (void)controller.evaluate(10.0, 12, 64);
  EXPECT_NEAR(controller.completion_rate_rps(), 3.0, 1e-9);
  EXPECT_NEAR(controller.estimated_drain_s(), 4.0, 1e-9);
  EXPECT_EQ(controller.retry_after_seconds(/*fallback_hint_s=*/0.0), 4);
}

TEST(OverloadController, RetryAfterRoundsUpAndClamps) {
  OverloadController fresh(enabled_params());
  // No signal at all: the fallback hint is used, rounded UP — 0.2 s must
  // become "1", never "0" (which clients read as "come back right now").
  EXPECT_EQ(fresh.retry_after_seconds(0.2), 1);
  EXPECT_EQ(fresh.retry_after_seconds(0.0), 1);
  EXPECT_EQ(fresh.retry_after_seconds(1.5), 2);
  EXPECT_EQ(fresh.retry_after_seconds(999.0), 120);  // clamp high

  // Fractional drain estimates round up too: 5 in flight at the 1 rps
  // floor (no completions observed) is 5 s even though 4.2 s "fits".
  OverloadController stalled(enabled_params());
  (void)stalled.evaluate(1.0, 5, 64);
  EXPECT_EQ(stalled.retry_after_seconds(0.0), 5);
  // A huge backlog cannot advertise more than the 120 s ceiling.
  OverloadController buried(enabled_params());
  (void)buried.evaluate(1.0, 100000, 64);
  EXPECT_EQ(buried.retry_after_seconds(0.0), 120);
}

TEST(OverloadController, ForceStateCountsTransitionsOnChangeOnly) {
  OverloadController controller;  // disabled: evaluate() never fights back
  controller.force_state(OverloadState::kBrownout, 1.0);
  controller.force_state(OverloadState::kBrownout, 2.0);  // no-op
  controller.force_state(OverloadState::kShedding, 3.0);
  EXPECT_EQ(controller.state(), OverloadState::kShedding);
  EXPECT_EQ(controller.transitions(), 2u);
  EXPECT_EQ(controller.evaluate(4.0, 0, 64), OverloadState::kShedding);
}

TEST(OverloadController, SampleWindowTrimsByAgeAndCount) {
  OverloadParams params = enabled_params();
  params.max_samples = 4;
  OverloadController controller(params);
  // Six samples at the same instant: the count bound keeps the last 4.
  for (int i = 0; i < 6; ++i) {
    controller.record_queue_delay(1.0, i < 2 ? 100.0 : 0.004);
  }
  (void)controller.evaluate(1.0, 0, 64);
  EXPECT_NEAR(controller.queue_delay_estimate_s(), 0.004, 1e-9);
  // Past the horizon everything ages out and the estimate returns to 0.
  (void)controller.evaluate(10.0, 0, 64);
  EXPECT_DOUBLE_EQ(controller.queue_delay_estimate_s(), 0.0);
}

TEST(LoadBoard, OverloadFlagRoundTrips) {
  LoadBoard board(2);
  EXPECT_FALSE(board.snapshot(1).overloaded);
  board.set_overloaded(1, true);
  EXPECT_TRUE(board.snapshot(1).overloaded);
  EXPECT_FALSE(board.snapshot(0).overloaded);
  board.set_overloaded(1, false);
  EXPECT_FALSE(board.snapshot(1).overloaded);
}

// --- Brownout admission on a live cluster -----------------------------------

TEST(Overload, BrownoutServesResidentShedsCgiAndColdDocuments) {
  MiniCluster cluster(2, small_docbase(2));
  cluster.docs_mutable().register_cgi(
      "/cgi/render.cgi", /*owner=*/0,
      [](const http::Request&, std::string_view) {
        return http::make_ok("rendered", "text/plain");
      });
  cluster.start();
  const std::string node0 =
      "http://127.0.0.1:" + std::to_string(cluster.port(0));

  // Warm file0 (owned by node 0) into node 0's page cache.
  const auto warm = fetch(node0 + "/docs/file0.html?sweb-hop=1");
  ASSERT_TRUE(warm.has_value());
  ASSERT_EQ(http::code(warm->response.status), 200);
  ASSERT_TRUE(cluster.caches().node(0).contains("/docs/file0.html"));
  ASSERT_FALSE(cluster.caches().node(0).contains("/docs/file2.html"));

  // Pin node 0 browned-out (controller disabled -> the pin holds).
  cluster.node(0).force_overload(OverloadState::kBrownout);
  ASSERT_TRUE(
      eventually([&] { return cluster.board().snapshot(0).overloaded; }));

  FetchOptions one_shot;
  one_shot.retry.max_attempts = 1;  // observe the 503s, don't retry them

  // Resident document: still served, zero-copy, by the browned-out node.
  const auto resident = fetch(node0 + "/docs/file0.html?sweb-hop=1", one_shot);
  ASSERT_TRUE(resident.has_value());
  EXPECT_EQ(http::code(resident->response.status), 200);
  EXPECT_EQ(resident->response.headers.get("X-Sweb-Node"), "0");

  // CGI: the CPU-bound class is shed with 503 + Retry-After.
  const auto dynamic = fetch(node0 + "/cgi/render.cgi?sweb-hop=1", one_shot);
  ASSERT_TRUE(dynamic.has_value());
  EXPECT_EQ(http::code(dynamic->response.status), 503);
  EXPECT_TRUE(dynamic->response.headers.has("Retry-After"));
  EXPECT_GE(cluster.node(0).overload_shed_cgi(), 1u);

  // A document that would need the copy path (not cache-resident): shed.
  const auto cold = fetch(node0 + "/docs/file2.html?sweb-hop=1", one_shot);
  ASSERT_TRUE(cold.has_value());
  EXPECT_EQ(http::code(cold->response.status), 503);
  EXPECT_TRUE(cold->response.headers.has("Retry-After"));
  EXPECT_GE(cluster.node(0).overload_shed_uncached(), 1u);

  // HEAD moves headers only — cheap enough to keep answering in brownout.
  FetchOptions head = one_shot;
  head.head = true;
  const auto head_cold = fetch(node0 + "/docs/file2.html?sweb-hop=1", head);
  ASSERT_TRUE(head_cold.has_value());
  EXPECT_EQ(http::code(head_cold->response.status), 200);

  // Route-around: node 1's broker sees the overload flag and serves a
  // node-0-owned document itself instead of aiming a 302 at the degraded
  // peer.
  const std::string node1 =
      "http://127.0.0.1:" + std::to_string(cluster.port(1));
  const auto routed = fetch(node1 + "/docs/file0.html", one_shot);
  ASSERT_TRUE(routed.has_value());
  EXPECT_EQ(http::code(routed->response.status), 200);
  EXPECT_EQ(routed->response.headers.get("X-Sweb-Node"), "1");
  EXPECT_EQ(routed->redirects_followed, 0);

  // Recovery: lift the pin and node 0 serves everything again.
  cluster.node(0).force_overload(OverloadState::kHealthy);
  ASSERT_TRUE(
      eventually([&] { return !cluster.board().snapshot(0).overloaded; }));
  const auto recovered = fetch(node0 + "/cgi/render.cgi?sweb-hop=1", one_shot);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(http::code(recovered->response.status), 200);
}

TEST(Overload, StatusEndpointReportsOverloadBlock) {
  MiniClusterOptions options;
  options.overload.enabled = true;
  MiniCluster cluster(1, small_docbase(1), options);
  cluster.start();
  const auto status = fetch("http://127.0.0.1:" +
                            std::to_string(cluster.port(0)) + "/sweb/status");
  ASSERT_TRUE(status.has_value());
  const std::string& body = status->response.body;
  EXPECT_NE(body.find("\"overload\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"enabled\":true"), std::string::npos) << body;
  EXPECT_NE(body.find("\"state\":\"healthy\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"queue_delay_estimate_s\":"), std::string::npos);
  EXPECT_NE(body.find("\"estimated_drain_s\":"), std::string::npos);
  EXPECT_NE(body.find("\"retry_after_s\":"), std::string::npos);
  EXPECT_NE(body.find("\"overloaded\":false"), std::string::npos);
}

// --- Shedding at accept ------------------------------------------------------

TEST(Overload, SheddingRefusesAtAcceptAndRecovers) {
  MiniCluster cluster(1, small_docbase(1));
  cluster.start();
  cluster.node(0).force_overload(OverloadState::kShedding);
  ASSERT_TRUE(
      eventually([&] { return cluster.board().snapshot(0).overloaded; }));

  // Even a request for a perfectly cheap document is refused up front —
  // past the shed threshold, parsing it is work the node cannot spare.
  auto refused =
      TcpStream::connect(SocketAddress::loopback(cluster.port(0)), 2000ms);
  ASSERT_TRUE(refused.has_value());
  const auto response = try_read_response(*refused);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(http::code(response->status), 503);
  const auto retry_after = response->headers.get("Retry-After");
  ASSERT_TRUE(retry_after.has_value());
  EXPECT_GE(std::stoi(std::string(*retry_after)), 1);
  EXPECT_LE(std::stoi(std::string(*retry_after)), 120);
  EXPECT_GE(cluster.node(0).overload_shed_accept(), 1u);

  cluster.node(0).force_overload(OverloadState::kHealthy);
  const auto served = fetch("http://127.0.0.1:" +
                            std::to_string(cluster.port(0)) +
                            "/docs/file0.html");
  ASSERT_TRUE(served.has_value());
  EXPECT_EQ(http::code(served->response.status), 200);
}

// --- Connection-cap shedding under keep-alive churn -------------------------

TEST(Overload, ConnectionCapHoldsExactlyUnderKeepAliveChurn) {
  MiniClusterOptions options;
  options.max_connections = 4;
  MiniCluster cluster(1, small_docbase(1), options);
  cluster.start();
  ASSERT_EQ(cluster.node(0).connection_cap(), 4);

  // Fill the cap with idle keep-alive connections, each having completed
  // one request so the server's state machine is parked at kIdle.
  std::vector<TcpStream> held;
  for (int i = 0; i < 4; ++i) {
    auto conn =
        TcpStream::connect(SocketAddress::loopback(cluster.port(0)), 2000ms);
    ASSERT_TRUE(conn.has_value()) << i;
    const auto response = keepalive_get(*conn, "/docs/file0.html");
    ASSERT_TRUE(response.has_value()) << i;
    EXPECT_EQ(http::code(response->status), 200) << i;
    EXPECT_EQ(response->headers.get("Connection"), "Keep-Alive") << i;
    held.push_back(std::move(*conn));
  }
  ASSERT_TRUE(
      eventually([&] { return cluster.node(0).active_connections() == 4; }));

  // The next arrival is refused at accept: 503, Retry-After, closed.
  const auto shed_before = cluster.node(0).shed_count();
  auto fifth =
      TcpStream::connect(SocketAddress::loopback(cluster.port(0)), 2000ms);
  ASSERT_TRUE(fifth.has_value());
  const auto refused = try_read_response(*fifth);
  ASSERT_TRUE(refused.has_value());
  EXPECT_EQ(http::code(refused->status), 503);
  EXPECT_TRUE(refused->headers.has("Retry-After"));
  EXPECT_GT(cluster.node(0).shed_count(), shed_before);
  // The held connections were untouched: all four still answer.
  for (auto& conn : held) {
    const auto again = keepalive_get(conn, "/docs/file1.html");
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(http::code(again->status), 200);
  }

  // Churn: release one slot and the next arrival is admitted — the cap is
  // a high-water mark, not a latch.
  held.pop_back();
  ASSERT_TRUE(
      eventually([&] { return cluster.node(0).active_connections() < 4; }));
  auto sixth =
      TcpStream::connect(SocketAddress::loopback(cluster.port(0)), 2000ms);
  ASSERT_TRUE(sixth.has_value());
  const auto admitted = keepalive_get(*sixth, "/docs/file0.html");
  ASSERT_TRUE(admitted.has_value());
  EXPECT_EQ(http::code(admitted->status), 200);
}

// --- Client deadline vs. hostile Retry-After --------------------------------

TEST(Overload, ClientNeverSleepsPastDeadlineOnHugeRetryAfter) {
  // A server that answers every request with 503 Retry-After: 120. The
  // client's whole-fetch budget is 500 ms: honoring the hint must lose to
  // the deadline — the fetch returns the 503 promptly instead of sleeping
  // two minutes (or at all).
  TcpListener listener(0);
  std::atomic<bool> done{false};
  std::thread server([&listener, &done] {
    while (!done.load()) {
      auto peer = listener.accept(200ms);
      if (!peer) continue;
      (void)peer->read_some(16 * 1024, 1000ms);
      (void)peer->write_all(
          "HTTP/1.0 503 Service Unavailable\r\n"
          "Retry-After: 120\r\n"
          "Content-Length: 0\r\n\r\n",
          1000ms);
    }
  });

  FetchOptions options;
  options.retry.max_attempts = 5;
  options.retry.total_deadline = 500ms;
  const auto start = std::chrono::steady_clock::now();
  const auto result =
      fetch("http://127.0.0.1:" + std::to_string(listener.port()) + "/x",
            options);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  done.store(true);
  server.join();

  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(http::code(result->response.status), 503);
  // Well under one Retry-After period, let alone the 120 s demanded.
  EXPECT_LT(elapsed, 5000ms);
}

}  // namespace
}  // namespace sweb::runtime
