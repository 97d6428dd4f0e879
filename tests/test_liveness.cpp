// Runtime loadd liveness: heartbeat leases, the failure detector
// (leave/join), Δ-inflation expiry, the dead-redirect origin fallback, and
// a chaos drill that crashes a node under closed-loop load and watches the
// broker route around it — then re-admit it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "fs/docbase.h"
#include "obs/registry.h"
#include "runtime/client.h"
#include "runtime/clock.h"
#include "runtime/load_board.h"
#include "runtime/mini_cluster.h"
#include "runtime/socket.h"
#include "runtime_test_support.h"

namespace sweb::runtime {
namespace {

using namespace std::chrono_literals;

/// Threads in this process: the entries of /proc/self/task.
[[nodiscard]] int thread_count() {
  int threads = 0;
  for ([[maybe_unused]] const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++threads;
  }
  return threads;
}

/// MiniCluster options with test-speed liveness (50 ms tick, 250 ms lease).
[[nodiscard]] MiniClusterOptions fast_liveness() {
  MiniClusterOptions options;
  options.heartbeat_period = 50ms;
  options.staleness_timeout = 250ms;
  return options;
}

// --- Board-level unit tests ------------------------------------------------

TEST(Liveness, EntriesStartUnavailableUntilFirstHeartbeat) {
  // A peer whose server never started (or whose start() threw) must not be
  // a redirect candidate: availability is earned by the first heartbeat.
  LoadBoard board(2);
  EXPECT_FALSE(board.snapshot(0).available);
  EXPECT_FALSE(board.snapshot(1).available);
  board.heartbeat(0);
  EXPECT_TRUE(board.snapshot(0).available);
  EXPECT_FALSE(board.snapshot(1).available);
  EXPECT_GE(board.snapshot(0).last_heartbeat_s, 0.0);
  // The initial join is not a "rejoin".
  EXPECT_EQ(board.rejoined_total(), 0u);
}

TEST(Liveness, SweepMarksStaleNodeDownAndHeartbeatRejoins) {
  ManualClock clock;
  LoadBoard board(2, clock);
  board.set_liveness({.staleness_timeout_s = 0.05, .inflation_expiry_s = 10.0});
  obs::Registry registry;
  board.bind_registry(registry);
  board.heartbeat(0);
  board.heartbeat(1);
  EXPECT_EQ(board.sweep_stale(), 0);  // both leases fresh

  clock.advance(49ms);
  board.heartbeat(0);  // node 0 keeps its lease alive; node 1 goes silent
  EXPECT_EQ(board.sweep_stale(), 0);  // node 1's lease: 49 ms, just fresh
  EXPECT_TRUE(board.snapshot(1).available);
  clock.advance(2ms);  // node 1's lease: 51 ms, just stale
  EXPECT_EQ(board.sweep_stale(), 1);
  EXPECT_TRUE(board.snapshot(0).available);
  EXPECT_FALSE(board.snapshot(1).available);
  EXPECT_EQ(board.marked_down_total(), 1u);
  EXPECT_EQ(registry.counter("liveness.marked_down").value(), 1u);
  EXPECT_EQ(registry.gauge("node.1.available").value(), 0);

  // Stamps resuming re-admit the node — the paper's rejoin.
  board.heartbeat(1);
  EXPECT_TRUE(board.snapshot(1).available);
  EXPECT_EQ(board.rejoined_total(), 1u);
  EXPECT_EQ(registry.counter("liveness.rejoined").value(), 1u);
  EXPECT_EQ(registry.gauge("node.1.available").value(), 1);
  // A sweep right after the rejoin must not flap it back down.
  EXPECT_EQ(board.sweep_stale(), 0);
}

TEST(Liveness, SweepIgnoresNodesThatNeverJoined) {
  // A never-started peer is "not in the pool yet", not freshly dead: no
  // marked_down churn for it.
  ManualClock clock;
  LoadBoard board(3, clock);
  board.set_liveness({.staleness_timeout_s = 0.01, .inflation_expiry_s = 10.0});
  board.heartbeat(0);
  clock.advance(9ms);
  EXPECT_EQ(board.sweep_stale(), 0);  // node 0's lease is still fresh
  clock.advance(2ms);
  EXPECT_EQ(board.sweep_stale(), 1);  // only node 0 had a lease to lose
  EXPECT_EQ(board.marked_down_total(), 1u);
}

TEST(Liveness, AbandonedRedirectInflationExpires) {
  // A 302 whose client never follows it (or whose target died) must not
  // leave phantom load on the board forever.
  ManualClock clock;
  LoadBoard board(2, clock);
  board.set_liveness({.staleness_timeout_s = 10.0, .inflation_expiry_s = 0.05});
  obs::Registry registry;
  board.bind_registry(registry);
  board.note_redirected(0, 1);
  board.note_redirected(0, 1);
  EXPECT_EQ(board.snapshot(1).redirect_inflation, 2);
  EXPECT_EQ(registry.gauge("board.redirect_inflation").value(), 2);

  clock.advance(49ms);
  board.sweep_stale();  // just under the expiry: the Δ still counts
  EXPECT_EQ(board.snapshot(1).redirect_inflation, 2);
  EXPECT_EQ(board.inflation_expired_total(), 0u);
  clock.advance(2ms);
  board.sweep_stale();  // any periodic tick expires the stale Δ
  EXPECT_EQ(board.snapshot(1).redirect_inflation, 0);
  EXPECT_EQ(board.snapshot(1).effective_connections(), 0);
  EXPECT_EQ(board.inflation_expired_total(), 2u);
  EXPECT_EQ(registry.counter("board.inflation_expired").value(), 2u);
  EXPECT_EQ(registry.gauge("board.redirect_inflation").value(), 0);
}

TEST(Liveness, ConnectionConsumesInflationBeforeItExpires) {
  LoadBoard board(2);
  board.set_liveness({.staleness_timeout_s = 10.0, .inflation_expiry_s = 60.0});
  board.note_redirected(0, 1);
  board.connection_opened(1, 100);
  EXPECT_EQ(board.snapshot(1).redirect_inflation, 0);
  EXPECT_EQ(board.snapshot(1).active_connections, 1);
  // Consumed, not expired: the expiry bookkeeping went with it.
  board.sweep_stale();
  EXPECT_EQ(board.inflation_expired_total(), 0u);
}

TEST(Liveness, ShedConsumesInflationOnTheBoard) {
  LoadBoard board(2);
  board.note_redirected(0, 1);
  EXPECT_EQ(board.snapshot(1).redirect_inflation, 1);
  board.note_shed(1);
  EXPECT_EQ(board.snapshot(1).redirect_inflation, 0);
  // Shed with nothing outstanding is a no-op, never negative.
  board.note_shed(1);
  EXPECT_EQ(board.snapshot(1).redirect_inflation, 0);
}

TEST(Liveness, GracefulStopAnnouncesLeaveWithoutMarkedDown) {
  const fs::Docbase docs = small_docbase(1);
  const DocStore store(docs);
  LoadBoard board(1);
  NodeServer::Config cfg;
  cfg.node_id = 0;
  NodeServer server(cfg, store, board);
  server.set_peer_ports({server.port()});
  EXPECT_FALSE(board.snapshot(0).available);
  server.start();
  EXPECT_TRUE(board.snapshot(0).available);  // joined synchronously
  server.stop();
  EXPECT_FALSE(board.snapshot(0).available);
  EXPECT_EQ(board.marked_down_total(), 0u);  // announced, not detected
}

// --- Server-level tests ----------------------------------------------------

TEST(Liveness, ShedConnectionConsumesInflationEndToEnd) {
  // A shed connection never reaches connection_opened, so the 503 path
  // itself must consume the Δ a redirect placed on the overloaded node.
  NodeServer::Config cfg;
  cfg.node_id = 0;
  cfg.max_connections = 2;
  cfg.io_timeout = 5000ms;
  const fs::Docbase docs = small_docbase(1);
  const DocStore store(docs);
  LoadBoard board(1);
  NodeServer server(cfg, store, board);
  server.set_peer_ports({server.port()});
  server.start();
  board.note_redirected(0, 0);  // a peer aimed a redirect at this node
  EXPECT_EQ(board.snapshot(0).redirect_inflation, 1);

  // A and B fill both connection slots, C is shed with 503.
  auto a = TcpStream::connect(SocketAddress::loopback(server.port()), 2000ms);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(
      eventually([&server] { return server.active_connections() == 1; }));
  auto b = TcpStream::connect(SocketAddress::loopback(server.port()), 2000ms);
  ASSERT_TRUE(b.has_value());
  ASSERT_TRUE(
      eventually([&server] { return server.active_connections() == 2; }));
  auto c = TcpStream::connect(SocketAddress::loopback(server.port()), 2000ms);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(http::code(read_response(*c).status), 503);
  EXPECT_EQ(board.snapshot(0).redirect_inflation, 0);
  server.stop();
}

TEST(Liveness, BrokerWeighsBytesInFlightNotJustConnections) {
  // Node 1 owns file1 but is streaming a huge document: one connection,
  // hundreds of MB in flight. With the bytes term the broker must stop
  // treating it as the obvious locality target.
  MiniCluster cluster(2, small_docbase(2));
  cluster.start();
  cluster.board().connection_opened(1, 512ull * 1024 * 1024);
  const std::string url =
      "http://127.0.0.1:" + std::to_string(cluster.port(0)) +
      "/docs/file1.html";
  const auto busy = fetch(url);
  ASSERT_TRUE(busy.has_value());
  EXPECT_EQ(http::code(busy->response.status), 200);
  EXPECT_EQ(busy->redirects_followed, 0);
  EXPECT_EQ(busy->response.headers.get("X-Sweb-Node"), "0");

  // Stream done: the bytes drain and locality pulls the request back.
  cluster.board().connection_closed(1, 512ull * 1024 * 1024);
  const auto idle = fetch(url);
  ASSERT_TRUE(idle.has_value());
  EXPECT_EQ(idle->redirects_followed, 1);
  EXPECT_EQ(idle->response.headers.get("X-Sweb-Node"), "1");
}

TEST(Liveness, DeadRedirectFallsBackToOriginWithHopMarker) {
  // Node 1 crashes between issuing no heartbeat trouble yet and the
  // client's connect: the origin still believes it is available (paper-
  // scale staleness), 302s there, and the client must recover by retrying
  // the origin with sweb-hop=1 so it serves locally.
  MiniCluster cluster(2, small_docbase(2));
  cluster.start();
  cluster.crash(1);
  ASSERT_TRUE(cluster.board().snapshot(1).available);  // not yet detected

  const std::string url =
      "http://127.0.0.1:" + std::to_string(cluster.port(0)) +
      "/docs/file1.html";
  const auto result = fetch(url);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(http::code(result->response.status), 200);
  EXPECT_TRUE(result->origin_fallback);
  EXPECT_EQ(result->response.headers.get("X-Sweb-Node"), "0");
  EXPECT_NE(result->final_url.find("sweb-hop=1"), std::string::npos);
  EXPECT_EQ(result->response.body.size(), 4096u);
}

TEST(Liveness, PostWhoseHopIsResetAfterSendingIsNotResent) {
  // Node 1 owns the CGI and resets every connection on its first response
  // write, after the handler ran. The hop target saw the POST, so neither
  // the origin fallback nor a retry may run it a second time.
  MiniClusterOptions options;
  options.chaos_node = 1;
  options.chaos.reset_probability = 1.0;  // reset_after_bytes 0: first write
  MiniCluster cluster(2, small_docbase(2), options);
  std::atomic<int> calls{0};
  cluster.docs_mutable().register_cgi(
      "/cgi/count.cgi", /*owner=*/1,
      [&calls](const http::Request&, std::string_view) {
        ++calls;
        return http::make_ok("counted", "text/plain");
      });
  cluster.start();
  const std::string url = "http://127.0.0.1:" +
                          std::to_string(cluster.port(0)) + "/cgi/count.cgi";
  FetchOptions fetch_options;
  fetch_options.post_body = "n=1";
  const auto result = fetch(url, fetch_options);
  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(cluster.node(1).chaos().resets_injected(), 1u);
}

TEST(Liveness, HungNodeIsDetectedButStillServesAndRejoins) {
  // hang() stops the heartbeat only: the liveness lease lapses (peers mark
  // the node down, so no new redirects target it) while the node itself
  // keeps serving whatever still reaches it directly.
  ManualClock clock;
  MiniCluster cluster(2, small_docbase(2), fast_liveness(), clock);
  cluster.run_once();  // both nodes join at virtual t0; ticks every 50 ms
  cluster.hang(1);
  // Node 0's tick sweeps node 1's lease, last stamped at t0: still fresh
  // at the last tick inside the 250 ms lease...
  for (int tick = 1; tick <= 5; ++tick) {
    clock.advance(50ms);
    cluster.run_once();
    EXPECT_TRUE(cluster.board().snapshot(1).available) << "tick " << tick;
  }
  // ...and marked down at the first tick past it, once.
  clock.advance(50ms);
  cluster.run_once();
  EXPECT_FALSE(cluster.board().snapshot(1).available);
  EXPECT_EQ(cluster.registry().counter("liveness.marked_down").value(), 1u);

  // Still serving: a direct request to the hung node succeeds.
  auto direct =
      TcpStream::connect(SocketAddress::loopback(cluster.port(1)), 2000ms);
  ASSERT_TRUE(direct.has_value());
  ASSERT_TRUE(
      direct->write_all("GET /docs/file1.html HTTP/1.0\r\n\r\n", 2000ms));
  ASSERT_TRUE(step_until(cluster, [&] { return direct->wait_readable(0ms); }));
  const http::Response response = read_response(*direct);
  EXPECT_EQ(http::code(response.status), 200);
  EXPECT_EQ(response.headers.get("X-Sweb-Node"), "1");

  cluster.recover(1);
  EXPECT_TRUE(cluster.board().snapshot(1).available);
  EXPECT_EQ(cluster.registry().counter("liveness.rejoined").value(), 1u);
}

TEST(Liveness, StatusEndpointReportsLivenessFields) {
  MiniCluster cluster(2, small_docbase(2), fast_liveness());
  cluster.start();
  const auto status = fetch("http://127.0.0.1:" +
                            std::to_string(cluster.port(0)) + "/sweb/status");
  ASSERT_TRUE(status.has_value());
  const std::string& body = status->response.body;
  EXPECT_NE(body.find("\"available\":true"), std::string::npos) << body;
  EXPECT_NE(body.find("\"heartbeat_period_s\":"), std::string::npos) << body;
  EXPECT_NE(body.find("\"staleness_timeout_s\":"), std::string::npos) << body;
  EXPECT_NE(body.find("\"heartbeat_age_seconds\":"), std::string::npos)
      << body;
}

TEST(Liveness, EachNodeRunsOneReactorPlusItsCgiWorkers) {
  // The heartbeat is a timer on the reactor's heap, not a thread: a node
  // adds exactly its loop and its CGI pool.
  constexpr int kNodes = 3;
  MiniClusterOptions options = fast_liveness();
  options.max_workers = 2;
  MiniCluster cluster(kNodes, small_docbase(kNodes), options);
  // A sanitizer runtime (TSan) starts a helper thread along with the
  // program's first thread; let that happen before the count.
  std::thread([] {}).join();
  const int before = thread_count();
  cluster.start();
  EXPECT_EQ(thread_count() - before, kNodes * (1 + options.max_workers));
}

// --- The chaos drill -------------------------------------------------------

TEST(Liveness, ChaosCrashRecoverDrill) {
  // 4 nodes under closed-loop load; node 3 crashes mid-run. Requirements:
  // no client ever sees an error (the origin fallback bridges the blind
  // window), the failure detector ropes the node off within one staleness
  // window, no new redirects target it after that, it is re-admitted on
  // recover(), and the Δ-inflation its death stranded expires back to 0.
  constexpr int kNodes = 4;
  MiniCluster cluster(kNodes, small_docbase(kNodes), fast_liveness());
  cluster.start();

  // Closed-loop clients through the three nodes that stay in DNS; the
  // crash of node 3 must be invisible to all of them.
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<int> completed{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 6; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const int via = (c + i) % 3;  // nodes 0..2 only: 3 left the DNS
        const std::string url =
            "http://127.0.0.1:" + std::to_string(cluster.port(via)) +
            "/docs/file" + std::to_string((c * 7 + i) % 12) + ".html";
        const auto result = fetch(url);
        if (!result || http::code(result->response.status) != 200) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        completed.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(1ms);
      }
    });
  }
  ASSERT_TRUE(eventually([&completed] { return completed.load() >= 30; }));

  cluster.crash(3);
  // The blind window: node 0-2 still 302 toward the corpse; clients
  // survive via the origin fallback until the detector notices.
  ASSERT_TRUE(eventually(
      [&cluster] { return !cluster.board().snapshot(3).available; }));

  // Post-detection, no new redirects target the dead node: requests for
  // its documents are served by the node we ask, without any fallback.
  const std::string url3 =
      "http://127.0.0.1:" + std::to_string(cluster.port(0)) +
      "/docs/file3.html";
  for (int i = 0; i < 8; ++i) {
    const auto result = fetch(url3);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(http::code(result->response.status), 200);
    EXPECT_FALSE(result->origin_fallback);
    EXPECT_NE(result->response.headers.get("X-Sweb-Node"), "3");
  }

  cluster.recover(3);
  ASSERT_TRUE(eventually(
      [&cluster] { return cluster.board().snapshot(3).available; }));
  stop.store(true);
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0) << "a client saw an error across the crash";
  EXPECT_GE(cluster.registry().counter("liveness.marked_down").value(), 1u);
  EXPECT_GE(cluster.registry().counter("liveness.rejoined").value(), 1u);

  // The redirects that died with node 3 left phantom Δ on the board; it
  // must all expire (2x heartbeat period) now that the herd has moved on.
  ASSERT_TRUE(eventually([&cluster] {
    return cluster.registry().gauge("board.redirect_inflation").value() == 0;
  }));

  // Re-admitted for real: with the phantom load drained, locality pulls
  // the node's documents back to it.
  const auto back = fetch(url3);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(http::code(back->response.status), 200);
  EXPECT_EQ(back->response.headers.get("X-Sweb-Node"), "3");
  EXPECT_GE(cluster.board().snapshot(3).served, 1u);
}

}  // namespace
}  // namespace sweb::runtime
