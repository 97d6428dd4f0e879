// Degraded-network chaos layer, end to end: every injected fault type
// (latency, throttle, torn writes, first-read stall, mid-stream reset),
// the server's slow-client defenses (408 header deadline, 400 on garbage,
// Retry-After on shed 503s), and the client retry policy that bridges all
// of it (backoff budget, Retry-After honoring, idempotency gating).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "fs/docbase.h"
#include "http/parser.h"
#include "obs/json.h"
#include "obs/registry.h"
#include "runtime/chaos.h"
#include "runtime/client.h"
#include "runtime/clock.h"
#include "runtime/mini_cluster.h"
#include "runtime/socket.h"
#include "runtime_test_support.h"

namespace sweb::runtime {
namespace {

using namespace std::chrono_literals;

[[nodiscard]] std::chrono::milliseconds elapsed_since(
    std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
}

/// One connected client/server stream pair whose server side carries the
/// director's fault plan, attached the way a node attaches it at admit;
/// the faults pace on `clock`.
struct ChaosPair {
  ManualClock clock;
  TcpListener listener{0};
  ChaosDirector director{clock};
  TcpStream client;
  TcpStream server;
};

[[nodiscard]] bool connect_pair(ChaosPair& pair, const FaultPlan& plan) {
  pair.director.configure(plan);
  auto client = TcpStream::connect(
      SocketAddress::loopback(pair.listener.port()), 2000ms);
  if (!client) return false;
  pair.client = std::move(*client);
  auto server = pair.listener.accept(2000ms);
  if (!server) return false;
  pair.server = std::move(*server);
  pair.server.set_faults(pair.director.admit());
  return true;
}

/// Reads everything the peer sends until it closes or resets.
[[nodiscard]] std::string drain(TcpStream& stream) {
  std::string received;
  for (;;) {
    const auto chunk = stream.read_some(16 * 1024, 2000ms);
    if (!chunk.ok || chunk.eof) return received;
    received += chunk.data;
  }
}

// --- Socket-level fault injection ------------------------------------------

TEST(Chaos, ReadDelayInjectsLatency) {
  ChaosPair pair;
  FaultPlan plan;
  plan.read_delay = 80ms;
  ASSERT_TRUE(connect_pair(pair, plan));
  ASSERT_TRUE(pair.client.write_all("ping", 2000ms));
  ASSERT_TRUE(pair.server.wait_readable(2000ms));
  // The injected delay lands on the degraded (server) side of the link:
  // the read is held for exactly read_delay, with no bytes consumed.
  const auto t0 = pair.clock.now();
  const auto held = pair.server.read_nb(16);
  EXPECT_TRUE(held.ok);
  EXPECT_TRUE(held.data.empty());
  EXPECT_EQ(held.retry_at, t0 + 80ms);
  // Asking early answers the same time: the delay is charged once per op.
  pair.clock.advance(79ms);
  const auto early = pair.server.read_nb(16);
  EXPECT_EQ(early.retry_at, held.retry_at);
  EXPECT_TRUE(early.data.empty());
  pair.clock.advance(1ms);
  const auto chunk = pair.server.read_nb(16);
  EXPECT_TRUE(chunk.ok);
  EXPECT_FALSE(chunk.retry_at.has_value());
  EXPECT_EQ(chunk.data, "ping");
}

TEST(Chaos, FirstReadStallFiresExactlyOnce) {
  ChaosPair pair;
  FaultPlan plan;
  plan.first_read_stall = 80ms;
  ASSERT_TRUE(connect_pair(pair, plan));
  ASSERT_TRUE(pair.client.write_all("ab", 2000ms));
  ASSERT_TRUE(pair.server.wait_readable(2000ms));
  const auto t0 = pair.clock.now();
  const auto stalled = pair.server.read_nb(16);
  EXPECT_EQ(stalled.retry_at, t0 + 80ms);  // the one stall
  pair.clock.advance(79ms);
  EXPECT_EQ(pair.server.read_nb(16).retry_at, stalled.retry_at);
  pair.clock.advance(1ms);
  EXPECT_EQ(pair.server.read_nb(16).data, "ab");
  // Later reads run clean: no hold at all.
  ASSERT_TRUE(pair.client.write_all("cd", 2000ms));
  ASSERT_TRUE(pair.server.wait_readable(2000ms));
  const auto clean = pair.server.read_nb(16);
  EXPECT_FALSE(clean.retry_at.has_value());
  EXPECT_EQ(clean.data, "cd");
}

TEST(Chaos, ThrottlePacesWritesToTheConfiguredRate) {
  ChaosPair pair;
  FaultPlan plan;
  plan.throttle_bytes_per_sec = 8 * 1024;  // 1 KiB per 125 ms slice
  ASSERT_TRUE(connect_pair(pair, plan));
  const std::string payload(4096, 'x');
  std::size_t sent = 0;
  int holds = 0;
  while (sent < payload.size()) {
    const std::string_view rest = std::string_view(payload).substr(sent);
    const auto t = pair.clock.now();
    const auto w = pair.server.write_some_v_nb(&rest, 1);
    ASSERT_TRUE(w.ok);
    ASSERT_FALSE(w.retry_at.has_value());  // the pacing was waited out
    // Each send moves one slice; the next one is held for the slice's
    // pacing: 1024 B at 8192 B/s is 125 ms after this send.
    EXPECT_EQ(w.written, 1024u);
    sent += w.written;
    if (sent < payload.size()) {
      const std::string_view next = std::string_view(payload).substr(sent);
      const auto paced = pair.server.write_some_v_nb(&next, 1);
      EXPECT_EQ(paced.retry_at, t + 125ms);
      ++holds;
      pair.clock.advance(124ms);
      EXPECT_EQ(pair.server.write_some_v_nb(&next, 1).retry_at,
                paced.retry_at);
      pair.clock.advance(1ms);
    }
  }
  EXPECT_EQ(holds, 3);
  pair.server.shutdown_write();
  EXPECT_EQ(drain(pair.client), payload);
}

TEST(Chaos, TornWritesClampSegmentsButDeliverEveryByte) {
  FaultPlan plan;
  plan.torn_write_max_bytes = 128;
  ConnectionFaults faults(plan, /*seed=*/1, /*doomed=*/false, nullptr);
  const ConnectionFaults::Gate gate = faults.gate_write(10 * 1024);
  EXPECT_FALSE(gate.retry_at.has_value());
  EXPECT_FALSE(gate.reset);
  EXPECT_EQ(gate.budget, 128u);

  ChaosPair pair;
  ASSERT_TRUE(connect_pair(pair, plan));
  std::string payload;
  for (int i = 0; i < 4096; ++i) payload.push_back(static_cast<char>(i));
  // Two segments, so the clamp must trim the gather list across a
  // segment boundary (100 + 28 on the first send).
  const std::string_view head = std::string_view(payload).substr(0, 100);
  const std::string_view body = std::string_view(payload).substr(100);
  std::size_t sent = 0;
  while (sent < payload.size()) {
    std::string_view segments[2];
    std::size_t count = 0;
    if (sent < head.size()) segments[count++] = head.substr(sent);
    segments[count++] = body.substr(sent > head.size() ? sent - head.size()
                                                       : 0);
    const auto w = pair.server.write_some_v_nb(segments, count);
    ASSERT_TRUE(w.ok);
    ASSERT_FALSE(w.retry_at.has_value());
    EXPECT_EQ(w.written, std::min<std::size_t>(128, payload.size() - sent));
    sent += w.written;
  }
  pair.server.shutdown_write();
  EXPECT_EQ(drain(pair.client), payload);  // torn, not corrupted
}

TEST(Chaos, MidStreamResetAbortsTheTransfer) {
  ChaosPair pair;
  FaultPlan plan;
  plan.reset_first_connections = 1;
  plan.reset_after_bytes = 256;
  ASSERT_TRUE(connect_pair(pair, plan));
  const std::string payload(4096, 'y');
  const std::string_view rest = payload;
  // The doomed connection writes exactly its 256 bytes, then the next
  // send dies with an RST.
  const auto first = pair.server.write_some_v_nb(&rest, 1);
  ASSERT_TRUE(first.ok);
  EXPECT_EQ(first.written, 256u);
  const auto second = pair.server.write_some_v_nb(&rest, 1);
  EXPECT_FALSE(second.ok);
  EXPECT_FALSE(pair.server.valid());
  EXPECT_EQ(pair.director.resets_injected(), 1u);
  EXPECT_LT(drain(pair.client).size(), payload.size());

  // Only the first connection was doomed; the next one runs clean.
  auto client2 = TcpStream::connect(
      SocketAddress::loopback(pair.listener.port()), 2000ms);
  ASSERT_TRUE(client2.has_value());
  auto server2 = pair.listener.accept(2000ms);
  ASSERT_TRUE(server2.has_value());
  server2->set_faults(pair.director.admit());
  const auto clean = server2->write_some_v_nb(&rest, 1);
  EXPECT_TRUE(clean.ok);
  EXPECT_EQ(clean.written, payload.size());
  EXPECT_EQ(pair.director.resets_injected(), 1u);
}

TEST(Chaos, SameSeedDoomsTheSameConnections) {
  FaultPlan plan;
  plan.reset_probability = 0.5;
  plan.reset_after_bytes = 0;  // doomed connections reset on first write
  const auto doom_pattern = [&plan](std::uint64_t seed) {
    ChaosDirector director;
    director.configure(plan, seed);
    std::vector<bool> pattern;
    for (int i = 0; i < 32; ++i) {
      const auto faults = director.admit();
      pattern.push_back(faults->gate_write(64).reset);
    }
    return pattern;
  };
  EXPECT_EQ(doom_pattern(7), doom_pattern(7));  // reproducible chaos
}

// --- Server hardening -------------------------------------------------------

TEST(Chaos, GarbageRequestAnswers400AndCloses) {
  MiniCluster cluster(1, small_docbase(1));
  cluster.start();
  auto stream =
      TcpStream::connect(SocketAddress::loopback(cluster.port(0)), 2000ms);
  ASSERT_TRUE(stream.has_value());
  ASSERT_TRUE(stream->write_all("GARBAGE\r\n\r\n", 2000ms));
  const auto response = try_read_response(*stream);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(http::code(response->status), 400);
  EXPECT_EQ(response->headers.get("Connection"), "close");
  EXPECT_TRUE(response->headers.has("Server"));
  EXPECT_EQ(cluster.node(0).bad_requests(), 1u);
}

TEST(Chaos, OversizedRequestLineAnswers400) {
  // The request line blows past ParserLimits::max_request_line (8 KB)
  // without ever finishing — the parser must reject it, not buffer forever.
  MiniCluster cluster(1, small_docbase(1));
  cluster.start();
  auto stream =
      TcpStream::connect(SocketAddress::loopback(cluster.port(0)), 2000ms);
  ASSERT_TRUE(stream.has_value());
  const std::string huge = "GET /" + std::string(10 * 1024, 'a');
  ASSERT_TRUE(stream->write_all(huge, 2000ms));
  const auto response = try_read_response(*stream);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(http::code(response->status), 400);
  EXPECT_EQ(cluster.node(0).bad_requests(), 1u);
}

TEST(Chaos, SlowlorisClientGets408WithinHeaderDeadline) {
  ManualClock clock;
  MiniClusterOptions options;
  options.header_timeout = 300ms;
  MiniCluster cluster(1, small_docbase(1), options, clock);
  auto stream =
      TcpStream::connect(SocketAddress::loopback(cluster.port(0)), 2000ms);
  ASSERT_TRUE(stream.has_value());
  // Admitted at virtual t0: the whole request is due by t0 + 300 ms.
  ASSERT_TRUE(step_until(
      cluster, [&] { return cluster.node(0).active_connections() == 1; }));
  // Trickle one header byte per 100 ms — far slower than the deadline —
  // then go quiet and listen. (No writes once the 408 may have fired: a
  // write racing the server's close would RST away the buffered response.)
  const std::string request = "GET /docs/file0.html HTTP/1.0\r\n\r\n";
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(stream->write_all(std::string(1, request[i]), 500ms));
    for (int step = 0; step < 3; ++step) cluster.run_once();
    clock.advance(100ms);
  }
  const auto answered = [&] { return stream->wait_readable(0ms); };
  // The bytes did not extend the deadline: nothing at t0 + 299 ms...
  clock.advance(99ms);
  for (int step = 0; step < 3; ++step) cluster.run_once();
  EXPECT_FALSE(answered());
  EXPECT_EQ(cluster.node(0).request_timeouts(), 0u);
  // ...and the 408 at t0 + 300 ms, not at io_timeout.
  clock.advance(1ms);
  ASSERT_TRUE(step_until(cluster, answered));
  const auto response = try_read_response(*stream);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(http::code(response->status), 408);
  EXPECT_EQ(response->headers.get("Connection"), "close");
  EXPECT_EQ(cluster.node(0).request_timeouts(), 1u);
  // The slot freed itself: the node is back to idle.
  EXPECT_EQ(cluster.node(0).active_connections(), 0);
}

TEST(Chaos, Shed503CarriesRetryAfterHint) {
  MiniClusterOptions options;
  options.max_connections = 2;
  options.retry_after_hint = 1500ms;  // rounds up to "2" on the wire
  MiniCluster cluster(1, small_docbase(1), options);
  cluster.start();
  // Two silent connections fill the connection cap; subsequent ones are
  // shed with 503 + Retry-After at accept.
  std::vector<TcpStream> held;
  std::optional<http::Response> shed_response;
  for (int i = 0; i < 20 && !shed_response.has_value(); ++i) {
    auto conn =
        TcpStream::connect(SocketAddress::loopback(cluster.port(0)), 2000ms);
    ASSERT_TRUE(conn.has_value());
    if (conn->wait_readable(300ms)) {
      shed_response = try_read_response(*conn);
    } else {
      held.push_back(std::move(*conn));  // queued or being served: hold it
    }
  }
  ASSERT_TRUE(shed_response.has_value());
  EXPECT_EQ(http::code(shed_response->status), 503);
  EXPECT_EQ(shed_response->headers.get("Retry-After"), "2");
  EXPECT_GE(cluster.node(0).shed_count(), 1u);
}

TEST(Chaos, ShedNeverStallsTheLoopOnAFaultedNode) {
  // A refused connection was never admitted, so it carries no link faults:
  // its 503 goes out at once, however slow the node's admitted links are.
  ManualClock clock;
  MiniClusterOptions options;
  options.max_connections = 1;
  options.chaos_node = 0;
  options.chaos.write_delay = 400ms;
  MiniCluster cluster(1, small_docbase(1), options, clock);
  const SocketAddress address = SocketAddress::loopback(cluster.port(0));
  auto held = TcpStream::connect(address, 2000ms);
  ASSERT_TRUE(held.has_value());
  ASSERT_TRUE(held->write_all("GET /docs/file0.html HTTP/1.0\r\n\r\n", 2000ms));
  // The admitted request is parsed at virtual t0; its response is held.
  obs::Counter& parsed = cluster.registry().counter("node.0.requests");
  ASSERT_TRUE(step_until(cluster, [&] { return parsed.value() == 1u; }));
  std::vector<TcpStream> refused;
  for (int i = 0; i < 3; ++i) {
    auto conn = TcpStream::connect(address, 2000ms);
    ASSERT_TRUE(conn.has_value());
    refused.push_back(std::move(*conn));
  }
  // Every 503 leaves without the clock moving: still virtual t0.
  ASSERT_TRUE(step_until(cluster, [&] {
    return std::all_of(refused.begin(), refused.end(), [](TcpStream& conn) {
      return conn.wait_readable(0ms);
    });
  }));
  for (std::size_t i = 0; i < refused.size(); ++i) {
    const auto response = try_read_response(refused[i]);
    ASSERT_TRUE(response.has_value()) << "refused connection " << i;
    EXPECT_EQ(http::code(response->status), 503);
  }
  EXPECT_EQ(cluster.node(0).shed_count(), 3u);
  // Only the admitted connection took a fault draw.
  EXPECT_EQ(cluster.node(0).chaos().connections_faulted(), 1u);
  // Its response alone waits out the write delay: held at t0 + 399 ms,
  // sent at t0 + 400 ms.
  clock.advance(399ms);
  for (int step = 0; step < 3; ++step) cluster.run_once();
  EXPECT_FALSE(held->wait_readable(0ms));
  clock.advance(1ms);
  ASSERT_TRUE(step_until(cluster, [&] { return held->wait_readable(0ms); }));
  const auto served = try_read_response(*held);
  ASSERT_TRUE(served.has_value());
  EXPECT_EQ(http::code(served->status), 200);
}

/// Drives one of each client-visible error through `node`, which must be
/// capped at one connection with a short header deadline: a slowloris
/// holds the only slot, so the next arrival is shed (503); the slowloris
/// then times out (408); a garbage head gets 400 and a miss 404.
void drive_one_error_of_each_kind(const NodeServer& node) {
  const SocketAddress address = SocketAddress::loopback(node.port());
  const auto idle = [&node] { return node.active_connections() == 0; };
  auto slow = TcpStream::connect(address, 2000ms);
  ASSERT_TRUE(slow.has_value());
  ASSERT_TRUE(slow->write_all("G", 500ms));
  ASSERT_TRUE(eventually([&node] { return node.active_connections() == 1; }));
  auto refused = TcpStream::connect(address, 2000ms);
  ASSERT_TRUE(refused.has_value());
  const auto shed = try_read_response(*refused);
  ASSERT_TRUE(shed.has_value());
  EXPECT_EQ(http::code(shed->status), 503);
  const auto timed_out = try_read_response(*slow);
  ASSERT_TRUE(timed_out.has_value());
  EXPECT_EQ(http::code(timed_out->status), 408);

  ASSERT_TRUE(eventually(idle));
  auto garbage = TcpStream::connect(address, 2000ms);
  ASSERT_TRUE(garbage.has_value());
  ASSERT_TRUE(garbage->write_all("GARBAGE\r\n\r\n", 2000ms));
  const auto bad = try_read_response(*garbage);
  ASSERT_TRUE(bad.has_value());
  EXPECT_EQ(http::code(bad->status), 400);

  ASSERT_TRUE(eventually(idle));
  const auto missing = fetch("http://127.0.0.1:" + std::to_string(node.port()) +
                             "/docs/no-such-file.html");
  ASSERT_TRUE(missing.has_value());
  EXPECT_EQ(http::code(missing->response.status), 404);
}

TEST(Chaos, NodeWithoutRegistryStillCountsEveryError) {
  NodeServer::Config cfg;
  cfg.node_id = 0;
  cfg.max_connections = 1;
  cfg.header_timeout = 300ms;
  ASSERT_EQ(cfg.registry, nullptr);
  const fs::Docbase docs = small_docbase(1);
  const DocStore store(docs);
  LoadBoard board(1);
  NodeServer server(cfg, store, board);
  server.set_peer_ports({server.port()});
  server.start();
  drive_one_error_of_each_kind(server);
  EXPECT_EQ(server.shed_count(), 1u);
  EXPECT_EQ(server.request_timeouts(), 1u);
  EXPECT_EQ(server.bad_requests(), 1u);
  EXPECT_EQ(server.not_found(), 1u);
  // The 408, 400 and 404 were answered; the shed never reached a request.
  EXPECT_TRUE(
      eventually([&server] { return server.requests_handled() == 3u; }));
  server.stop();
}

TEST(Chaos, EveryCounterHasOneStore) {
  MiniClusterOptions options;
  options.max_connections = 1;
  options.header_timeout = 300ms;
  MiniCluster cluster(1, small_docbase(1), options);
  cluster.start();
  NodeServer& node = cluster.node(0);
  drive_one_error_of_each_kind(node);
  ASSERT_TRUE(eventually([&node] { return node.requests_handled() == 3u; }));

  const auto status = fetch("http://127.0.0.1:" +
                            std::to_string(cluster.port(0)) + "/sweb/status");
  ASSERT_TRUE(status.has_value());
  const auto doc = obs::json_parse(status->response.body);
  ASSERT_TRUE(doc.has_value() && doc->is_object()) << status->response.body;
  const obs::JsonValue* errors = doc->find("errors_by_reason");
  const obs::JsonValue* overload = doc->find("overload");
  ASSERT_TRUE(errors != nullptr && overload != nullptr);
  obs::Registry& registry = cluster.registry();
  const auto expect_one_store = [&registry](std::uint64_t accessor,
                                            const std::string& counter,
                                            const obs::JsonValue& parent,
                                            const char* field,
                                            std::uint64_t expected) {
    EXPECT_EQ(accessor, expected) << counter;
    EXPECT_EQ(registry.counter(counter).value(), accessor) << counter;
    EXPECT_EQ(parent.number_or(field, -1.0), static_cast<double>(accessor))
        << field;
  };
  expect_one_store(node.bad_requests(), "node.0.err.400", *errors, "400", 1);
  expect_one_store(node.not_found(), "node.0.err.404", *errors, "404", 1);
  expect_one_store(node.request_timeouts(), "node.0.err.408", *errors, "408",
                   1);
  expect_one_store(node.shed_count(), "node.0.shed", *doc, "shed", 1);
  expect_one_store(registry.counter("node.0.err.503").value(),
                   "node.0.err.503", *errors, "503", 1);
  expect_one_store(node.overload_shed_cgi(), "node.0.overload.shed_cgi",
                   *overload, "shed_cgi", 0);
  expect_one_store(node.overload_shed_uncached(),
                   "node.0.overload.shed_uncached", *overload,
                   "shed_uncached", 0);
  expect_one_store(node.overload_shed_accept(), "node.0.overload.shed_accept",
                   *overload, "shed_accept", 0);
  // The status body was rendered before its own request was counted.
  EXPECT_EQ(doc->number_or("requests_handled", -1.0), 3.0);
  ASSERT_TRUE(eventually([&node] { return node.requests_handled() == 4u; }));
  EXPECT_EQ(registry.counter("node.0.handled").value(), 4u);
}

TEST(Chaos, StatusReportsErrorsByReasonAndChaosState) {
  MiniCluster cluster(1, small_docbase(1));
  cluster.start();
  const std::string base =
      "http://127.0.0.1:" + std::to_string(cluster.port(0));
  const auto missing = fetch(base + "/docs/no-such-file.html");
  ASSERT_TRUE(missing.has_value());
  EXPECT_EQ(http::code(missing->response.status), 404);
  const auto status = fetch(base + "/sweb/status");
  ASSERT_TRUE(status.has_value());
  const std::string& body = status->response.body;
  EXPECT_NE(body.find("\"errors_by_reason\":"), std::string::npos) << body;
  EXPECT_NE(body.find("\"404\":1"), std::string::npos) << body;
  EXPECT_NE(body.find("\"chaos\":"), std::string::npos) << body;
  EXPECT_NE(body.find("\"enabled\":false"), std::string::npos) << body;
}

// --- Client retry policy ----------------------------------------------------

TEST(Chaos, InjectedResetIsRecoveredByClientRetry) {
  MiniClusterOptions options;
  options.chaos_node = 0;
  options.chaos.reset_first_connections = 1;
  options.chaos.reset_after_bytes = 0;  // RST before the first response byte
  MiniCluster cluster(1, small_docbase(1), options);
  cluster.start();
  obs::Registry client_metrics;
  FetchOptions fetch_options;
  fetch_options.registry = &client_metrics;
  const auto result =
      fetch("http://127.0.0.1:" + std::to_string(cluster.port(0)) +
                "/docs/file0.html",
            fetch_options);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(http::code(result->response.status), 200);
  EXPECT_EQ(result->response.body.size(), 4096u);
  EXPECT_EQ(result->attempts, 2);  // one reset, one clean retry
  EXPECT_EQ(cluster.node(0).chaos().resets_injected(), 1u);
  EXPECT_EQ(client_metrics.counter("client.retries").value(), 1u);
}

TEST(Chaos, InjectedResetWithoutRetryFailsTheFetch) {
  MiniClusterOptions options;
  options.chaos_node = 0;
  options.chaos.reset_first_connections = 1;
  options.chaos.reset_after_bytes = 0;
  MiniCluster cluster(1, small_docbase(1), options);
  cluster.start();
  obs::Registry client_metrics;
  FetchOptions fetch_options;
  fetch_options.registry = &client_metrics;
  fetch_options.retry.max_attempts = 1;  // retries off
  const auto result =
      fetch("http://127.0.0.1:" + std::to_string(cluster.port(0)) +
                "/docs/file0.html",
            fetch_options);
  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(client_metrics.counter("client.retry_exhausted").value(), 1u);
}

TEST(Chaos, ClientHonorsRetryAfterOn503) {
  // A hand-rolled server: sheds the first request with Retry-After: 0.2
  // (fractional delta-seconds), serves the second. The client must wait at
  // least the hint before re-asking.
  TcpListener listener(0);
  std::thread server([&listener] {
    for (int i = 0; i < 2; ++i) {
      auto peer = listener.accept(5000ms);
      if (!peer) return;
      (void)peer->read_some(16 * 1024, 2000ms);
      const char* reply =
          i == 0 ? "HTTP/1.0 503 Service Unavailable\r\n"
                   "Retry-After: 0.2\r\nContent-Length: 0\r\n\r\n"
                 : "HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok";
      (void)peer->write_all(reply, 2000ms);
      peer->shutdown_write();
    }
  });
  obs::Registry client_metrics;
  FetchOptions options;
  options.registry = &client_metrics;
  options.retry.base_backoff = 1ms;  // the hint, not the backoff, dominates
  const auto start = std::chrono::steady_clock::now();
  const auto result =
      fetch("http://127.0.0.1:" + std::to_string(listener.port()) + "/x",
            options);
  server.join();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(http::code(result->response.status), 200);
  EXPECT_EQ(result->attempts, 2);
  EXPECT_GE(elapsed_since(start), 150ms);  // slept the Retry-After floor
  EXPECT_EQ(client_metrics.counter("client.retries").value(), 1u);
}

TEST(Chaos, ExhaustedRetriesReturnTheLast503) {
  // Every attempt is shed: the caller must see the server's final word (a
  // 503), not a bare nullopt.
  TcpListener listener(0);
  std::atomic<int> sheds{0};
  std::jthread server([&listener, &sheds](const std::stop_token& token) {
    while (!token.stop_requested()) {
      auto peer = listener.accept(100ms);
      if (!peer) continue;
      (void)peer->read_some(16 * 1024, 2000ms);
      (void)peer->write_all(
          "HTTP/1.0 503 Service Unavailable\r\n"
          "Retry-After: 0.05\r\nContent-Length: 0\r\n\r\n",
          2000ms);
      peer->shutdown_write();
      ++sheds;
    }
  });
  FetchOptions options;
  options.retry.max_attempts = 3;
  options.retry.base_backoff = 1ms;
  const auto result =
      fetch("http://127.0.0.1:" + std::to_string(listener.port()) + "/x",
            options);
  server.request_stop();
  server.join();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(http::code(result->response.status), 503);
  EXPECT_EQ(result->attempts, 3);
  EXPECT_EQ(sheds.load(), 3);
}

TEST(Chaos, PostIsNeverRetried) {
  // Non-idempotent requests must not be resent: one 503 is the answer,
  // and the server sees exactly one request.
  TcpListener listener(0);
  std::atomic<int> requests{0};
  std::jthread server([&listener, &requests](const std::stop_token& token) {
    while (!token.stop_requested()) {
      auto peer = listener.accept(100ms);
      if (!peer) continue;
      (void)peer->read_some(16 * 1024, 2000ms);
      (void)peer->write_all(
          "HTTP/1.0 503 Service Unavailable\r\n"
          "Retry-After: 0.01\r\nContent-Length: 0\r\n\r\n",
          2000ms);
      peer->shutdown_write();
      ++requests;
    }
  });
  FetchOptions options;
  options.post_body = "x=1";
  const auto result =
      fetch("http://127.0.0.1:" + std::to_string(listener.port()) + "/cgi",
            options);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(http::code(result->response.status), 503);
  EXPECT_EQ(result->attempts, 1);
  server.request_stop();
  server.join();
  EXPECT_EQ(requests.load(), 1);
}

TEST(Chaos, RetryBudgetBoundsTotalFetchTime) {
  // Nothing listens on the target port: every attempt fails instantly, so
  // only the deadline budget stops the loop — and it must.
  std::uint16_t dead_port = 0;
  {
    TcpListener placeholder(0);
    dead_port = placeholder.port();
  }  // closed: connects now get ECONNREFUSED
  obs::Registry client_metrics;
  FetchOptions options;
  options.registry = &client_metrics;
  options.retry.max_attempts = 1000;
  options.retry.base_backoff = 20ms;
  options.retry.max_backoff = 50ms;
  options.retry.total_deadline = 250ms;
  const auto start = std::chrono::steady_clock::now();
  const auto result =
      fetch("http://127.0.0.1:" + std::to_string(dead_port) + "/x", options);
  EXPECT_FALSE(result.has_value());
  EXPECT_LT(elapsed_since(start), 1000ms);  // budget held, 1000 tries did not
  EXPECT_EQ(client_metrics.counter("client.retry_exhausted").value(), 1u);
}

// --- Cluster drill: degraded link, zero client-visible errors ---------------

TEST(Chaos, DegradedNodeStillServesEveryRequestIntact) {
  MiniClusterOptions options;
  options.chaos_node = 0;
  options.chaos.read_delay = 2ms;
  options.chaos.write_delay = 2ms;
  options.chaos.delay_jitter = 2ms;
  options.chaos.torn_write_max_bytes = 256;
  options.chaos.throttle_bytes_per_sec = 512 * 1024;
  MiniCluster cluster(2, small_docbase(2), options);
  cluster.start();
  obs::Registry client_metrics;
  FetchOptions fetch_options;
  fetch_options.registry = &client_metrics;
  FetchSession session(fetch_options);
  // Every document through the degraded node: slower, never wrong.
  for (int d = 0; d < 12; ++d) {
    const std::string url =
        "http://127.0.0.1:" + std::to_string(cluster.port(0)) + "/docs/file" +
        std::to_string(d) + ".html";
    const auto result = session.fetch(url);
    ASSERT_TRUE(result.has_value()) << url;
    EXPECT_EQ(http::code(result->response.status), 200) << url;
    EXPECT_EQ(result->response.body.size(), 4096u) << url;
  }
  EXPECT_GT(cluster.node(0).chaos().connections_faulted(), 0u);
}


// --- Cluster drill: one node behind a lossy, slow link ----------------------

TEST(Chaos, DegradedLinkAccountsForEveryInjectedReset) {
  // Node 3 of 4 sits behind a slow, throttled link that tears writes and
  // resets connections, while 8 clients with the default retry policy fetch
  // across all four nodes. Node 3 dooms each connection it admits with
  // probability p = 0.1, and a fetch gives up after three failed attempts,
  // so about p^3 = 1e-3 of the fetches that reach node 3 fail as the
  // policy allows (about one run in 15 sees one). The contract is therefore
  // exact accounting, not zero failures: every client-visible failure is a
  // retry exhaustion, every transport failure is an injected reset, and
  // every body that arrives is the document, byte for byte.
  MiniClusterOptions options;
  options.chaos_node = 3;
  options.chaos.read_delay = 5ms;
  options.chaos.write_delay = 5ms;
  options.chaos.delay_jitter = 3ms;
  options.chaos.throttle_bytes_per_sec = 512 * 1024;
  options.chaos.torn_write_max_bytes = 512;
  options.chaos.reset_probability = 0.1;
  options.chaos.reset_after_bytes = 256;
  options.slow_budget = 250ms;
  MiniCluster cluster(4, fs::make_uniform(16, 8192, 4,
                                          fs::Placement::kRoundRobin,
                                          nullptr, "/docs"),
                      options);
  cluster.start();

  constexpr int kClients = 8;
  constexpr int kPerClient = 40;
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> corrupt{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&cluster, &failed, &corrupt, c] {
      FetchOptions fetch_options;
      fetch_options.registry = &cluster.registry();
      fetch_options.retry.seed = 0x5eb50000ULL + static_cast<std::uint64_t>(c);
      FetchSession session(fetch_options);
      for (int i = 0; i < kPerClient; ++i) {
        // Every fourth fetch asks node 3 directly; the rest reach it via
        // the broker's redirects when it looks idle.
        const std::string path =
            "/docs/file" + std::to_string((c * 7 + i) % 16) + ".html";
        const auto result =
            session.fetch("http://127.0.0.1:" +
                          std::to_string(cluster.port((c + i) % 4)) + path);
        if (!result || http::code(result->response.status) != 200) {
          ++failed;
          continue;
        }
        const DocStore::Entry* doc = cluster.docs().find(path);
        if (doc == nullptr || result->response.body != *doc->content) {
          ++corrupt;
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  const std::uint64_t resets = cluster.node(3).chaos().resets_injected();
  const std::uint64_t retries =
      cluster.registry().counter("client.retries").value();
  const std::uint64_t exhausted =
      cluster.registry().counter("client.retry_exhausted").value();
  EXPECT_EQ(corrupt.load(), 0u);
  EXPECT_EQ(failed.load(), exhausted);
  EXPECT_EQ(retries + exhausted, resets)
      << "each injected reset must cost exactly one retry or exhaustion";
  EXPECT_GT(resets, 0u);
}

}  // namespace
}  // namespace sweb::runtime
