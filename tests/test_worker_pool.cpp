// Concurrent service: N clients served concurrently per node, one slow
// client cannot head-of-line-block the rest, and connections past the
// connection cap are shed with 503 — the runtime analogue of the
// simulator's connection-limit model.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "fs/docbase.h"
#include "runtime/client.h"
#include "runtime/mini_cluster.h"
#include "runtime/socket.h"
#include "runtime_test_support.h"

namespace sweb::runtime {
namespace {

using namespace std::chrono_literals;

TEST(WorkerPool, StalledClientDoesNotBlockOtherClients) {
  // One node, a handful of workers, a client that connects and then sends
  // nothing: with the serial accept loop this connection head-of-line
  // blocks the node for the whole io_timeout; with the pool it merely
  // occupies one worker.
  MiniClusterOptions options;
  options.max_workers = 8;
  options.io_timeout = 3000ms;
  MiniCluster cluster(1, small_docbase(1), options);
  cluster.start();

  auto stalled = TcpStream::connect(SocketAddress::loopback(cluster.port(0)),
                                    2000ms);
  ASSERT_TRUE(stalled.has_value());
  ASSERT_TRUE(eventually(
      [&cluster] { return cluster.node(0).active_connections() >= 1; }));

  constexpr int kClients = 8;
  std::atomic<int> ok{0};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&cluster, &ok, c] {
      const std::string url =
          "http://127.0.0.1:" + std::to_string(cluster.port(0)) +
          "/docs/file" + std::to_string(c % 12) + ".html";
      const auto result = fetch(url);
      if (result && http::code(result->response.status) == 200) ++ok;
    });
  }
  for (auto& t : clients) t.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;

  EXPECT_EQ(ok.load(), kClients);
  // The stalled connection holds its worker for io_timeout = 3 s; the
  // serial loop would make every client wait behind it. The pool must
  // serve them all while the stall is still in progress.
  EXPECT_LT(elapsed, 1500ms);
}

TEST(WorkerPool, ConcurrentClientsFinishWellUnderSerialTime) {
  // K clients against a CGI endpoint that holds a worker for ~50 ms. A
  // serial node needs >= K * 50 ms; the pooled node overlaps the service
  // times.
  constexpr int kClients = 8;
  MiniClusterOptions options;
  options.max_workers = 8;
  MiniCluster cluster(1, small_docbase(1), options);
  cluster.docs_mutable().register_cgi(
      "/cgi/slow.cgi", 0, [](const http::Request&, std::string_view) {
        std::this_thread::sleep_for(50ms);
        return http::make_ok("done", "text/plain");
      });
  cluster.start();
  const std::string url = "http://127.0.0.1:" +
                          std::to_string(cluster.port(0)) + "/cgi/slow.cgi";

  std::atomic<int> ok{0};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&url, &ok] {
      const auto result = fetch(url);
      if (result && http::code(result->response.status) == 200) ++ok;
    });
  }
  for (auto& t : clients) t.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;

  EXPECT_EQ(ok.load(), kClients);
  // Serial floor: 8 x 50 ms = 400 ms. Concurrent execution should land
  // near one service time; 250 ms leaves slack for scheduling noise while
  // still failing the serial accept loop.
  EXPECT_LT(elapsed, 250ms);
}

TEST(WorkerPool, ShedsWith503OnlyPastWorkerAndQueueCap) {
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

  // A takes the first connection slot (connects, sends nothing).
  auto a = TcpStream::connect(SocketAddress::loopback(server.port()), 2000ms);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(
      eventually([&server] { return server.active_connections() == 1; }));

  // B takes the last slot — admitted, NOT shed.
  auto b = TcpStream::connect(SocketAddress::loopback(server.port()), 2000ms);
  ASSERT_TRUE(b.has_value());
  ASSERT_TRUE(
      eventually([&server] { return server.active_connections() == 2; }));
  EXPECT_EQ(server.shed_count(), 0u);

  // C exceeds the cap: shed with 503 and a closed connection.
  auto c = TcpStream::connect(SocketAddress::loopback(server.port()), 2000ms);
  ASSERT_TRUE(c.has_value());
  const http::Response rejected = read_response(*c);
  EXPECT_EQ(http::code(rejected.status), 503);
  EXPECT_EQ(rejected.headers.get("Connection"), "close");
  EXPECT_EQ(server.shed_count(), 1u);

  // Drop A: its slot frees up and the admitted B is served normally.
  a->close();
  ASSERT_TRUE(
      eventually([&server] { return server.active_connections() == 1; }));
  http::Request request;
  request.target = "/docs/file0.html";
  ASSERT_TRUE(b->write_all(request.serialize(), 2000ms));
  b->shutdown_write();
  const http::Response served = read_response(*b);
  EXPECT_EQ(http::code(served.status), 200);
  EXPECT_EQ(server.shed_count(), 1u);  // B was admitted, never shed
  server.stop();
}

TEST(WorkerPool, ShedExportsCounterAndStatusGauges) {
  MiniClusterOptions options;
  options.max_workers = 1;
  options.max_connections = 2;
  options.io_timeout = 3000ms;
  MiniCluster cluster(1, small_docbase(1), options);
  cluster.start();

  auto a = TcpStream::connect(SocketAddress::loopback(cluster.port(0)),
                              2000ms);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(eventually(
      [&cluster] { return cluster.node(0).active_connections() == 1; }));
  auto b = TcpStream::connect(SocketAddress::loopback(cluster.port(0)),
                              2000ms);
  ASSERT_TRUE(b.has_value());
  ASSERT_TRUE(eventually(
      [&cluster] { return cluster.node(0).active_connections() == 2; }));
  auto c = TcpStream::connect(SocketAddress::loopback(cluster.port(0)),
                              2000ms);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(http::code(read_response(*c).status), 503);

  EXPECT_EQ(cluster.registry().counter("node.0.shed").value(), 1u);
  EXPECT_EQ(cluster.node(0).active_connections(), 2);

  // Free both slots, then /sweb/status must report the admission fields.
  a->close();
  b->close();
  ASSERT_TRUE(eventually(
      [&cluster] { return cluster.node(0).active_connections() == 0; }));
  const auto status = fetch("http://127.0.0.1:" +
                            std::to_string(cluster.port(0)) + "/sweb/status");
  ASSERT_TRUE(status.has_value());
  const std::string& body = status->response.body;
  EXPECT_NE(body.find("\"workers\":1"), std::string::npos) << body;
  EXPECT_NE(body.find("\"shed\":1"), std::string::npos) << body;
  // The status scrape itself holds the one admitted connection.
  EXPECT_NE(body.find("\"connections\":1"), std::string::npos) << body;
  EXPECT_NE(body.find("\"max_connections\":2"), std::string::npos) << body;
}

TEST(WorkerPool, StopDrainsPromptlyWithIdleKeepAliveConnection) {
  // A keep-alive client parked between requests holds a worker in its
  // read-wait; stop() must interrupt that wait via the stop token instead
  // of burning the full io_timeout.
  MiniClusterOptions options;
  options.max_workers = 2;
  options.io_timeout = 10000ms;
  auto cluster =
      std::make_unique<MiniCluster>(1, small_docbase(1), options);
  cluster->start();
  const std::uint16_t port = cluster->port(0);

  auto stream = TcpStream::connect(SocketAddress::loopback(port), 2000ms);
  ASSERT_TRUE(stream.has_value());
  http::Request request;
  request.target = "/docs/file0.html";
  request.headers.add("Connection", "Keep-Alive");
  ASSERT_TRUE(stream->write_all(request.serialize(), 2000ms));
  const http::Response response = read_response(*stream);
  EXPECT_EQ(http::code(response.status), 200);
  // The server is now waiting for our next request (up to io_timeout=10s).
  const auto start = std::chrono::steady_clock::now();
  cluster->stop();
  EXPECT_LT(std::chrono::steady_clock::now() - start, 2000ms);
}

TEST(WorkerPool, SingleWorkerStillServesSequentially) {
  // max_workers=1 degenerates to the old serial behaviour — everything
  // still works, just without overlap.
  MiniClusterOptions options;
  options.max_workers = 1;
  MiniCluster cluster(1, small_docbase(1), options);
  cluster.start();
  for (int i = 0; i < 4; ++i) {
    const auto result = fetch("http://127.0.0.1:" +
                              std::to_string(cluster.port(0)) + "/docs/file" +
                              std::to_string(i) + ".html");
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(http::code(result->response.status), 200);
  }
}

}  // namespace
}  // namespace sweb::runtime
