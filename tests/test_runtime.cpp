// End-to-end tests over real loopback sockets: the MiniCluster serves, the
// client follows SWEB's 302 re-assignments, at-most-once holds on the wire.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "fs/docbase.h"
#include "obs/registry.h"
#include "runtime/client.h"
#include "runtime/load_board.h"
#include "runtime/socket.h"
#include "runtime/mini_cluster.h"
#include "runtime_test_support.h"

namespace sweb::runtime {
namespace {

TEST(Runtime, ServesDocumentOverRealSocket) {
  MiniCluster cluster(2, small_docbase(2));
  cluster.start();
  const auto result =
      fetch(cluster.next_base_url() + "/docs/file0.html");
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(http::code(result->response.status), 200);
  EXPECT_EQ(result->response.body.size(), 4096u);
  EXPECT_NE(result->response.body.find("/docs/file0.html"), std::string::npos);
  EXPECT_EQ(result->response.headers.get("Content-Type"), "text/html");
}

TEST(Runtime, UnknownPathGives404) {
  MiniCluster cluster(2, small_docbase(2));
  cluster.start();
  const auto result = fetch(cluster.next_base_url() + "/nope.html");
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(http::code(result->response.status), 404);
}

TEST(Runtime, TraversalEscapeRejected) {
  MiniCluster cluster(1, small_docbase(1));
  cluster.start();
  const auto result =
      fetch(cluster.next_base_url() + "/../../etc/passwd");
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(http::code(result->response.status), 400);
}

TEST(Runtime, RedirectsToOwnerNodeAndMarksHop) {
  // file1 is owned by node 1; ask node 0 for it.
  MiniCluster cluster(2, small_docbase(2));
  cluster.start();
  const std::string url =
      "http://127.0.0.1:" + std::to_string(cluster.port(0)) +
      "/docs/file1.html";
  const auto result = fetch(url);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(http::code(result->response.status), 200);
  EXPECT_EQ(result->redirects_followed, 1);
  EXPECT_EQ(result->response.headers.get("X-Sweb-Node"), "1");
  EXPECT_NE(result->final_url.find("sweb-hop=1"), std::string::npos);
}

TEST(Runtime, OwnerNodeServesDirectlyWithoutRedirect) {
  MiniCluster cluster(2, small_docbase(2));
  cluster.start();
  const std::string url =
      "http://127.0.0.1:" + std::to_string(cluster.port(1)) +
      "/docs/file1.html";
  const auto result = fetch(url);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->redirects_followed, 0);
  EXPECT_EQ(result->response.headers.get("X-Sweb-Node"), "1");
}

TEST(Runtime, AtMostOneRedirectOnTheWire) {
  // Even with max_redirects=4 allowed client-side, the server marks the
  // first hop and never bounces a marked request again.
  MiniCluster cluster(4, small_docbase(4));
  cluster.start();
  for (int i = 0; i < 12; ++i) {
    const std::string path = "/docs/file" + std::to_string(i) + ".html";
    const auto result = fetch(cluster.next_base_url() + path);
    ASSERT_TRUE(result.has_value()) << path;
    EXPECT_LE(result->redirects_followed, 1) << path;
    EXPECT_EQ(http::code(result->response.status), 200) << path;
  }
}

TEST(Runtime, HeadRequestOmitsBodyButKeepsLength) {
  MiniCluster cluster(1, small_docbase(1));
  cluster.start();
  FetchOptions options;
  options.head = true;
  const auto result =
      fetch(cluster.next_base_url() + "/docs/file0.html", options);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(http::code(result->response.status), 200);
  EXPECT_TRUE(result->response.body.empty());
  EXPECT_EQ(result->response.headers.get("Content-Length"), "4096");
}

TEST(Runtime, LoadBoardCountsServedRequests) {
  MiniCluster cluster(2, small_docbase(2));
  cluster.start();
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        fetch(cluster.next_base_url() + "/docs/file0.html").has_value());
  }
  std::uint64_t served = 0;
  for (const NodeLoad& l : cluster.board().snapshot_all()) served += l.served;
  EXPECT_EQ(served, 6u);
}

TEST(Runtime, ConcurrentClientsAllSucceed) {
  MiniCluster cluster(3, small_docbase(3));
  cluster.start();
  constexpr int kClients = 8;
  constexpr int kPerClient = 5;
  std::vector<std::thread> clients;
  std::atomic<int> ok{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&cluster, &ok, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const std::string path =
            "/docs/file" + std::to_string((c + i) % 12) + ".html";
        const std::string url = "http://127.0.0.1:" +
                                std::to_string(cluster.port(c % 3)) + path;
        const auto result = fetch(url);
        if (result && http::code(result->response.status) == 200) ++ok;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok.load(), kClients * kPerClient);
}

TEST(Runtime, StopUnblocksCleanly) {
  MiniCluster cluster(2, small_docbase(2));
  cluster.start();
  ASSERT_TRUE(fetch(cluster.next_base_url() + "/docs/file0.html").has_value());
  cluster.stop();  // must join without hanging
  cluster.start(); // and be restartable
  ASSERT_TRUE(fetch(cluster.next_base_url() + "/docs/file0.html").has_value());
}

TEST(Runtime, ConditionalGetReturns304WhenFresh) {
  MiniCluster cluster(1, small_docbase(1));
  cluster.start();
  // First fetch: learn the Last-Modified stamp.
  const std::string url = cluster.next_base_url() + "/docs/file0.html";
  const auto first = fetch(url);
  ASSERT_TRUE(first.has_value());
  const auto stamp = first->response.headers.get("Last-Modified");
  ASSERT_TRUE(stamp.has_value());

  // Re-fetch with If-Modified-Since: raw exchange so we can add the header.
  auto stream = TcpStream::connect(
      SocketAddress::loopback(cluster.port(0)), std::chrono::seconds(2));
  ASSERT_TRUE(stream.has_value());
  http::Request request;
  request.target = "/docs/file0.html";
  request.headers.add("If-Modified-Since", std::string(*stamp));
  ASSERT_TRUE(stream->write_all(request.serialize(), std::chrono::seconds(2)));
  stream->shutdown_write();
  const auto response = try_read_response(*stream);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(http::code(response->status), 304);
  EXPECT_TRUE(response->body.empty());
}

TEST(Runtime, StaleIfModifiedSinceGetsFullBody) {
  MiniCluster cluster(1, small_docbase(1));
  cluster.start();
  auto stream = TcpStream::connect(
      SocketAddress::loopback(cluster.port(0)), std::chrono::seconds(2));
  ASSERT_TRUE(stream.has_value());
  http::Request request;
  request.target = "/docs/file0.html";
  // Well before the synthesized 1996 modification stamps.
  request.headers.add("If-Modified-Since",
                      "Mon, 01 Jan 1990 00:00:00 GMT");
  ASSERT_TRUE(stream->write_all(request.serialize(), std::chrono::seconds(2)));
  stream->shutdown_write();
  const auto response = try_read_response(*stream);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(http::code(response->status), 200);
  EXPECT_EQ(response->body.size(), 4096u);
}

TEST(Runtime, RedirectWithoutLocationReturnsNullopt) {
  // A 302 missing its Location header is a malformed redirect; the client
  // must fail the fetch rather than dereference a header that is not there
  // or hand the bare 302 back as a final answer.
  TcpListener listener(0);
  std::thread server([&listener] {
    auto peer = listener.accept(std::chrono::seconds(2));
    if (!peer) return;
    // Drain the request, then answer 302 with no Location.
    (void)peer->read_some(16 * 1024, std::chrono::seconds(2));
    (void)peer->write_all(
        "HTTP/1.0 302 Found\r\nContent-Length: 0\r\n\r\n",
        std::chrono::seconds(2));
  });
  const auto result =
      fetch("http://127.0.0.1:" + std::to_string(listener.port()) + "/x");
  server.join();
  EXPECT_FALSE(result.has_value());
}

TEST(Runtime, KeepAliveSessionReusesOneConnection) {
  MiniCluster cluster(1, small_docbase(1));
  cluster.start();
  FetchOptions options;
  options.keep_alive = true;
  FetchSession session(options);
  const std::string base =
      "http://127.0.0.1:" + std::to_string(cluster.port(0));
  for (int i = 0; i < 3; ++i) {
    const auto result =
        session.fetch(base + "/docs/file" + std::to_string(i) + ".html");
    ASSERT_TRUE(result.has_value()) << i;
    EXPECT_EQ(http::code(result->response.status), 200) << i;
    EXPECT_EQ(result->response.headers.get("Connection"), "Keep-Alive") << i;
  }
  EXPECT_EQ(session.connections_opened(), 1);
}

TEST(Runtime, NonKeepAliveSessionOpensConnectionPerFetch) {
  MiniCluster cluster(1, small_docbase(1));
  cluster.start();
  FetchSession session;  // default: no keep-alive
  const std::string base =
      "http://127.0.0.1:" + std::to_string(cluster.port(0));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(session.fetch(base + "/docs/file0.html").has_value());
  }
  EXPECT_EQ(session.connections_opened(), 3);
}

TEST(Runtime, LoadBoardClampsDoubleCloseInsteadOfUnderflowing) {
  LoadBoard board(2);
  board.connection_opened(0, 1024);
  board.connection_closed(0, 1024);
  board.connection_closed(0, 1024);  // the accounting bug, now survivable
  EXPECT_EQ(board.snapshot(0).active_connections, 0);
  EXPECT_EQ(board.underflows(), 1u);
  // The other node's books stay untouched.
  EXPECT_EQ(board.snapshot(1).active_connections, 0);
}

TEST(Runtime, LoadBoardUnderflowCounterReachesRegistry) {
  obs::Registry registry;
  LoadBoard board(1);
  board.bind_registry(registry);
  board.connection_closed(0, 0);
  EXPECT_EQ(registry.counter("loadboard.underflow").value(), 1u);
}

TEST(Runtime, RedirectsCanBeDisabled) {
  MiniClusterOptions options;
  options.enable_redirects = false;
  MiniCluster cluster(2, small_docbase(2), options);
  cluster.start();
  const std::string url = "http://127.0.0.1:" +
                          std::to_string(cluster.port(0)) +
                          "/docs/file1.html";
  const auto result = fetch(url);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->redirects_followed, 0);
  EXPECT_EQ(result->response.headers.get("X-Sweb-Node"), "0");
}

}  // namespace
}  // namespace sweb::runtime
