// HTTP/1.0 keep-alive over real sockets: multiple requests per connection.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fs/docbase.h"
#include "http/parser.h"
#include "runtime/client.h"
#include "runtime/mini_cluster.h"
#include "runtime/socket.h"

namespace sweb::runtime {
namespace {

using namespace std::chrono_literals;

/// Sends one GET (optionally keep-alive) and parses the response off the
/// open stream. Returns the response; `closed` reports whether the
/// server closed afterwards.
[[nodiscard]] http::Response roundtrip(TcpStream& stream,
                                       const std::string& path,
                                       bool keep_alive, bool& closed) {
  http::Request request;
  request.target = path;
  request.headers.add("Host", "sweb.test");
  if (keep_alive) request.headers.add("Connection", "Keep-Alive");
  EXPECT_TRUE(stream.write_all(request.serialize(), 2000ms));

  http::ResponseParser parser;
  http::ParseResult state = http::ParseResult::kNeedMore;
  closed = false;
  while (state == http::ParseResult::kNeedMore) {
    const auto chunk = stream.read_some(16 * 1024, 2000ms);
    EXPECT_TRUE(chunk.ok);
    if (!chunk.ok) break;
    if (chunk.eof) {
      state = parser.finish_eof();
      closed = true;
      break;
    }
    std::size_t consumed = 0;
    state = parser.feed(chunk.data, consumed);
  }
  EXPECT_EQ(state, http::ParseResult::kComplete);
  return parser.message();
}

class KeepAliveTest : public ::testing::Test {
 protected:
  KeepAliveTest()
      : cluster(1, fs::make_uniform(6, 2048, 1, fs::Placement::kRoundRobin,
                                    nullptr, "/docs")) {
    cluster.start();
  }

  [[nodiscard]] TcpStream connect() {
    auto stream = TcpStream::connect(
        SocketAddress::loopback(cluster.port(0)), 2000ms);
    EXPECT_TRUE(stream.has_value());
    return std::move(*stream);
  }

  MiniCluster cluster;
};

TEST_F(KeepAliveTest, TwoRequestsOnOneConnection) {
  TcpStream stream = connect();
  bool closed = false;
  const auto first = roundtrip(stream, "/docs/file0.html", true, closed);
  EXPECT_EQ(http::code(first.status), 200);
  EXPECT_EQ(first.headers.get("Connection"), "Keep-Alive");
  EXPECT_FALSE(closed);

  const auto second = roundtrip(stream, "/docs/file1.html", true, closed);
  EXPECT_EQ(http::code(second.status), 200);
  EXPECT_NE(second.body.find("/docs/file1.html"), std::string::npos);
}

TEST_F(KeepAliveTest, WithoutHeaderConnectionCloses) {
  TcpStream stream = connect();
  bool closed = false;
  const auto response = roundtrip(stream, "/docs/file0.html", false, closed);
  EXPECT_EQ(http::code(response.status), 200);
  EXPECT_EQ(response.headers.get("Connection"), "close");
  // The server half-closed; the next read must see EOF.
  const auto chunk = stream.read_some(128, 2000ms);
  EXPECT_TRUE(chunk.ok);
  EXPECT_TRUE(chunk.eof);
}

TEST_F(KeepAliveTest, PipelinedRequestsBothAnswered) {
  // Send both requests back to back before reading anything; the server's
  // leftover-buffer handling must feed the second request.
  TcpStream stream = connect();
  http::Request r1, r2;
  r1.target = "/docs/file2.html";
  r1.headers.add("Connection", "Keep-Alive");
  r2.target = "/docs/file3.html";
  r2.headers.add("Connection", "Keep-Alive");
  ASSERT_TRUE(stream.write_all(r1.serialize() + r2.serialize(), 2000ms));

  std::string wire;
  for (;;) {
    const auto chunk = stream.read_some(64 * 1024, 2000ms);
    if (!chunk.ok || chunk.eof) break;
    wire += chunk.data;
    if (wire.find("/docs/file3.html") != std::string::npos) break;
  }
  EXPECT_NE(wire.find("/docs/file2.html"), std::string::npos);
  EXPECT_NE(wire.find("/docs/file3.html"), std::string::npos);
}

TEST_F(KeepAliveTest, ServerCapsRequestsPerConnection) {
  // A server-side cap of N: request N+1 arrives on a closed socket.
  NodeServer::Config cfg;
  cfg.node_id = 0;
  cfg.max_requests_per_connection = 2;
  const fs::Docbase docs =
      fs::make_uniform(6, 512, 1, fs::Placement::kRoundRobin, nullptr,
                       "/docs");
  const DocStore store(docs);
  LoadBoard board(1);
  NodeServer server(cfg, store, board);
  server.set_peer_ports({server.port()});
  server.start();

  auto maybe = TcpStream::connect(SocketAddress::loopback(server.port()),
                                  2000ms);
  ASSERT_TRUE(maybe.has_value());
  TcpStream stream = std::move(*maybe);
  bool closed = false;
  const auto a = roundtrip(stream, "/docs/file0.html", true, closed);
  EXPECT_EQ(a.headers.get("Connection"), "Keep-Alive");
  const auto b = roundtrip(stream, "/docs/file1.html", true, closed);
  // Second (= cap) response announces the close.
  EXPECT_EQ(b.headers.get("Connection"), "close");
  server.stop();
}

TEST(KeepAlive, HeadAnswersCarryNoBodyBytesOnTheWire) {
  // Every HEAD answer — not just a served document — must stop at its
  // header block: a 302 or 404 that leaked its HTML body would leave stray
  // bytes where the next response on the keep-alive connection belongs.
  MiniCluster cluster(2, fs::make_uniform(6, 2048, 2,
                                          fs::Placement::kRoundRobin, nullptr,
                                          "/docs"));
  cluster.start();
  auto maybe = TcpStream::connect(SocketAddress::loopback(cluster.port(0)),
                                  2000ms);
  ASSERT_TRUE(maybe.has_value());
  TcpStream stream = std::move(*maybe);
  std::string pending;  // bytes read past the last parsed response
  // One keep-alive exchange on node 0; stray bytes stay in `pending`.
  const auto exchange = [&stream, &pending](http::Method method,
                                            const std::string& target) {
    http::Request request;
    request.method = method;
    request.target = target;
    request.headers.add("Connection", "Keep-Alive");
    EXPECT_TRUE(stream.write_all(request.serialize(), 2000ms));
    http::ResponseParser parser;
    parser.expect_head_response(method == http::Method::kHead);
    http::ParseResult state = http::ParseResult::kNeedMore;
    std::string data = std::exchange(pending, std::string());
    for (;;) {
      if (!data.empty()) {
        std::size_t consumed = 0;
        state = parser.feed(data, consumed);
        if (state != http::ParseResult::kNeedMore) {
          pending = data.substr(consumed);
          break;
        }
      }
      const auto chunk = stream.read_some(16 * 1024, 2000ms);
      if (!chunk.ok || chunk.eof) break;
      data = chunk.data;
    }
    EXPECT_EQ(state, http::ParseResult::kComplete) << parser.error();
    return parser.message();
  };

  // file1 is owned by node 1: node 0 answers the HEAD with a 302.
  const http::Response moved = exchange(http::Method::kHead,
                                        "/docs/file1.html");
  EXPECT_EQ(http::code(moved.status), 302);
  EXPECT_TRUE(moved.headers.has("Location"));
  ASSERT_TRUE(moved.headers.has("Content-Length"));
  EXPECT_NE(moved.headers.get("Content-Length"), "0");
  EXPECT_EQ(pending, "");
  // The next response on the same socket parses cleanly.
  EXPECT_EQ(http::code(exchange(http::Method::kGet, "/docs/file0.html")
                           .status),
            200);

  const http::Response missing = exchange(http::Method::kHead,
                                          "/docs/no-such-file.html");
  EXPECT_EQ(http::code(missing.status), 404);
  ASSERT_TRUE(missing.headers.has("Content-Length"));
  EXPECT_NE(missing.headers.get("Content-Length"), "0");
  EXPECT_EQ(pending, "");
  EXPECT_EQ(http::code(exchange(http::Method::kGet, "/docs/file0.html")
                           .status),
            200);
}


TEST(KeepAlive, ThousandIdleConnectionsDoNotBlockLoad) {
  // The reactor parks an idle keep-alive connection as an epoll
  // registration and a timer-heap entry, not a thread. So one node holds a
  // herd of established connections, each of which has served a request,
  // and a burst of keep-alive sessions still runs through it with no
  // failure and no shed.
  constexpr int kHerd = 1024;
  constexpr int kSessions = 8;
  constexpr int kPerSession = 50;
  constexpr int kDocs = 16;
  // Both ends of every socket live in this process.
  constexpr rlim_t kFdsNeeded = 2 * kHerd + 256;
  rlimit limit{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &limit), 0);
  if (limit.rlim_cur < kFdsNeeded) {
    limit.rlim_cur = std::min(kFdsNeeded, limit.rlim_max);
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &limit), 0);
  }
  ASSERT_GE(limit.rlim_cur, kFdsNeeded)
      << "the hard RLIMIT_NOFILE (" << limit.rlim_max << ") is below the "
      << kFdsNeeded << " descriptors this test needs; raise it (ulimit -Hn)";

  MiniClusterOptions options;
  options.max_connections = 2 * kHerd + 64;
  // The idle deadline follows header_timeout: the herd must outlive the
  // test.
  options.header_timeout = 60000ms;
  MiniCluster cluster(1, fs::make_uniform(kDocs, 8192, 1,
                                          fs::Placement::kRoundRobin,
                                          nullptr, "/docs"),
                      options);
  cluster.start();
  const auto path = [](int ordinal) {
    return "/docs/file" + std::to_string(ordinal % kDocs) + ".html";
  };

  std::vector<TcpStream> herd;
  herd.reserve(kHerd);
  for (int i = 0; i < kHerd; ++i) {
    auto stream = TcpStream::connect(
        SocketAddress::loopback(cluster.port(0)), 2000ms);
    ASSERT_TRUE(stream.has_value()) << "herd connection " << i;
    bool closed = false;
    const auto response = roundtrip(*stream, path(i), true, closed);
    ASSERT_EQ(http::code(response.status), 200) << "herd connection " << i;
    ASSERT_FALSE(closed) << "herd connection " << i;
    herd.push_back(std::move(*stream));
  }
  EXPECT_GE(cluster.node(0).active_connections(), kHerd);

  std::atomic<int> failed{0};
  std::vector<std::thread> sessions;
  for (int s = 0; s < kSessions; ++s) {
    sessions.emplace_back([&cluster, &failed, &path, s] {
      FetchOptions fetch_options;
      fetch_options.keep_alive = true;
      FetchSession session(fetch_options);
      for (int i = 0; i < kPerSession; ++i) {
        const auto result = session.fetch(
            "http://127.0.0.1:" + std::to_string(cluster.port(0)) +
            path(s * 7 + i));
        if (!result || http::code(result->response.status) != 200) ++failed;
      }
    });
  }
  for (auto& t : sessions) t.join();
  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(cluster.node(0).shed_count(), 0u);
  // The herd is still held: no idle connection was dropped to make room.
  EXPECT_GE(cluster.node(0).active_connections(), kHerd);
}

}  // namespace
}  // namespace sweb::runtime
