// The zero-copy hot path and its runtime page cache: residency bookkeeping,
// writev serving byte-identical to the copy path (torn writes included),
// cache-aware redirect placement, and the HEAD/304 load-accounting fixes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "fs/docbase.h"
#include "http/parser.h"
#include "obs/json.h"
#include "runtime/client.h"
#include "runtime/load_board.h"
#include "runtime/mini_cluster.h"
#include "runtime/node_cache.h"
#include "runtime/socket.h"

namespace sweb::runtime {
namespace {

fs::Docbase small_docbase(int nodes) {
  return fs::make_uniform(12, 4096, nodes, fs::Placement::kRoundRobin,
                          nullptr, "/docs");
}

/// Raw HTTP exchange against one node: returns the unparsed wire bytes and
/// the parsed response (tests that care about the status line's exact text
/// need both).
struct RawResult {
  std::string wire;
  http::Response response;
};

std::optional<RawResult> raw_exchange(std::uint16_t port,
                                      const http::Request& request) {
  auto stream = TcpStream::connect(SocketAddress::loopback(port),
                                   std::chrono::seconds(2));
  if (!stream) return std::nullopt;
  if (!stream->write_all(request.serialize(), std::chrono::seconds(2))) {
    return std::nullopt;
  }
  stream->shutdown_write();
  RawResult out;
  http::ResponseParser parser;
  parser.expect_head_response(request.method == http::Method::kHead);
  http::ParseResult state = http::ParseResult::kNeedMore;
  while (state == http::ParseResult::kNeedMore) {
    const auto chunk = stream->read_some(8192, std::chrono::seconds(2));
    if (!chunk.ok) return std::nullopt;
    if (chunk.eof) {
      state = parser.finish_eof();
      break;
    }
    out.wire.append(chunk.data);
    std::size_t consumed = 0;
    state = parser.feed(chunk.data, consumed);
  }
  if (state != http::ParseResult::kComplete) return std::nullopt;
  out.response = parser.message();
  return out;
}

// --- NodeCache / CacheDirectory bookkeeping ------------------------------

TEST(NodeCache, HitMissAndEvictionUnderByteBudget) {
  NodeCache cache(8192);
  EXPECT_FALSE(cache.lookup("/a"));  // cold: a miss, counted
  cache.insert("/a", 4096);
  EXPECT_TRUE(cache.lookup("/a"));
  cache.insert("/b", 4096);
  EXPECT_EQ(cache.used(), 8192u);
  // A third document overflows the budget; the LRU entry ("/a" was touched
  // after insert, but "/b" is more recent... touch "/b" explicitly so the
  // victim is unambiguous).
  EXPECT_TRUE(cache.lookup("/b"));
  cache.insert("/c", 4096);
  EXPECT_FALSE(cache.contains("/a"));  // evicted
  EXPECT_TRUE(cache.contains("/b"));
  EXPECT_TRUE(cache.contains("/c"));
  EXPECT_LE(cache.used(), cache.capacity());
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_GT(cache.hit_rate(), 0.0);
}

TEST(NodeCache, DirectoryResidencyGuardsBoundsAndDisabled) {
  CacheDirectory caches(2, 1 << 20);
  EXPECT_TRUE(caches.enabled());
  caches.node(1).insert("/docs/file0.html", 4096);
  EXPECT_TRUE(caches.resident(1, "/docs/file0.html"));
  EXPECT_FALSE(caches.resident(0, "/docs/file0.html"));
  EXPECT_FALSE(caches.resident(-1, "/docs/file0.html"));
  EXPECT_FALSE(caches.resident(2, "/docs/file0.html"));

  CacheDirectory disabled(2, 0);
  EXPECT_FALSE(disabled.enabled());
  EXPECT_FALSE(disabled.resident(0, "/docs/file0.html"));
}

// --- Zero-copy hot path over real sockets --------------------------------

TEST(RuntimeCache, HotPathByteIdenticalToCopyPath) {
  MiniCluster cluster(1, small_docbase(1));
  cluster.start();
  const std::string path = "/docs/file0.html";
  const std::string url = cluster.next_base_url() + path;

  // First fetch: cold cache, copy path (miss populates residency).
  const auto cold = fetch(url);
  ASSERT_TRUE(cold.has_value());
  EXPECT_EQ(http::code(cold->response.status), 200);
  // Second fetch: resident, served via the writev gather path.
  const auto warm = fetch(url);
  ASSERT_TRUE(warm.has_value());
  EXPECT_EQ(http::code(warm->response.status), 200);

  const DocStore::Entry* entry = cluster.docs().find(path);
  ASSERT_NE(entry, nullptr);
  ASSERT_NE(entry->content, nullptr);
  // Both paths must put exactly the stored content on the wire.
  EXPECT_EQ(cold->response.body, *entry->content);
  EXPECT_EQ(warm->response.body, *entry->content);
  EXPECT_EQ(warm->response.headers.get("Content-Length"),
            std::to_string(entry->content->size()));

  EXPECT_GE(cluster.caches().node(0).misses(), 1u);
  EXPECT_GE(cluster.caches().node(0).hits(), 1u);

  // The status endpoint reports the same counters over the wire.
  const auto status = fetch(cluster.next_base_url() + "/sweb/status");
  ASSERT_TRUE(status.has_value());
  const auto doc = obs::json_parse(status->response.body);
  ASSERT_TRUE(doc.has_value());
  const obs::JsonValue* cache = doc->find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_NE(cache->find("enabled"), nullptr);
  EXPECT_GE(cache->number_or("hits", 0.0), 1.0);
  EXPECT_GE(cache->number_or("used_bytes", 0.0), 4096.0);
}

TEST(RuntimeCache, HotPathSurvivesTornWrites) {
  // Chaos tears every send into tiny segments; the gather path must clamp
  // its iovec budget exactly like the single-buffer path and still deliver
  // the full document, twice (copy path then writev path).
  MiniClusterOptions options;
  options.chaos_node = 0;
  options.chaos.torn_write_max_bytes = 7;
  MiniCluster cluster(1, small_docbase(1), options);
  cluster.start();
  const std::string path = "/docs/file3.html";
  const std::string url = cluster.next_base_url() + path;
  const DocStore::Entry* entry = cluster.docs().find(path);
  ASSERT_NE(entry, nullptr);
  for (int round = 0; round < 2; ++round) {
    const auto result = fetch(url);
    ASSERT_TRUE(result.has_value()) << "round " << round;
    EXPECT_EQ(http::code(result->response.status), 200);
    EXPECT_EQ(result->response.body, *entry->content) << "round " << round;
  }
  EXPECT_GE(cluster.caches().node(0).hits(), 1u);
}

TEST(RuntimeCache, DiscountRedirectsTowardResidentNode) {
  // file0 is owned by node 0; warm node 1's cache by forcing a local serve
  // there, then ask node 0. With a discount beating the redirect advantage
  // the broker must prefer the resident (zero-copy) peer over serving the
  // document it owns.
  MiniClusterOptions options;
  options.broker.cache_hit_discount = 3.0;  // > kMinConnectionAdvantage (2)
  MiniCluster cluster(2, small_docbase(2), options);
  cluster.start();
  const std::string path = "/docs/file0.html";
  const auto warmup = fetch("http://127.0.0.1:" +
                            std::to_string(cluster.port(1)) + path +
                            "?sweb-hop=1");
  ASSERT_TRUE(warmup.has_value());
  ASSERT_EQ(http::code(warmup->response.status), 200);
  ASSERT_TRUE(cluster.caches().resident(1, path));
  ASSERT_FALSE(cluster.caches().resident(0, path));

  const auto result = fetch("http://127.0.0.1:" +
                            std::to_string(cluster.port(0)) + path);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(http::code(result->response.status), 200);
  EXPECT_EQ(result->redirects_followed, 1);
  EXPECT_EQ(result->response.headers.get("X-Sweb-Node"), "1");
}

TEST(RuntimeCache, NoDiscountKeepsOwnerServing) {
  // Same warm-peer setup, default knob: placement stays load-based and the
  // owner answers its own document locally.
  MiniCluster cluster(2, small_docbase(2));
  cluster.start();
  const std::string path = "/docs/file0.html";
  ASSERT_TRUE(fetch("http://127.0.0.1:" + std::to_string(cluster.port(1)) +
                    path + "?sweb-hop=1")
                  .has_value());
  const auto result = fetch("http://127.0.0.1:" +
                            std::to_string(cluster.port(0)) + path);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(http::code(result->response.status), 200);
  EXPECT_EQ(result->redirects_followed, 0);
  EXPECT_EQ(result->response.headers.get("X-Sweb-Node"), "0");
}

// --- HEAD / 304 phantom-load accounting ----------------------------------

TEST(RuntimeCache, HeadDecisionPredictsZeroDataBytes) {
  // The broker's audit trail is the deterministic witness for the charge
  // fix: a HEAD moves headers only, so the recorded prediction must price
  // t_data at zero, where the old code charged the full document. The
  // request targets a peer-owned document and stops at the 302, leaving
  // the decision pending for inspection.
  MiniCluster cluster(2, small_docbase(2));
  cluster.start();

  http::Request head;
  head.method = http::Method::kHead;
  head.target = "/docs/file1.html";  // owned by node 1; ask node 0
  head.headers.add("X-SWEB-Request-Id", "777001");
  const auto redirected = raw_exchange(cluster.port(0), head);
  ASSERT_TRUE(redirected.has_value());
  ASSERT_EQ(http::code(redirected->response.status), 302);
  const auto head_decision = cluster.audit().pending(777001);
  ASSERT_TRUE(head_decision.has_value());
  EXPECT_EQ(head_decision->predicted.t_data, 0.0);

  // Control: the same document via GET must be priced by its size.
  http::Request get;
  get.target = "/docs/file1.html";
  get.headers.add("X-SWEB-Request-Id", "777002");
  const auto full = raw_exchange(cluster.port(0), get);
  ASSERT_TRUE(full.has_value());
  ASSERT_EQ(http::code(full->response.status), 302);
  const auto get_decision = cluster.audit().pending(777002);
  ASSERT_TRUE(get_decision.has_value());
  EXPECT_GT(get_decision->predicted.t_data, 0.0);
}

TEST(RuntimeCache, HeadAndConditionalBurstLeavesNoPhantomBytes) {
  MiniCluster cluster(2, small_docbase(2));
  cluster.start();
  // Learn a fresh Last-Modified stamp for the conditional requests.
  const auto first =
      fetch(cluster.next_base_url() + "/docs/file0.html");
  ASSERT_TRUE(first.has_value());
  const auto stamp = first->response.headers.get("Last-Modified");
  ASSERT_TRUE(stamp.has_value());
  const std::string last_modified(*stamp);

  constexpr int kClients = 6;
  constexpr int kPerClient = 10;
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&cluster, &ok, &last_modified, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const std::string doc = "/docs/file" + std::to_string((c + i) % 12) +
                                ".html";
        if (i % 2 == 0) {
          FetchOptions options;
          options.head = true;
          const auto result = fetch(
              "http://127.0.0.1:" +
                  std::to_string(cluster.port((c + i) % 2)) + doc,
              options);
          if (result && http::code(result->response.status) == 200 &&
              result->response.body.empty()) {
            ++ok;
          }
        } else {
          // Conditional GETs revalidate file0 — the one whose stamp we
          // learned (each document carries its own Last-Modified). The hop
          // marker forces a local serve: this raw client follows no 302s.
          http::Request conditional;
          conditional.target = "/docs/file0.html?sweb-hop=1";
          conditional.headers.add("If-Modified-Since", last_modified);
          const auto result =
              raw_exchange(cluster.port((c + i) % 2), conditional);
          if (result && http::code(result->response.status) == 304 &&
              result->response.body.empty()) {
            ++ok;
          }
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok.load(), kClients * kPerClient);
  // Every charge was released at the size it was opened with: no phantom
  // bytes linger on the board, and no release ever underflowed.
  for (int n = 0; n < cluster.num_nodes(); ++n) {
    EXPECT_EQ(cluster.board().snapshot(n).bytes_in_flight, 0u)
        << "node " << n;
  }
  EXPECT_EQ(cluster.board().underflows(), 0u);
}

TEST(RuntimeCache, NotModifiedCarriesReasonPhraseOnWire) {
  MiniCluster cluster(1, small_docbase(1));
  cluster.start();
  const auto first =
      fetch(cluster.next_base_url() + "/docs/file0.html");
  ASSERT_TRUE(first.has_value());
  const auto stamp = first->response.headers.get("Last-Modified");
  ASSERT_TRUE(stamp.has_value());

  http::Request conditional;
  conditional.target = "/docs/file0.html";
  conditional.headers.add("If-Modified-Since", std::string(*stamp));
  const auto result = raw_exchange(cluster.port(0), conditional);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(http::code(result->response.status), 304);
  // The status line itself must say so — not a number with an alien
  // reason phrase (the pre-fix server had no 304 in its Status enum).
  EXPECT_NE(result->wire.find("304 Not Modified"), std::string::npos);
}

// --- Rotation race (TSan-covered) ----------------------------------------

TEST(RuntimeCache, ConcurrentRotationStaysBalanced) {
  // next_base_url() used to bump a plain size_t from whichever thread
  // asked — a data race under concurrent clients. The atomic rotation must
  // hand out every node's base URL exactly equally.
  MiniCluster cluster(4, small_docbase(4));
  cluster.start();
  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 100;
  std::vector<std::vector<std::string>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cluster, &seen, t] {
      seen[static_cast<std::size_t>(t)].reserve(kCallsPerThread);
      for (int i = 0; i < kCallsPerThread; ++i) {
        seen[static_cast<std::size_t>(t)].push_back(
            cluster.next_base_url());
      }
    });
  }
  for (auto& t : threads) t.join();
  std::vector<int> per_node(4, 0);
  for (const auto& urls : seen) {
    for (const std::string& url : urls) {
      for (int n = 0; n < 4; ++n) {
        if (url == "http://127.0.0.1:" + std::to_string(cluster.port(n))) {
          ++per_node[static_cast<std::size_t>(n)];
        }
      }
    }
  }
  // fetch_add hands out 0..799 exactly once: every residue class mod 4
  // appears exactly 200 times.
  for (int n = 0; n < 4; ++n) {
    EXPECT_EQ(per_node[static_cast<std::size_t>(n)],
              kThreads * kCallsPerThread / 4)
        << "node " << n;
  }
}

}  // namespace
}  // namespace sweb::runtime
