// GET /sweb/status over real loopback sockets: every node introspects its
// own loadd view + the shared metrics registry as JSON.
#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <string>

#include "fs/docbase.h"
#include "obs/json.h"
#include "runtime/client.h"
#include "runtime/mini_cluster.h"
#include "runtime_test_support.h"

namespace sweb::runtime {
namespace {

std::string status_url(const MiniCluster& cluster, int node) {
  return "http://127.0.0.1:" + std::to_string(cluster.port(node)) +
         "/sweb/status";
}

TEST(StatusEndpoint, ReturnsValidJson) {
  MiniCluster cluster(3, small_docbase(3));
  cluster.start();
  const auto result = fetch(status_url(cluster, 0));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(http::code(result->response.status), 200);
  EXPECT_EQ(result->response.headers.get("Content-Type"),
            "application/json");
  // Monitoring output must never be cached by an intermediary.
  EXPECT_EQ(result->response.headers.get("Cache-Control"), "no-store");
  EXPECT_TRUE(obs::json_is_valid(result->response.body))
      << result->response.body;
}

TEST(StatusEndpoint, EveryNodeReportsItself) {
  MiniCluster cluster(2, small_docbase(2));
  cluster.start();
  for (int node = 0; node < cluster.num_nodes(); ++node) {
    const auto result = fetch(status_url(cluster, node));
    ASSERT_TRUE(result.has_value());
    const std::string& body = result->response.body;
    EXPECT_NE(body.find("\"node\":" + std::to_string(node)),
              std::string::npos)
        << body;
    EXPECT_NE(body.find("\"uptime_seconds\":"), std::string::npos);
    EXPECT_NE(body.find("\"board\":["), std::string::npos);
  }
}

TEST(StatusEndpoint, BoardMatchesLoadBoardState) {
  MiniCluster cluster(2, small_docbase(2));
  cluster.start();
  // Generate some traffic first: file0 → node 0, file1 → node 1 (owner
  // redirect when asked via the wrong node).
  ASSERT_TRUE(fetch(status_url(cluster, 0)).has_value());
  for (int i = 0; i < 3; ++i) {
    const auto r = fetch("http://127.0.0.1:" +
                         std::to_string(cluster.port(0)) +
                         "/docs/file0.html");
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(http::code(r->response.status), 200);
  }

  const auto result = fetch(status_url(cluster, 0));
  ASSERT_TRUE(result.has_value());
  const std::string& body = result->response.body;
  EXPECT_TRUE(obs::json_is_valid(body)) << body;

  // The served count the endpoint reports equals the LoadBoard's.
  const NodeLoad self = cluster.board().snapshot(0);
  EXPECT_GE(self.served, 3u);
  const std::string expect_served =
      "\"served\":" + std::to_string(self.served);
  EXPECT_NE(body.find(expect_served), std::string::npos)
      << body << "\nexpected " << expect_served;
  // One board entry per node, exactly one marked as the responder itself
  // (counting from "board":[ skips the top-level {"node":N header).
  std::size_t entries = 0;
  for (std::size_t at = body.find("{\"node\":", body.find("\"board\":["));
       at != std::string::npos; at = body.find("{\"node\":", at + 1)) {
    ++entries;
  }
  EXPECT_EQ(entries, static_cast<std::size_t>(cluster.num_nodes()));
  EXPECT_NE(body.find("\"self\":true"), std::string::npos);
  // Peers' broadcast ages are reported so staleness is visible.
  EXPECT_NE(body.find("\"age_seconds\":"), std::string::npos);
}

TEST(StatusEndpoint, MetricsSectionCountsRequests) {
  MiniCluster cluster(2, small_docbase(2));
  cluster.start();
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(fetch("http://127.0.0.1:" +
                      std::to_string(cluster.port(1)) + "/docs/file1.html")
                    .has_value());
  }
  const auto result = fetch(status_url(cluster, 1));
  ASSERT_TRUE(result.has_value());
  const std::string& body = result->response.body;
  EXPECT_NE(body.find("\"metrics\":{"), std::string::npos) << body;
  EXPECT_NE(body.find("\"node.1.requests\":"), std::string::npos) << body;
  EXPECT_NE(body.find("\"node.1.phase.total\""), std::string::npos);
  // Registry agrees with what went over the wire (2 docs + this status).
  EXPECT_GE(cluster.registry().counter("node.1.requests").value(), 3u);
  // The DocStore and LoadBoard publish their own instruments too.
  EXPECT_GE(cluster.registry().counter("docs.lookups").value(), 2u);
  EXPECT_EQ(cluster.registry().gauge("board.redirect_inflation").value(), 0);
}

TEST(StatusEndpoint, TracerRecordsRealRequestPhases) {
  MiniCluster cluster(2, small_docbase(2));
  cluster.tracer().set_enabled(true);
  cluster.start();
  ASSERT_TRUE(fetch("http://127.0.0.1:" + std::to_string(cluster.port(0)) +
                    "/docs/file0.html")
                  .has_value());
  // Spans are recorded after the last byte is sent: wait for all six
  // (queue_wait, header_read, parse, broker_decide, doc_read, write).
  EXPECT_TRUE(eventually([&cluster] { return cluster.tracer().size() >= 6; }));
  cluster.stop();

  std::ostringstream out;
  cluster.tracer().write_chrome_json(out);
  const std::string json = out.str();
  EXPECT_TRUE(obs::json_is_valid(json)) << json;
  EXPECT_NE(json.find("\"parse\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"write\""), std::string::npos) << json;
}

}  // namespace
}  // namespace sweb::runtime
