// Prometheus text exposition: name mangling, the 0.0.4 render format, and a
// live scrape of /sweb/metrics parsed line by line — every line must be a
// `# TYPE` header or a well-formed sample, or the scrape is rejected.
#include "obs/prometheus.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "fs/docbase.h"
#include "http/message.h"
#include "obs/registry.h"
#include "runtime/client.h"
#include "runtime/mini_cluster.h"

namespace sweb::obs {
namespace {

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  const auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  };
  if (!head(name[0])) return false;
  for (char c : name.substr(1)) {
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  }
  return true;
}

/// One exposition line: `# TYPE <name> <counter|gauge|histogram>` or
/// `<name>[{labels}] <value>`. Exactly the subset prometheus_text emits,
/// checked strictly — a scraper seeing anything else would drop the target.
bool line_is_valid(const std::string& line) {
  if (line.empty()) return false;
  if (line[0] == '#') {
    constexpr std::string_view kType = "# TYPE ";
    if (line.rfind(kType, 0) != 0) return false;
    const std::size_t name_at = kType.size();
    const std::size_t space = line.find(' ', name_at);
    if (space == std::string::npos) return false;
    const std::string type = line.substr(space + 1);
    return valid_metric_name(
               std::string_view(line).substr(name_at, space - name_at)) &&
           (type == "counter" || type == "gauge" || type == "histogram");
  }
  std::size_t name_end = line.find_first_of("{ ");
  if (name_end == std::string::npos || name_end == 0) return false;
  if (!valid_metric_name(std::string_view(line).substr(0, name_end))) {
    return false;
  }
  std::size_t value_at;
  if (line[name_end] == '{') {
    const std::size_t close = line.find('}', name_end);
    if (close == std::string::npos || close + 1 >= line.size() ||
        line[close + 1] != ' ') {
      return false;
    }
    value_at = close + 2;
  } else {
    value_at = name_end + 1;
  }
  if (value_at >= line.size()) return false;
  const std::string value = line.substr(value_at);
  char* end = nullptr;
  std::strtod(value.c_str(), &end);
  return end != nullptr && *end == '\0' && end != value.c_str();
}

/// Validates every line and returns the number of sample (non-#) lines.
std::size_t expect_valid_exposition(const std::string& text) {
  std::size_t samples = 0;
  for (const std::string& line : split_lines(text)) {
    EXPECT_TRUE(line_is_valid(line)) << "malformed line: " << line;
    if (!line.empty() && line[0] != '#') ++samples;
  }
  return samples;
}

TEST(PrometheusName, MapsDottedNamesOntoTheGrammar) {
  EXPECT_EQ(prometheus_name("broker.predict_error.t_data"),
            "sweb_broker_predict_error_t_data");
  EXPECT_EQ(prometheus_name("node.0.requests"), "sweb_node_0_requests");
  EXPECT_EQ(prometheus_name("a-b c/d"), "sweb_a_b_c_d");
  EXPECT_EQ(prometheus_name("scope:metric"), "sweb_scope:metric");
  EXPECT_TRUE(valid_metric_name(prometheus_name("9starts.with.digit")));
}

TEST(PrometheusText, RendersAllThreeInstrumentKinds) {
  Registry registry;
  registry.counter("cache.hits").inc(3);
  registry.gauge("node.0.inflight").set(-2);
  Histogram& h = registry.histogram("lat", {1.0, 2.0});
  h.observe(0.5);
  h.observe(1.5);
  h.observe(5.0);

  const std::string text = prometheus_text(registry.snapshot());
  EXPECT_NE(text.find("# TYPE sweb_cache_hits counter\nsweb_cache_hits 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE sweb_node_0_inflight gauge\n"
                      "sweb_node_0_inflight -2\n"),
            std::string::npos)
      << text;
  // Cumulative le-buckets ending at +Inf, then _sum and _count.
  EXPECT_NE(text.find("# TYPE sweb_lat histogram\n"
                      "sweb_lat_bucket{le=\"1\"} 1\n"
                      "sweb_lat_bucket{le=\"2\"} 2\n"
                      "sweb_lat_bucket{le=\"+Inf\"} 3\n"
                      "sweb_lat_sum 7\n"
                      "sweb_lat_count 3\n"),
            std::string::npos)
      << text;
  EXPECT_GT(expect_valid_exposition(text), 0u);
}

TEST(PrometheusText, LineCheckerRejectsMalformedLines) {
  EXPECT_TRUE(line_is_valid("sweb_up 1"));
  EXPECT_TRUE(line_is_valid("sweb_lat_bucket{le=\"+Inf\"} 3"));
  EXPECT_TRUE(line_is_valid("# TYPE sweb_up gauge"));
  EXPECT_FALSE(line_is_valid(""));
  EXPECT_FALSE(line_is_valid("# HELLO sweb_up gauge"));
  EXPECT_FALSE(line_is_valid("# TYPE sweb_up thermometer"));
  EXPECT_FALSE(line_is_valid("3starts_with_digit 1"));
  EXPECT_FALSE(line_is_valid("sweb.dotted.name 1"));
  EXPECT_FALSE(line_is_valid("sweb_no_value"));
  EXPECT_FALSE(line_is_valid("sweb_nan_value abc"));
  EXPECT_FALSE(line_is_valid("sweb_unclosed{le=\"1\" 2"));
}

TEST(PrometheusEndpoint, ScrapeParsesEveryLine) {
  runtime::MiniCluster cluster(
      2, fs::make_uniform(8, 4096, 2, fs::Placement::kRoundRobin, nullptr,
                          "/docs"));
  cluster.start();
  // Traffic first, so histograms and per-node counters are populated; odd
  // files redirect, which exercises the broker/audit families too.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(runtime::fetch("http://127.0.0.1:" +
                               std::to_string(cluster.port(0)) +
                               "/docs/file" + std::to_string(i) + ".html")
                    .has_value());
  }

  const auto result = runtime::fetch(
      "http://127.0.0.1:" + std::to_string(cluster.port(0)) +
      "/sweb/metrics");
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(http::code(result->response.status), 200);
  EXPECT_EQ(result->response.headers.get("Content-Type"),
            "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_EQ(result->response.headers.get("Cache-Control"), "no-store");

  const std::string& body = result->response.body;
  EXPECT_GT(expect_valid_exposition(body), 0u);
  EXPECT_NE(body.find("# TYPE sweb_node_0_requests counter"),
            std::string::npos);
  EXPECT_NE(body.find("# TYPE sweb_node_0_phase_total histogram"),
            std::string::npos);
  EXPECT_NE(body.find("sweb_broker_audit_joined "), std::string::npos);

  // Histogram bucket series must be cumulative: scan each family's
  // consecutive _bucket lines and require non-decreasing counts.
  std::string family;
  double last = 0.0;
  for (const std::string& line : split_lines(body)) {
    const std::size_t at = line.find("_bucket{le=\"");
    if (line.empty() || line[0] == '#' || at == std::string::npos) {
      family.clear();
      continue;
    }
    const std::string this_family = line.substr(0, at);
    const double value = std::atof(line.substr(line.rfind(' ') + 1).c_str());
    if (this_family == family) {
      EXPECT_GE(value, last) << "non-cumulative buckets: " << line;
    }
    family = this_family;
    last = value;
  }
  cluster.stop();
}

TEST(PrometheusEndpoint, EveryNodeExposesItself) {
  runtime::MiniCluster cluster(
      2, fs::make_uniform(4, 2048, 2, fs::Placement::kRoundRobin, nullptr,
                          "/docs"));
  cluster.start();
  for (int node = 0; node < cluster.num_nodes(); ++node) {
    const auto result = runtime::fetch(
        "http://127.0.0.1:" + std::to_string(cluster.port(node)) +
        "/sweb/metrics");
    ASSERT_TRUE(result.has_value()) << "node " << node;
    EXPECT_EQ(http::code(result->response.status), 200);
    // The scrape itself bumped this node's request counter; the shared
    // registry shows it under the node's own family.
    EXPECT_NE(result->response.body.find(
                  "sweb_node_" + std::to_string(node) + "_requests "),
              std::string::npos);
  }
  cluster.stop();
}

}  // namespace
}  // namespace sweb::obs
