// Request-lifecycle telemetry end to end over real sockets: the phase
// breakdown surfaces in /sweb/status with a fixed eight-phase shape, slow
// requests leave forensics records whose phase vectors reconcile with the
// measured total, chaos-faulted records carry the same rid the Chrome
// trace uses as its tid, and the JSONL sink round-trips through the JSON
// parser. This is the integration proof behind the per-phase histograms.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fs/docbase.h"
#include "http/message.h"
#include "obs/json.h"
#include "obs/phase.h"
#include "obs/slow_log.h"
#include "runtime/chaos.h"
#include "runtime/client.h"
#include "runtime/mini_cluster.h"

namespace sweb::runtime {
namespace {

using namespace std::chrono_literals;

fs::Docbase small_docbase(int nodes) {
  return fs::make_uniform(12, 4096, nodes, fs::Placement::kRoundRobin,
                          nullptr, "/docs");
}

/// Polls `predicate` until it holds or a 2 s deadline passes.
template <typename Predicate>
[[nodiscard]] bool eventually(Predicate predicate) {
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (!predicate()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(2ms);
  }
  return true;
}

/// Fetches and parses one node's /sweb/status document.
[[nodiscard]] obs::JsonValue fetch_status(MiniCluster& cluster, int node) {
  const auto result = fetch("http://127.0.0.1:" +
                            std::to_string(cluster.port(node)) +
                            "/sweb/status");
  EXPECT_TRUE(result.has_value());
  auto doc = obs::json_parse(result->response.body);
  EXPECT_TRUE(doc.has_value() && doc->is_object())
      << result->response.body;
  return *doc;
}

TEST(PhaseLifecycle, StatusReportsAllEightPhasesWithQuantiles) {
  MiniCluster cluster(2, small_docbase(2));
  cluster.start();
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(fetch(cluster.next_base_url() + "/docs/file" +
                      std::to_string(i) + ".html")
                    .has_value());
  }
  const obs::JsonValue status = fetch_status(cluster, 0);
  const obs::JsonValue* phases = status.find("phases");
  ASSERT_NE(phases, nullptr);
  ASSERT_TRUE(phases->is_object());
  ASSERT_EQ(phases->members.size(), obs::kPhaseCount);
  for (const obs::Phase phase : obs::all_phases()) {
    const obs::JsonValue* entry = phases->find(obs::phase_name(phase));
    ASSERT_NE(entry, nullptr) << obs::phase_name(phase);
    // Fixed shape: every phase always carries all four fields.
    EXPECT_GE(entry->number_or("count", -1.0), 0.0);
    EXPECT_GE(entry->number_or("p50_s", -1.0), 0.0);
    EXPECT_GE(entry->number_or("p95_s", -1.0), 0.0);
    EXPECT_GE(entry->number_or("p99_s", -1.0), 0.0);
  }
  // Node 0 served requests, so the request-path phases recorded samples
  // with ordered quantiles on the total.
  const obs::JsonValue* total = phases->find("total");
  EXPECT_GT(total->number_or("count", 0.0), 0.0);
  EXPECT_LE(total->number_or("p50_s", 0.0), total->number_or("p95_s", 0.0));
  EXPECT_LE(total->number_or("p95_s", 0.0), total->number_or("p99_s", 0.0));
  for (const char* name : {"header_read", "parse", "doc_read", "write"}) {
    EXPECT_GT(phases->find(name)->number_or("count", 0.0), 0.0) << name;
  }
  // No CGI ran: cgi_exec stays untouched (count 0), mirroring Table 5's
  // per-cost averaging over only the requests that paid each cost.
  EXPECT_EQ(phases->find("cgi_exec")->number_or("count", -1.0), 0.0);
}

TEST(PhaseLifecycle, StatusScrapesDoNotPolluteTheTelemetry) {
  MiniCluster cluster(1, small_docbase(1));
  cluster.start();
  ASSERT_TRUE(fetch(cluster.next_base_url() + "/docs/file0.html")
                  .has_value());
  const double before =
      fetch_status(cluster, 0).find("phases")->find("total")->number_or(
          "count", -1.0);
  // A dashboard polling /sweb/* must not show up in the latency digests
  // it is reading.
  for (int i = 0; i < 5; ++i) (void)fetch_status(cluster, 0);
  const double after =
      fetch_status(cluster, 0).find("phases")->find("total")->number_or(
          "count", -1.0);
  EXPECT_EQ(before, after);
  EXPECT_EQ(before, 1.0);
}

TEST(PhaseLifecycle, SlowRecordPhaseVectorReconcilesWithTotal) {
  MiniClusterOptions options;
  options.slow_budget = 5ms;
  MiniCluster cluster(1, small_docbase(1), options);
  cluster.docs_mutable().register_cgi(
      "/cgi/slow.cgi", /*owner=*/0,
      [](const http::Request&, std::string_view) {
        std::this_thread::sleep_for(30ms);
        return http::make_ok("done", "text/plain");
      });
  cluster.start();
  ASSERT_TRUE(fetch(cluster.next_base_url() + "/cgi/slow.cgi").has_value());
  // A fast static request stays under budget and leaves no record.
  ASSERT_TRUE(fetch(cluster.next_base_url() + "/docs/file0.html")
                  .has_value());

  const std::vector<obs::SlowRequestRecord> records =
      cluster.slow_log().records();
  ASSERT_EQ(records.size(), 1u);
  const obs::SlowRequestRecord& slow = records.front();
  EXPECT_EQ(slow.method, "GET");
  EXPECT_EQ(slow.path, "/cgi/slow.cgi");
  EXPECT_EQ(slow.status, 200);
  EXPECT_EQ(slow.node, 0);
  EXPECT_FALSE(slow.chaos_faulted);
  EXPECT_NEAR(slow.budget_s, 0.005, 1e-12);
  EXPECT_GE(slow.total_s, 0.030);
  // cgi_exec was entered (it IS the outlier); doc_read was not.
  const auto cgi = static_cast<std::size_t>(obs::Phase::kCgiExec);
  const auto doc = static_cast<std::size_t>(obs::Phase::kDocRead);
  EXPECT_GE(slow.phase_s[cgi], 0.030);
  EXPECT_LT(slow.phase_s[doc], 0.0);
  // The acceptance bar: the decomposition explains the total within ±5%.
  EXPECT_NEAR(slow.phase_sum(), slow.total_s, 0.05 * slow.total_s)
      << slow_record_json(slow);
}

TEST(PhaseLifecycle, ChaosFaultedRecordSharesRidWithTraceSpans) {
  MiniClusterOptions options;
  options.chaos_node = 0;
  options.chaos.read_delay = 2ms;  // mild, but marks the connection faulted
  MiniCluster cluster(1, small_docbase(1), options);
  cluster.tracer().set_enabled(true);
  cluster.start();
  ASSERT_TRUE(fetch(cluster.next_base_url() + "/docs/file0.html")
                  .has_value());
  // Telemetry lands after the last byte is sent.
  ASSERT_TRUE(eventually(
      [&cluster] { return cluster.slow_log().total_recorded() >= 1; }));

  const std::vector<obs::SlowRequestRecord> records =
      cluster.slow_log().records();
  ASSERT_GE(records.size(), 1u);
  const obs::SlowRequestRecord& faulted = records.front();
  EXPECT_TRUE(faulted.chaos_faulted);
  EXPECT_NE(faulted.rid, 0u);
  // The forensics record and the Chrome trace describe the same request:
  // the record's rid is the tid of its spans, and those spans are exactly
  // the record's entered phases (bar total), each lasting what the record
  // says it lasted.
  std::ostringstream trace;
  cluster.tracer().write_chrome_json(trace);
  const auto doc = obs::json_parse(trace.str());
  ASSERT_TRUE(doc.has_value());
  const obs::JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  std::map<std::string, double> span_dur_s;
  for (const obs::JsonValue& event : events->array) {
    const obs::JsonValue* ph = event.find("ph");
    if (ph == nullptr || ph->string != "X" ||
        event.number_or("tid", -1.0) != static_cast<double>(faulted.rid)) {
      continue;
    }
    const obs::JsonValue* name = event.find("name");
    ASSERT_NE(name, nullptr);
    span_dur_s[name->string] = event.number_or("dur", -1.0) * 1e-6;
  }
  std::map<std::string, double> entered_s;
  for (const obs::Phase phase : obs::all_phases()) {
    const double seconds = faulted.phase_s[static_cast<std::size_t>(phase)];
    if (phase != obs::Phase::kTotal && seconds >= 0.0) {
      entered_s[obs::phase_name(phase)] = seconds;
    }
  }
  ASSERT_FALSE(entered_s.empty());
  ASSERT_EQ(span_dur_s.size(), entered_s.size())
      << "rid " << faulted.rid << ": " << trace.str();
  for (const auto& [name, seconds] : entered_s) {
    ASSERT_EQ(span_dur_s.count(name), 1u) << name;
    EXPECT_NEAR(span_dur_s[name], seconds, 1e-6) << name;
  }
}

TEST(PhaseLifecycle, SlowLogJsonlSinkRoundTrips) {
  const std::string path =
      testing::TempDir() + "sweb_slow_lifecycle_test.jsonl";
  std::remove(path.c_str());
  {
    MiniClusterOptions options;
    options.slow_budget = 1ms;
    options.slow_log_path = path;
    MiniCluster cluster(1, small_docbase(1), options);
    cluster.docs_mutable().register_cgi(
        "/cgi/slow.cgi", /*owner=*/0,
        [](const http::Request&, std::string_view) {
          std::this_thread::sleep_for(10ms);
          return http::make_ok("done", "text/plain");
        });
    cluster.start();
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(
          fetch(cluster.next_base_url() + "/cgi/slow.cgi").has_value());
    }
    EXPECT_TRUE(eventually(
        [&cluster] { return cluster.slow_log().total_recorded() == 3; }));
  }
  // Every line is one valid JSON object carrying the forensics fields.
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    const auto record = obs::json_parse(line);
    ASSERT_TRUE(record.has_value() && record->is_object()) << line;
    EXPECT_GT(record->number_or("rid", 0.0), 0.0) << line;
    EXPECT_GT(record->number_or("total_s", 0.0), 0.0) << line;
    EXPECT_EQ(record->number_or("status", 0.0), 200.0) << line;
    const obs::JsonValue* phases = record->find("phases");
    ASSERT_NE(phases, nullptr) << line;
    // Only entered phases appear; cgi_exec must, doc_read must not.
    EXPECT_NE(phases->find("cgi_exec"), nullptr) << line;
    EXPECT_EQ(phases->find("doc_read"), nullptr) << line;
  }
  EXPECT_EQ(lines, 3);
  std::remove(path.c_str());
}

TEST(PhaseLifecycle, AuditJoinsObservedPhaseDurations) {
  // Satellite check: the DecisionAudit's t_data / t_cpu observations come
  // from the doc_read / cgi_exec phases now, so the predict-error
  // histograms fill in for BOTH terms (t_cpu used to stay unmeasured).
  MiniCluster cluster(2, small_docbase(2));
  cluster.docs_mutable().register_cgi(
      "/cgi/fast.cgi", /*owner=*/0,
      [](const http::Request&, std::string_view) {
        return http::make_ok("ok", "text/plain");
      });
  cluster.start();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(fetch(cluster.next_base_url() + "/docs/file" +
                      std::to_string(i) + ".html")
                    .has_value());
  }
  ASSERT_TRUE(fetch(cluster.next_base_url() + "/cgi/fast.cgi").has_value());
  const auto snap = cluster.registry().snapshot();
  const auto t_data = snap.histograms.find("broker.predict_error.t_data");
  const auto t_cpu = snap.histograms.find("broker.predict_error.t_cpu");
  ASSERT_NE(t_data, snap.histograms.end());
  ASSERT_NE(t_cpu, snap.histograms.end());
  EXPECT_EQ(t_data->second.count, 5u);
  EXPECT_EQ(t_cpu->second.count, 5u);
}

}  // namespace
}  // namespace sweb::runtime
