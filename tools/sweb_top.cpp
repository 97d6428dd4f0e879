// swebtop: cluster-wide live view of a running SWEB deployment.
//
// Polls every node's /sweb/status endpoint, parses the JSON with the obs
// parser, and renders one table row per node — requests/sec (from the
// handled-count delta between polls), in-flight connections, redirect and
// cache-hit rates, and the scheduler's prediction-error p50/p95 — plus a
// cluster-wide TOTAL row. Each poll can also be appended as one JSONL line
// (--jsonl) for offline analysis.
//
// --demo N spins an in-process MiniCluster of N nodes, fires a burst of
// traffic at it, and scrapes that — the CI smoke path and a one-command way
// to see the display without a deployment.
#include <array>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fs/docbase.h"
#include "obs/json.h"
#include "obs/phase.h"
#include "obs/registry.h"
#include "runtime/client.h"
#include "runtime/mini_cluster.h"
#include "util/cli.h"
#include "util/strings.h"

namespace {

using namespace sweb;

/// One node's parsed /sweb/status scrape.
struct NodeSample {
  bool ok = false;
  std::string url;
  int node = -1;
  double uptime_s = 0.0;
  std::uint64_t requests_handled = 0;
  std::int64_t inflight = 0;
  std::int64_t connections = 0;      // admitted right now
  std::int64_t max_connections = 0;  // the admission cap
  std::uint64_t shed = 0;
  /// Sum of errors_by_reason (400 + 404 + 408 + 503): every client-visible
  /// error this node answered, whatever the cause.
  std::uint64_t errors = 0;
  std::uint64_t served = 0;
  std::uint64_t redirected = 0;
  bool available = true;  // this node's own availability, per its board
  /// Every board entry's availability as this node sees it (node, avail) —
  /// how peers vouch for (or condemn) a node we cannot reach ourselves.
  std::vector<std::pair<int, bool>> board_available;
  /// Runtime page-cache hit rate from the node's own "cache" status object
  /// (hits / (hits + misses)); older nodes without one fall back to the
  /// cluster-global docs.* counters. < 0: unknown.
  double cache_hit_rate = -1.0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_bytes = 0;   // resident bytes (the "cache.bytes" gauge)
  double predict_p50_s = -1.0;     // < 0: no prediction-error samples
  double predict_p95_s = -1.0;
  std::uint64_t predict_count = 0;
  /// Per-phase latency digest from the status "phases" object (one entry
  /// per obs::Phase, indexed by its enum value). count 0 <=> no samples.
  struct PhaseStat {
    std::uint64_t count = 0;
    double p50_s = -1.0;
    double p95_s = -1.0;
    double p99_s = -1.0;
  };
  std::array<PhaseStat, obs::kPhaseCount> phases{};
  std::uint64_t slow_records = 0;  // slow-log forensics records taken
  /// The overload controller's state from the status "overload" object:
  /// "off" (controller disabled), "ok" (healthy), "brownout", "shed";
  /// "-" for nodes predating the overload status object.
  std::string overload = "-";
};

[[nodiscard]] std::optional<obs::RegistrySnapshot::HistogramValue>
parse_histogram(const obs::JsonValue& metrics, const char* name) {
  const obs::JsonValue* histograms = metrics.find("histograms");
  if (histograms == nullptr) return std::nullopt;
  const obs::JsonValue* hist = histograms->find(name);
  if (hist == nullptr || !hist->is_object()) return std::nullopt;
  obs::RegistrySnapshot::HistogramValue value;
  value.count =
      static_cast<std::uint64_t>(hist->number_or("count", 0.0));
  value.sum = hist->number_or("sum", 0.0);
  const obs::JsonValue* bounds = hist->find("upper_bounds");
  const obs::JsonValue* counts = hist->find("bucket_counts");
  if (bounds == nullptr || counts == nullptr || !bounds->is_array() ||
      !counts->is_array()) {
    return std::nullopt;
  }
  for (const obs::JsonValue& b : bounds->array) value.upper_bounds.push_back(b.number);
  for (const obs::JsonValue& c : counts->array) {
    value.bucket_counts.push_back(static_cast<std::uint64_t>(c.number));
  }
  return value;
}

[[nodiscard]] NodeSample scrape(const std::string& base_url) {
  NodeSample sample;
  sample.url = base_url;
  const auto result = runtime::fetch(base_url + "/sweb/status");
  if (!result || http::code(result->response.status) != 200) return sample;
  const auto doc = obs::json_parse(result->response.body);
  if (!doc || !doc->is_object()) return sample;

  sample.node = static_cast<int>(doc->number_or("node", -1.0));
  sample.uptime_s = doc->number_or("uptime_seconds", 0.0);
  sample.requests_handled =
      static_cast<std::uint64_t>(doc->number_or("requests_handled", 0.0));
  sample.inflight = static_cast<std::int64_t>(doc->number_or("inflight", 0.0));
  sample.connections =
      static_cast<std::int64_t>(doc->number_or("connections", 0.0));
  sample.max_connections =
      static_cast<std::int64_t>(doc->number_or("max_connections", 0.0));
  sample.shed = static_cast<std::uint64_t>(doc->number_or("shed", 0.0));
  if (const obs::JsonValue* errors = doc->find("errors_by_reason");
      errors != nullptr && errors->is_object()) {
    for (const auto& [reason, value] : errors->members) {
      (void)reason;
      sample.errors += static_cast<std::uint64_t>(value.number);
    }
  }

  if (const obs::JsonValue* board = doc->find("board");
      board != nullptr && board->is_array()) {
    for (const obs::JsonValue& entry : board->array) {
      const obs::JsonValue* avail = entry.find("available");
      const bool entry_available =
          avail != nullptr && avail->type == obs::JsonValue::Type::kBool &&
          avail->boolean;
      sample.board_available.emplace_back(
          static_cast<int>(entry.number_or("node", -1.0)), entry_available);
      const obs::JsonValue* self = entry.find("self");
      if (self == nullptr || self->type != obs::JsonValue::Type::kBool ||
          !self->boolean) {
        continue;
      }
      sample.available = entry_available;
      sample.served =
          static_cast<std::uint64_t>(entry.number_or("served", 0.0));
      sample.redirected =
          static_cast<std::uint64_t>(entry.number_or("redirected", 0.0));
    }
  }

  if (const obs::JsonValue* phases = doc->find("phases");
      phases != nullptr && phases->is_object()) {
    for (const obs::Phase phase : obs::all_phases()) {
      const obs::JsonValue* entry = phases->find(obs::phase_name(phase));
      if (entry == nullptr || !entry->is_object()) continue;
      NodeSample::PhaseStat& stat =
          sample.phases[static_cast<std::size_t>(phase)];
      stat.count = static_cast<std::uint64_t>(entry->number_or("count", 0.0));
      if (stat.count > 0) {
        stat.p50_s = entry->number_or("p50_s", -1.0);
        stat.p95_s = entry->number_or("p95_s", -1.0);
        stat.p99_s = entry->number_or("p99_s", -1.0);
      }
    }
  }
  if (const obs::JsonValue* slow = doc->find("slow");
      slow != nullptr && slow->is_object()) {
    sample.slow_records =
        static_cast<std::uint64_t>(slow->number_or("records", 0.0));
  }
  if (const obs::JsonValue* overload = doc->find("overload");
      overload != nullptr && overload->is_object()) {
    const obs::JsonValue* enabled = overload->find("enabled");
    const bool is_on = enabled != nullptr &&
                       enabled->type == obs::JsonValue::Type::kBool &&
                       enabled->boolean;
    const obs::JsonValue* state = overload->find("state");
    const std::string name =
        state != nullptr && state->type == obs::JsonValue::Type::kString
            ? state->string
            : "";
    // Forced states render even with the controller disabled; otherwise a
    // disabled controller shows "off" so a healthy cell is trustworthy.
    if (name == "brownout") {
      sample.overload = "brownout";
    } else if (name == "shedding") {
      sample.overload = "shed";
    } else {
      sample.overload = is_on ? "ok" : "off";
    }
  }
  // The node's own runtime page cache (per-node residency + hit history,
  // the CACHE column's source of truth since the zero-copy serve path).
  bool have_node_cache = false;
  if (const obs::JsonValue* cache = doc->find("cache");
      cache != nullptr && cache->is_object()) {
    const obs::JsonValue* enabled = cache->find("enabled");
    if (enabled != nullptr && enabled->type == obs::JsonValue::Type::kBool &&
        enabled->boolean) {
      have_node_cache = true;
      sample.cache_hits =
          static_cast<std::uint64_t>(cache->number_or("hits", 0.0));
      sample.cache_misses =
          static_cast<std::uint64_t>(cache->number_or("misses", 0.0));
      sample.cache_bytes =
          static_cast<std::uint64_t>(cache->number_or("used_bytes", 0.0));
      const double probes =
          static_cast<double>(sample.cache_hits + sample.cache_misses);
      if (probes > 0.0) {
        sample.cache_hit_rate =
            static_cast<double>(sample.cache_hits) / probes;
      }
    }
  }

  if (const obs::JsonValue* metrics = doc->find("metrics");
      metrics != nullptr && metrics->is_object()) {
    if (const obs::JsonValue* counters = metrics->find("counters");
        counters != nullptr && !have_node_cache) {
      // Fallback for nodes predating the per-node cache object: the
      // cluster-global DocStore lookup counters.
      const double lookups = counters->number_or("docs.lookups", 0.0);
      const double misses = counters->number_or("docs.misses", 0.0);
      if (lookups > 0.0) sample.cache_hit_rate = 1.0 - misses / lookups;
    }
    if (const auto hist =
            parse_histogram(*metrics, "broker.predict_error.total")) {
      sample.predict_count = hist->count;
      if (hist->count > 0) {
        sample.predict_p50_s = obs::histogram_quantile(*hist, 0.50);
        sample.predict_p95_s = obs::histogram_quantile(*hist, 0.95);
      }
    }
  }
  sample.ok = true;
  return sample;
}

[[nodiscard]] std::string fmt_ms(double seconds) {
  if (seconds < 0.0) return "-";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2fms", seconds * 1e3);
  return buf;
}

[[nodiscard]] std::string fmt_pct(double rate) {
  if (rate < 0.0) return "-";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.0f%%", rate * 100.0);
  return buf;
}

/// The AVAIL cell for row `i`: a reachable node speaks for itself; an
/// unreachable one is judged by its peers' board entries ("down" once any
/// reachable peer's failure detector has marked it, "?" before that).
[[nodiscard]] const char* avail_cell(const std::vector<NodeSample>& samples,
                                     std::size_t i) {
  const NodeSample& s = samples[i];
  if (s.ok) return s.available ? "up" : "down";
  for (const NodeSample& peer : samples) {
    if (!peer.ok) continue;
    for (const auto& [node, available] : peer.board_available) {
      if (node == static_cast<int>(i) && !available) return "down";
    }
  }
  return "?";
}

void render(const std::vector<NodeSample>& samples,
            const std::vector<std::uint64_t>& previous_handled,
            double interval_s, int poll, int total_polls) {
  std::printf("\nswebtop — %zu node(s), poll %d/%d\n", samples.size(), poll,
              total_polls);
  std::printf(
      "%-5s %5s %8s %8s %9s %9s %5s %5s %8s %7s %7s %9s %9s %9s %5s "
      "%10s %10s\n",
      "NODE", "AVAIL", "OVLD", "RPS", "INFLIGHT", "CONNS", "SHED", "ERR",
      "SERVED", "REDIR%", "CACHE%", "LAT-P50", "LAT-P95", "LAT-P99", "SLOW",
      "PERR-P50", "PERR-P95");
  // connections/max_connections, as one cell.
  const auto conns_cell = [](std::int64_t conns, std::int64_t cap) {
    char cell[32];
    std::snprintf(cell, sizeof cell, "%lld/%lld", static_cast<long long>(conns),
                  static_cast<long long>(cap));
    return std::string(cell);
  };
  double total_rps = 0.0;
  std::int64_t total_inflight = 0;
  std::int64_t total_conns = 0, total_cap = 0;
  std::uint64_t total_shed = 0, total_errors = 0;
  std::uint64_t total_served = 0, total_redirected = 0;
  std::uint64_t total_slow = 0;
  std::size_t total_up = 0;
  double worst_p50 = -1.0, worst_p95 = -1.0;
  double worst_lat50 = -1.0, worst_lat95 = -1.0, worst_lat99 = -1.0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const NodeSample& s = samples[i];
    if (s.ok && s.available) ++total_up;
    if (!s.ok) {
      std::printf(
          "%-5zu %5s %8s %8s %9s %9s %5s %5s %8s %7s %7s %9s %9s %9s "
          "%5s %10s %10s   (unreachable: %s)\n",
          i, avail_cell(samples, i), "-", "-", "-", "-", "-", "-", "-", "-",
          "-", "-", "-", "-", "-", "-", "-", s.url.c_str());
      continue;
    }
    const double rps =
        interval_s > 0.0 && i < previous_handled.size() &&
                s.requests_handled >= previous_handled[i]
            ? static_cast<double>(s.requests_handled - previous_handled[i]) /
                  interval_s
            : 0.0;
    const std::uint64_t seen = s.served + s.redirected;
    const double redirect_rate =
        seen > 0 ? static_cast<double>(s.redirected) /
                       static_cast<double>(seen)
                 : 0.0;
    const NodeSample::PhaseStat& lat =
        s.phases[static_cast<std::size_t>(obs::Phase::kTotal)];
    std::printf(
        "%-5d %5s %8s %8.1f %9lld %9s %5llu %5llu %8llu %7s %7s %9s "
        "%9s %9s %5llu %10s %10s\n",
        s.node, avail_cell(samples, i), s.overload.c_str(), rps,
        static_cast<long long>(s.inflight),
        conns_cell(s.connections, s.max_connections).c_str(),
                static_cast<unsigned long long>(s.shed),
                static_cast<unsigned long long>(s.errors),
                static_cast<unsigned long long>(s.served),
                fmt_pct(redirect_rate).c_str(),
                fmt_pct(s.cache_hit_rate).c_str(),
                fmt_ms(lat.p50_s).c_str(), fmt_ms(lat.p95_s).c_str(),
                fmt_ms(lat.p99_s).c_str(),
                static_cast<unsigned long long>(s.slow_records),
                fmt_ms(s.predict_p50_s).c_str(),
                fmt_ms(s.predict_p95_s).c_str());
    total_rps += rps;
    total_inflight += s.inflight;
    total_conns += s.connections;
    total_cap += s.max_connections;
    total_shed += s.shed;
    total_errors += s.errors;
    total_served += s.served;
    total_redirected += s.redirected;
    total_slow = std::max(total_slow, s.slow_records);  // shared slow log
    worst_p50 = std::max(worst_p50, s.predict_p50_s);
    worst_p95 = std::max(worst_p95, s.predict_p95_s);
    worst_lat50 = std::max(worst_lat50, lat.p50_s);
    worst_lat95 = std::max(worst_lat95, lat.p95_s);
    worst_lat99 = std::max(worst_lat99, lat.p99_s);
  }
  const std::uint64_t total_seen = total_served + total_redirected;
  const double total_redirect_rate =
      total_seen > 0 ? static_cast<double>(total_redirected) /
                           static_cast<double>(total_seen)
                     : 0.0;
  // The cluster OVLD cell is the worst state any node reports: one node
  // shedding is a cluster-level event even when the others are fine.
  const char* total_overload = "-";
  for (const NodeSample& s : samples) {
    const auto rank = [](const std::string& cell) {
      if (cell == "shed") return 4;
      if (cell == "brownout") return 3;
      if (cell == "ok") return 2;
      if (cell == "off") return 1;
      return 0;
    };
    if (rank(s.overload) > rank(total_overload)) {
      total_overload = s.overload.c_str();
    }
  }
  char up_cell[32];
  std::snprintf(up_cell, sizeof up_cell, "%zu/%zu", total_up, samples.size());
  std::printf(
      "%-5s %5s %8s %8.1f %9lld %9s %5llu %5llu %8llu %7s %7s %9s "
      "%9s %9s %5llu %10s %10s\n",
      "TOTAL", up_cell, total_overload, total_rps,
      static_cast<long long>(total_inflight),
      conns_cell(total_conns, total_cap).c_str(),
      static_cast<unsigned long long>(total_shed),
      static_cast<unsigned long long>(total_errors),
      static_cast<unsigned long long>(total_served),
      fmt_pct(total_redirect_rate).c_str(), "",
      fmt_ms(worst_lat50).c_str(), fmt_ms(worst_lat95).c_str(),
      fmt_ms(worst_lat99).c_str(),
      static_cast<unsigned long long>(total_slow),
      fmt_ms(worst_p50).c_str(), fmt_ms(worst_p95).c_str());
}

/// --phases: the per-phase latency breakdown, one row per node, one column
/// per lifecycle phase (p95 ms; "-" marks a phase with no samples yet).
void render_phases(const std::vector<NodeSample>& samples) {
  std::printf("\nper-phase p95 latency (ms):\n");
  std::printf("%-5s", "NODE");
  for (const obs::Phase phase : obs::all_phases()) {
    std::printf(" %12s", obs::phase_name(phase));
  }
  std::printf("\n");
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const NodeSample& s = samples[i];
    if (!s.ok) {
      std::printf("%-5zu", i);
      for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
        std::printf(" %12s", "-");
      }
      std::printf("\n");
      continue;
    }
    std::printf("%-5d", s.node);
    for (const obs::Phase phase : obs::all_phases()) {
      const NodeSample::PhaseStat& stat =
          s.phases[static_cast<std::size_t>(phase)];
      std::printf(" %12s",
                  stat.count > 0 ? fmt_ms(stat.p95_s).c_str() : "-");
    }
    std::printf("\n");
  }
}

void append_jsonl(const std::string& path, double t_s,
                  const std::vector<NodeSample>& samples) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("t_s").value(t_s);
  w.key("nodes").begin_array();
  for (const NodeSample& s : samples) {
    w.begin_object();
    w.key("url").value(s.url);
    w.key("ok").value(s.ok);
    w.key("available").value(s.ok && s.available);
    w.key("node").value(s.node);
    w.key("requests_handled").value(s.requests_handled);
    w.key("inflight").value(s.inflight);
    w.key("connections").value(s.connections);
    w.key("max_connections").value(s.max_connections);
    w.key("shed").value(s.shed);
    w.key("errors").value(s.errors);
    w.key("served").value(s.served);
    w.key("redirected").value(s.redirected);
    w.key("cache_hit_rate").value(s.cache_hit_rate);
    w.key("cache_hits").value(s.cache_hits);
    w.key("cache_misses").value(s.cache_misses);
    w.key("cache_bytes").value(s.cache_bytes);
    w.key("predict_error_p50_s").value(s.predict_p50_s);
    w.key("predict_error_p95_s").value(s.predict_p95_s);
    w.key("predict_error_count").value(s.predict_count);
    w.key("slow_records").value(s.slow_records);
    w.key("phases").begin_object();
    for (const obs::Phase phase : obs::all_phases()) {
      const NodeSample::PhaseStat& stat =
          s.phases[static_cast<std::size_t>(phase)];
      w.key(obs::phase_name(phase)).begin_object();
      w.key("count").value(stat.count);
      w.key("p50_s").value(stat.p50_s);
      w.key("p95_s").value(stat.p95_s);
      w.key("p99_s").value(stat.p99_s);
      w.end_object();
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::ofstream out(path, std::ios::app);
  if (!out) {
    std::fprintf(stderr, "cannot append to %s\n", path.c_str());
    return;
  }
  out << w.str() << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli;
  cli.option("nodes", "",
             "comma-separated node base URLs, e.g. "
             "http://127.0.0.1:8080,http://127.0.0.1:8081")
      .option("interval", "1.0", "seconds between polls")
      .option("count", "5", "number of polls before exiting")
      .option("jsonl", "", "append each poll as a JSON line to this file")
      .option("demo", "0",
              "spin an in-process MiniCluster of N nodes, generate traffic, "
              "and scrape it")
      .flag("demo-crash",
            "with --demo: crash the last node after the traffic burst and "
            "wait for the failure detector, so the AVAIL column shows a "
            "downed node")
      .flag("phases",
            "also render the per-phase latency table (queue_wait .. total, "
            "p95 per phase per node) under each poll")
      .flag("once", "poll once and exit (same as --count 1)");
  if (!cli.parse(argc, argv)) {
    std::printf("%s", cli.help_text("sweb-top").c_str());
    return 0;
  }

  const double interval_s = cli.get_double("interval");
  int count = static_cast<int>(cli.get_int("count"));
  if (cli.get_flag("once")) count = 1;
  const std::string jsonl = cli.get("jsonl");
  const int demo_nodes = static_cast<int>(cli.get_int("demo"));
  const bool demo_crash = cli.get_flag("demo-crash");

  // --demo: a live MiniCluster to scrape, with enough traffic through it
  // that redirects happen and the decision audit has joins to report.
  std::unique_ptr<runtime::MiniCluster> demo;
  std::vector<std::string> urls;
  if (demo_nodes > 0) {
    const fs::Docbase docbase = fs::make_uniform(
        24, 16 * 1024, demo_nodes, fs::Placement::kRoundRobin, nullptr,
        "/docs");
    // Sub-second liveness so --demo-crash can show a detected failure
    // without lingering for the paper-scale staleness window.
    runtime::MiniClusterOptions demo_options;
    demo_options.heartbeat_period = std::chrono::milliseconds(100);
    demo_options.staleness_timeout = std::chrono::milliseconds(300);
    demo = std::make_unique<runtime::MiniCluster>(demo_nodes, docbase,
                                                  demo_options);
    demo->start();
    // Each round hammers ONE node with every document: two-thirds of the
    // lookups hit a non-owner, so owner-locality redirects (and therefore
    // cross-node audit joins) actually happen.
    for (int round = 0; round < 3; ++round) {
      const std::string base =
          "http://127.0.0.1:" +
          std::to_string(demo->port(round % demo_nodes));
      for (std::size_t d = 0; d < docbase.size(); ++d) {
        (void)runtime::fetch(base + docbase.documents()[d].path);
      }
    }
    if (demo_crash && demo_nodes > 1) {
      // Kill the last node abruptly and give the survivors' failure
      // detector one staleness window (plus slack) to mark it down.
      demo->crash(demo_nodes - 1);
      std::this_thread::sleep_for(std::chrono::milliseconds(800));
    }
    for (int n = 0; n < demo->num_nodes(); ++n) {
      urls.push_back("http://127.0.0.1:" + std::to_string(demo->port(n)));
    }
  } else {
    for (const auto& part : util::split(cli.get("nodes"), ',')) {
      if (!part.empty()) urls.emplace_back(part);
    }
  }
  if (urls.empty()) {
    std::fprintf(stderr,
                 "no nodes to poll: pass --nodes url[,url...] or --demo N\n");
    return 2;
  }

  std::vector<std::uint64_t> previous_handled(urls.size(), 0);
  const auto start = std::chrono::steady_clock::now();
  bool any_ok = false;
  for (int poll = 1; poll <= count; ++poll) {
    std::vector<NodeSample> samples;
    samples.reserve(urls.size());
    for (const std::string& url : urls) samples.push_back(scrape(url));
    // First poll has no delta baseline; report rps over the node's uptime.
    const double effective_interval = poll == 1 ? 0.0 : interval_s;
    render(samples, previous_handled, effective_interval, poll, count);
    if (cli.get_flag("phases")) render_phases(samples);
    const double t_s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
    if (!jsonl.empty()) append_jsonl(jsonl, t_s, samples);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      if (samples[i].ok) {
        previous_handled[i] = samples[i].requests_handled;
        any_ok = true;
      }
    }
    if (poll < count) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(interval_s));
    }
  }
  return any_ok ? 0 : 1;
}
