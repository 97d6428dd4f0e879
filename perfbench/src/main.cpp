// sweb_perfbench: the fixed runtime benchmark.
//
//   sweb_perfbench --workload static_hot|cluster_mixed|cgi_open
//                  --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics; --trace 1 measures the
// per-layer metrics (registry phase histograms and counters, client spans,
// and replays of each layer's public calls). Every response is checked; the
// teardown accounting is checked; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. A run record with the box
// fingerprint lands in .bench_runs/. Exit status: 0 correct, 1 a check
// failed (the result line is still printed), 2 refused before measuring.
#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "config.h"
#include "layers.h"
#include "obs/json.h"
#include "obs/phase.h"
#include "obs/registry.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {
namespace {

using sweb::obs::RegistrySnapshot;
using HistogramValue = RegistrySnapshot::HistogramValue;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;  // 0: not a sampled statistic
};

/// Server-side state read from outside through public accessors and the
/// registry; two readings bracket a window.
struct ServerView {
  std::array<HistogramValue, sweb::obs::kPhaseCount> phases{};
  std::uint64_t requests = 0;
  std::uint64_t redirects = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t audit_joined = 0;
  std::uint64_t mispredicts = 0;
  std::uint64_t sheds = 0;
};

[[nodiscard]] std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = value == "1";
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || !have_workload || args.seconds <= 0.0) {
    return std::nullopt;
  }
  return args;
}

[[nodiscard]] const WorkloadConfig* find_workload(const std::string& name) {
  for (const WorkloadConfig& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

[[nodiscard]] double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

[[nodiscard]] ServerView read_server(Rig& rig) {
  auto& cluster = rig.cluster();
  const RegistrySnapshot snap = cluster.registry().snapshot();
  const auto counter = [&snap](const std::string& name) -> std::uint64_t {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };
  ServerView view;
  for (const sweb::obs::Phase phase : sweb::obs::all_phases()) {
    HistogramValue& merged = view.phases[static_cast<std::size_t>(phase)];
    for (int n = 0; n < cluster.num_nodes(); ++n) {
      const auto it = snap.histograms.find("node." + std::to_string(n) +
                                           ".phase." +
                                           sweb::obs::phase_name(phase));
      if (it == snap.histograms.end()) continue;
      if (merged.upper_bounds.empty()) {
        merged = it->second;
      } else if (auto sum = sweb::obs::merge_histogram_values(merged,
                                                              it->second)) {
        merged = *sum;
      }
    }
  }
  for (int n = 0; n < cluster.num_nodes(); ++n) {
    const std::string node = "node." + std::to_string(n);
    view.requests += counter(node + ".requests");
    view.redirects += counter(node + ".redirects");
    view.cache_hits += cluster.caches().node(n).hits();
    view.cache_misses += cluster.caches().node(n).misses();
    auto& server = cluster.node(n);
    view.sheds += server.shed_count() + server.overload_shed_cgi() +
                  server.overload_shed_uncached() +
                  server.overload_shed_accept();
  }
  view.audit_joined = counter("broker.audit.joined");
  view.mispredicts = counter("oracle.mispredict");
  return view;
}

/// `after` minus `before`, bucket by bucket (extremes unknown).
[[nodiscard]] HistogramValue histogram_delta(const HistogramValue& after,
                                             const HistogramValue& before) {
  HistogramValue delta;
  delta.upper_bounds = after.upper_bounds;
  delta.bucket_counts = after.bucket_counts;
  for (std::size_t i = 0;
       i < delta.bucket_counts.size() && i < before.bucket_counts.size();
       ++i) {
    delta.bucket_counts[i] -= before.bucket_counts[i];
  }
  delta.count = after.count - before.count;
  delta.sum = after.sum - before.sum;
  return delta;
}

/// Polls (with a deadline, never a fixed sleep) until every node and the
/// board are back to zero connections and zero Δ-inflation.
[[nodiscard]] bool drained(Rig& rig) {
  auto& cluster = rig.cluster();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(kDrainDeadlineMs);
  for (;;) {
    bool zero = true;
    for (int n = 0; n < cluster.num_nodes(); ++n) {
      zero = zero && cluster.node(n).active_connections() == 0;
    }
    for (const auto& load : cluster.board().snapshot_all()) {
      zero = zero && load.active_connections == 0 &&
             load.redirect_inflation == 0;
    }
    if (zero) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

/// The end-to-end metrics of one window: per-slice values, median over the
/// slices. `problems` collects anything that makes the run invalid.
void end_to_end(const WindowStats& w, std::map<std::string, Metric>& out,
                std::vector<std::string>& problems) {
  std::vector<double> rps, p50, p99, cpu, goodput;
  std::uint64_t samples = 0;
  double supported = 1.0;
  for (const SliceStats& s : w.slices) {
    const std::uint64_t completed = s.attempted - s.failed;
    std::vector<std::uint32_t> lat = s.latency_ns;
    samples += lat.size();
    supported = std::min(supported, highest_supported_quantile(lat.size()));
    rps.push_back(static_cast<double>(completed) / w.slice_seconds);
    p50.push_back(quantile(lat, 0.50) / 1e3);
    p99.push_back(quantile(lat, 0.99) / 1e3);
    goodput.push_back(static_cast<double>(s.body_bytes) / w.slice_seconds /
                      (1024.0 * 1024.0));
    if (const auto c =
            server_cpu_us_per_req(s.process_cpu_s, s.client_cpu_s, completed)) {
      cpu.push_back(*c);
    } else {
      problems.push_back("cpu subtraction failed in a slice");
    }
  }
  if (supported < 0.99) {
    problems.push_back("too few samples per slice for p99");
  }
  out["rps"] = {median(rps), "1/s", samples};
  out["latency_p50_us"] = {median(p50), "us", samples};
  out["latency_p99_us"] = {median(p99), "us", samples};
  out["server_cpu_us_per_req"] = {median(cpu), "us", samples};
  out["goodput_mib_s"] = {median(goodput), "MiB/s", samples};
  const std::uint64_t attempted = w.attempted();
  out["fail_frac"] = {attempted == 0 ? 1.0
                                     : static_cast<double>(w.failed()) /
                                           static_cast<double>(attempted),
                      "ratio", attempted};
}

[[nodiscard]] double window_rps(const WindowStats& w) {
  return static_cast<double>(w.attempted() - w.failed()) /
         (w.slice_seconds * static_cast<double>(w.slices.size()));
}

void per_layer(const WorkloadConfig& config, const WindowStats& untraced,
               const WindowStats& traced, const ServerView& before,
               const ServerView& after, Rig& rig, Load& load,
               std::map<std::string, Metric>& out,
               std::vector<std::string>& problems) {
  const auto put = [&out](const std::string& name, double value,
                          const char* unit, std::uint64_t samples = 0) {
    out[name] = {value, unit, samples};
  };
  // Client spans.
  const std::uint64_t attempted = std::max<std::uint64_t>(traced.attempted(), 1);
  const std::uint64_t completed = traced.attempted() - traced.failed();
  std::vector<std::uint32_t> fetch = traced.fetch_ns;
  put("client.fetch_us.p50", quantile(fetch, 0.50) / 1e3, "us", fetch.size());
  put("client.fetch_us.p99", quantile(fetch, 0.99) / 1e3, "us", fetch.size());
  put("client.hops_per_req",
      static_cast<double>(traced.hops) / static_cast<double>(attempted),
      "count");
  put("client.conns_per_req",
      static_cast<double>(traced.conns) / static_cast<double>(attempted),
      "count");
  put("client.retries_per_req",
      static_cast<double>(traced.retries) / static_cast<double>(attempted),
      "count");
  double client_cpu_s = 0.0;
  for (const SliceStats& s : traced.slices) client_cpu_s += s.client_cpu_s;
  put("client.cpu_us_per_req",
      client_cpu_s * 1e6 /
          static_cast<double>(std::max<std::uint64_t>(completed, 1)),
      "us");

  // Server phases, from the registry over the traced window.
  for (const sweb::obs::Phase phase : sweb::obs::all_phases()) {
    const auto i = static_cast<std::size_t>(phase);
    const HistogramValue delta =
        histogram_delta(after.phases[i], before.phases[i]);
    const std::string prefix =
        std::string("phase.") + sweb::obs::phase_name(phase);
    put(prefix + ".count", static_cast<double>(delta.count), "count");
    put(prefix + ".p50_us",
        delta.count == 0 ? 0.0 : sweb::obs::histogram_quantile(delta, 0.50) * 1e6,
        "us", delta.count);
    put(prefix + ".p99_us",
        delta.count == 0 ? 0.0 : sweb::obs::histogram_quantile(delta, 0.99) * 1e6,
        "us", delta.count);
  }

  // Broker, board, cache, overload: counters over the traced window.
  const std::uint64_t redirects = after.redirects - before.redirects;
  const std::uint64_t requests = after.requests - before.requests;
  const std::uint64_t logical = requests > redirects ? requests - redirects : 1;
  put("broker.redirect_frac",
      static_cast<double>(redirects) / static_cast<double>(logical), "ratio");
  const std::uint64_t joined = after.audit_joined - before.audit_joined;
  put("audit.mispredict_frac",
      joined == 0 ? 0.0
                  : static_cast<double>(after.mispredicts - before.mispredicts) /
                        static_cast<double>(joined),
      "ratio");
  put("board.underflow",
      static_cast<double>(rig.cluster().board().underflows()), "count");
  const std::uint64_t hits = after.cache_hits - before.cache_hits;
  const std::uint64_t probes = hits + after.cache_misses - before.cache_misses;
  put("cache.hit_ratio",
      probes == 0 ? 0.0
                  : static_cast<double>(hits) / static_cast<double>(probes),
      "ratio");
  put("overload.shed_total", static_cast<double>(after.sheds - before.sheds),
      "count");
  std::vector<std::uint32_t> late = traced.late_ns;
  put("gen.late_p99_us",
      config.loop == Loop::kOpen ? quantile(late, 0.99) / 1e3 : 0.0, "us",
      late.size());

  // Replays of each layer's public calls.
  std::vector<std::uint32_t> latencies;
  for (const SliceStats& s : traced.slices) {
    latencies.insert(latencies.end(), s.latency_ns.begin(),
                     s.latency_ns.end());
  }
  std::map<std::string, double> replayed;
  measure_layers({rig, load.stream(0), window_rps(traced), latencies},
                 replayed);
  for (const auto& [name, value] : replayed) {
    put(name, value, name.ends_with("_us") ? "us" : "ns");
  }

  const double untraced_rps = window_rps(untraced);
  put("trace.overhead_frac",
      untraced_rps <= 0.0 ? 0.0 : 1.0 - window_rps(traced) / untraced_rps,
      "ratio");

  // Each workload must load the layers it was chosen for.
  const double redirect_frac = out["broker.redirect_frac"].value;
  const double hit_ratio = out["cache.hit_ratio"].value;
  const double cgi_count = out["phase.cgi_exec.count"].value;
  if (config.nodes == 1 && redirect_frac != 0.0) {
    problems.push_back("one-node workload redirected");
  }
  if (config.nodes > 1 && redirect_frac <= 0.3) {
    problems.push_back("multi-node workload redirect_frac <= 0.3");
  }
  if (config.docs * config.max_doc_bytes <= config.cache_bytes_per_node &&
      hit_ratio != 1.0) {
    problems.push_back("resident corpus missed the cache");
  }
  if (config.docs * config.max_doc_bytes > config.cache_bytes_per_node &&
      hit_ratio >= 0.9) {
    problems.push_back("oversized corpus hit the cache >= 0.9");
  }
  if ((config.cgi_frac > 0.0) != (cgi_count > 0.0)) {
    problems.push_back("cgi_exec phase count disagrees with the mix");
  }
  if (config.nodes > 1 && out["board.req_ns.tN"].value <
                              out["board.req_ns.t1"].value) {
    problems.push_back("contended board faster than uncontended");
  }
}

[[nodiscard]] std::string kernel_release() {
  utsname name{};
  return uname(&name) == 0 ? std::string(name.release) : "unknown";
}

void write_record(const Args& args, const WorkloadConfig& config,
                  const std::map<std::string, Metric>& metrics,
                  const std::vector<double>& setups,
                  const std::vector<std::string>& problems,
                  const std::vector<std::string>& errors, bool correct) {
  sweb::obs::JsonWriter w;
  w.begin_object();
  w.key("schema").value("sweb-perfbench/1");
  w.key("box").begin_object();
  w.key("nproc").value(static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  w.key("build_type").value(PERFBENCH_BUILD_TYPE);
  w.key("compiler").value(__VERSION__);
  w.key("kernel").value(kernel_release());
  const char* commit = std::getenv("PERFBENCH_GIT_COMMIT");
  w.key("git_commit").value(commit != nullptr ? commit : "unknown");
  w.end_object();
  w.key("workload").value(config.name);
  w.key("seed").value(args.seed);
  w.key("seconds").value(args.seconds);
  w.key("trace").value(args.trace);
  w.key("config").begin_object();
  w.key("nodes").value(config.nodes);
  w.key("clients").value(config.clients);
  w.key("loop").value(config.loop == Loop::kOpen ? "open" : "closed");
  w.key("docs").value(static_cast<std::uint64_t>(config.docs));
  w.key("min_doc_bytes").value(config.min_doc_bytes);
  w.key("max_doc_bytes").value(config.max_doc_bytes);
  w.key("zipf_s").value(config.zipf_s);
  w.key("cache_bytes_per_node").value(config.cache_bytes_per_node);
  w.key("head_frac").value(config.head_frac);
  w.key("cgi_frac").value(config.cgi_frac);
  w.key("offered_rps").value(config.offered_rps);
  w.key("overload_control").value(config.overload_control);
  w.key("cgi_workers").value(kCgiWorkers);
  w.key("cgi_burn_rounds").value(kCgiBurnRounds);
  w.key("corpus_seed").value(kCorpusSeed);
  w.key("slice_seconds").value(kSliceSeconds);
  w.key("setup_repeats").value(kSetupRepeats);
  w.key("warmup_requests").value(config.warmup_requests);
  w.end_object();
  w.key("setup_s").begin_array();
  for (const double s : setups) w.value(s);
  w.end_array();
  w.key("metrics").begin_object();
  for (const auto& [name, m] : metrics) {
    w.key(name).begin_object();
    w.key("value").value(m.value);
    w.key("unit").value(m.unit);
    if (m.samples > 0) w.key("samples").value(m.samples);
    w.end_object();
  }
  w.end_object();
  w.key("correct").value(correct);
  w.key("problems").begin_array();
  for (const auto& p : problems) w.value(p);
  w.end_array();
  w.key("errors").begin_array();
  for (const auto& e : errors) w.value(e);
  w.end_array();
  w.end_object();

  std::error_code ec;
  std::filesystem::create_directories(".bench_runs", ec);
  const std::string path = ".bench_runs/" + std::string(config.name) +
                           ".seed" + std::to_string(args.seed) + ".trace" +
                           (args.trace ? "1" : "0") + ".json";
  std::ofstream(path) << w.str() << "\n";
}

/// The metric names each mode reports in the result line.
constexpr std::array<const char*, 7> kEndToEnd{
    "rps",           "latency_p50_us", "latency_p99_us", "server_cpu_us_per_req",
    "goodput_mib_s", "rss_mib",        "setup_s"};

int run(const Args& args) {
  const WorkloadConfig* found = find_workload(args.workload);
  if (found == nullptr) {
    std::cerr << "unknown workload '" << args.workload << "'\n";
    return 2;
  }
  const WorkloadConfig& config = *found;
  if (std::string_view(PERFBENCH_BUILD_TYPE) != "Release") {
    std::cerr << "refusing a " << PERFBENCH_BUILD_TYPE
              << " build: configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 2;
  }
  std::string why;
  if (!run_self_checks(why)) {
    std::cerr << "self-check failed: " << why << "\n";
    return 2;
  }

  std::vector<std::string> cgi_bodies;
  if (config.cgi_frac > 0.0) {
    for (int k = 0; k < kCgiKeys; ++k) cgi_bodies.push_back(cgi_body(k));
  }

  const CpuPlan cpus =
      plan_cpus(config.loop == Loop::kOpen ? 1 : config.clients);

  // Set-up: corpus synthesis, cluster start, warm-up — several times; the
  // last rig is measured.
  std::vector<double> setups;
  std::unique_ptr<Rig> rig;
  for (int r = 0; r < kSetupRepeats; ++r) {
    rig.reset();
    const std::int64_t start = now_ns();
    rig = std::make_unique<Rig>(config, cgi_bodies, cpus);
    setups.push_back(seconds_since(start));
  }

  std::map<std::string, Metric> metrics;
  std::vector<std::string> problems;
  WindowStats measured;
  std::uint64_t client_503 = 0;
  std::vector<std::string> errors;
  {
    Load load(*rig, args.seed, cpus.load);
    if (args.trace) {
      // Untraced then traced halves: the per-layer numbers come from the
      // traced half, and the rps difference is the tracing overhead.
      const WindowStats untraced = load.run_window(args.seconds / 2, false);
      const ServerView before = read_server(*rig);
      measured = load.run_window(args.seconds / 2, true);
      const ServerView after = read_server(*rig);
      load.close();
      client_503 = untraced.status_503;
      errors = untraced.errors;
      if (untraced.failed() != 0) problems.push_back("untraced half failed");
      if (!drained(*rig)) problems.push_back("accounting did not drain");
      per_layer(config, untraced, measured, before, after, *rig, load,
                metrics, problems);
    } else {
      measured = load.run_window(args.seconds, false);
      load.close();
      if (!drained(*rig)) problems.push_back("accounting did not drain");
      end_to_end(measured, metrics, problems);
      rusage usage{};
      getrusage(RUSAGE_SELF, &usage);
      metrics["rss_mib"] = {static_cast<double>(usage.ru_maxrss) / 1024.0,
                            "MiB", 0};
      metrics["setup_s"] = {median(setups), "s", setups.size()};
    }
  }
  client_503 += measured.status_503;
  errors.insert(errors.end(), measured.errors.begin(), measured.errors.end());

  // Teardown accounting, read from outside.
  auto& cluster = rig->cluster();
  if (cluster.board().underflows() != 0) problems.push_back("board underflow");
  if (config.loop == Loop::kClosed) {
    std::uint64_t sheds = 0;
    for (int n = 0; n < cluster.num_nodes(); ++n) {
      auto& server = cluster.node(n);
      sheds += server.shed_count() + server.overload_shed_cgi() +
               server.overload_shed_uncached() + server.overload_shed_accept();
    }
    if (sheds != 0 || client_503 != 0) {
      problems.push_back("503 sheds on a closed-loop workload");
    }
  } else {
    std::vector<std::uint32_t> late = measured.late_ns;
    const double late_p99_us = quantile(late, 0.99) / 1e3;
    if (late_p99_us > kMaxGeneratorLateP99Us) {
      problems.push_back("generator ran late: p99 " +
                         std::to_string(late_p99_us) + " us");
    }
  }
  if (measured.failed() != 0) problems.push_back("requests failed");
  cluster.stop();

  const bool correct = problems.empty();
  const std::uint64_t attempted = measured.attempted();
  const std::uint64_t failed = measured.failed();

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              std::string(config.name).c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  for (const auto& [name, m] : metrics) {
    std::printf("  %-26s %14.6g %-6s", name.c_str(), m.value, m.unit.c_str());
    if (m.samples > 0) {
      std::printf(" (samples=%llu)", static_cast<unsigned long long>(m.samples));
    }
    std::printf("\n");
  }
  std::printf("  setup runs:");
  for (const double s : setups) std::printf(" %.4f", s);
  std::printf(" s\n");
  for (const auto& p : problems) std::printf("  PROBLEM: %s\n", p.c_str());
  for (const auto& e : errors) std::printf("  error: %s\n", e.c_str());
  write_record(args, config, metrics, setups, problems, errors, correct);

  sweb::obs::JsonWriter w;
  w.begin_object();
  w.key("correct").value(correct);
  w.key("attempted").value(attempted);
  w.key("failed").value(failed);
  w.key("metrics").begin_object();
  for (const auto& [name, m] : metrics) {
    const bool reported =
        args.trace || std::find(kEndToEnd.begin(), kEndToEnd.end(), name) !=
                          kEndToEnd.end();
    if (!reported) continue;
    w.key(name).begin_object();
    w.key("value").value(m.value);
    w.key("unit").value(m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto args = perfbench::parse_args(argc, argv);
  if (!args) {
    std::cerr << "usage: sweb_perfbench --workload "
                 "static_hot|cluster_mixed|cgi_open --seed N --seconds S "
                 "--trace 0|1\n";
    return 2;
  }
  try {
    return perfbench::run(*args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
