// A live SWEB cluster on real sockets.
//
// Starts HTTP server nodes on loopback ports (each a thread with its own
// listener, sharing the load board), then acts as a browser: resolves via
// the round-robin rotation, follows 302 re-assignments, and prints what
// happened on the wire. Run it, or point curl at the printed ports while it
// lingers.
//
// Observability:
//   live_server --status                 serve, print GET /sweb/status JSON
//   live_server --serve                  linger so curl can poke the nodes
//   live_server --metrics-out run.jsonl  append registry snapshots (JSONL)
//   live_server --trace-out run.json     Chrome trace_event of every request
#include <chrono>
#include <csignal>
#include <cstdio>
#include <memory>
#include <thread>

#include "fs/docbase.h"
#include "obs/snapshot.h"
#include "runtime/client.h"
#include "runtime/mini_cluster.h"
#include "util/cli.h"
#include "util/rng.h"

using namespace sweb;

namespace {

// SIGTERM/SIGINT ask for a graceful drain: the handler only flips a flag
// (the only thing async-signal-safe to do); the linger loop sees it and
// falls through to the normal shutdown path, where cluster.stop() drains
// the reactors instead of the process dying mid-connection.
volatile std::sig_atomic_t g_shutdown_requested = 0;

void request_shutdown(int /*signum*/) { g_shutdown_requested = 1; }

void install_signal_handlers() {
  struct sigaction action {};
  action.sa_handler = request_shutdown;
  sigemptyset(&action.sa_mask);
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli;
  cli.option("nodes", "4", "number of server nodes")
      .option("workers", "16",
              "CGI worker threads per node (the reactor's CPU-bound stage; "
              "socket I/O is event-driven and not bounded by this)")
      .option("max-connections", "48",
              "concurrent connections per node before 503 load shedding")
      .option("serve-seconds", "60", "how long --serve/--status linger")
      .option("heartbeat", "2000",
              "heartbeat period in ms (the loadd tick; paper uses 2-3 s)")
      .option("staleness", "6000",
              "staleness timeout in ms before a silent node is marked "
              "unavailable (~3x the heartbeat)")
      .option("header-timeout", "0",
              "per-request deadline in ms before a slow client gets 408 "
              "(slowloris defense); 0 uses the general io timeout")
      .option("cache-bytes", "8388608",
              "per-node page-cache byte budget; resident documents are "
              "served zero-copy (writev), 0 disables the cache")
      .option("cache-discount", "0",
              "connection units subtracted from a node's apparent load "
              "when it holds the requested document resident (cache-aware "
              "redirects; 0 keeps placement purely load-based)")
      // Overload control (see DESIGN "Overload control"): off unless
      // --overload is set, preserving the static-cap behavior.
      .option("overload-brownout-ms", "50",
              "queue-delay estimate (ms) at which brownout begins: CGI and "
              "non-resident documents get 503 while cache hits still serve")
      .option("overload-shed-ms", "250",
              "queue-delay estimate (ms) at which shedding begins: new "
              "connections are refused at accept with an adaptive "
              "Retry-After from the estimated drain time")
      .option("overload-util", "0.9",
              "connections/cap utilization that also triggers brownout "
              "(degrade before the hard cap sheds)")
      .option("overload-dwell-ms", "1000",
              "minimum ms in a state before the controller may step back "
              "down (the anti-flap hysteresis dwell)")
      .option("metrics-out", "",
              "append registry snapshots to this JSONL file (1 Hz)")
      .option("trace-out", "",
              "write a Chrome trace_event JSON of every request served")
      .option("slow-log", "",
              "append slow-request forensics records (JSONL) to this file")
      .option("slow-budget", "0",
              "slow budget in ms: a request whose total exceeds this leaves "
              "a forensics record (0: only chaos-faulted requests do)")
      // Degraded-link chaos: every connection the chosen node admits is
      // injected with these faults (see runtime/chaos.h).
      .option("chaos-node", "-1",
              "degrade this node's link with the --chaos-* faults below "
              "(-1: chaos off)")
      .option("chaos-read-delay", "0", "ms of latency before every read")
      .option("chaos-write-delay", "0", "ms of latency before every response")
      .option("chaos-jitter", "0", "uniform extra ms added to each delay")
      .option("chaos-stall", "0",
              "one-time stall in ms before a connection's first read")
      .option("chaos-throttle", "0", "byte-rate ceiling (bytes/sec; 0 off)")
      .option("chaos-torn", "0",
              "tear writes: max bytes per send() segment (0 off)")
      .option("chaos-reset-prob", "0",
              "probability [0,1] a connection is reset mid-stream")
      .option("chaos-reset-after", "0",
              "bytes written before a doomed connection's RST fires")
      .option("chaos-seed", "0",
              "chaos RNG seed (0: the built-in default, reproducible)")
      .flag("overload",
            "enable adaptive overload control (brownout degradation + "
            "shedding at accept) with the --overload-* thresholds")
      .flag("serve", "keep serving after the demo session")
      .flag("status", "fetch and print GET /sweb/status, then linger");
  try {
    if (!cli.parse(argc, argv)) {
      std::fputs(cli.help_text("live_server").c_str(), stdout);
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "live_server: %s\n", e.what());
    return 1;
  }
  const bool linger = cli.get_flag("serve") || cli.get_flag("status");
  const int nodes = static_cast<int>(cli.get_int("nodes"));

  util::Rng rng(3);
  fs::Docbase docs = fs::make_adl(12, nodes, rng);
  runtime::MiniClusterOptions options;
  options.max_workers = static_cast<int>(cli.get_int("workers"));
  options.max_connections = static_cast<int>(cli.get_int("max-connections"));
  options.heartbeat_period =
      std::chrono::milliseconds(cli.get_int("heartbeat"));
  options.staleness_timeout =
      std::chrono::milliseconds(cli.get_int("staleness"));
  options.header_timeout =
      std::chrono::milliseconds(cli.get_int("header-timeout"));
  options.cache_bytes_per_node =
      static_cast<std::uint64_t>(cli.get_int("cache-bytes"));
  options.broker.cache_hit_discount = cli.get_double("cache-discount");
  if (cli.get_flag("overload")) {
    options.overload.enabled = true;
    options.overload.brownout_enter_s =
        static_cast<double>(cli.get_int("overload-brownout-ms")) / 1000.0;
    // Exit thresholds sit at 40% of their enter thresholds (the defaults'
    // 20/50 and 100/250 ratio) — the hysteresis band scales with the knob.
    options.overload.brownout_exit_s = 0.4 * options.overload.brownout_enter_s;
    options.overload.shed_enter_s =
        static_cast<double>(cli.get_int("overload-shed-ms")) / 1000.0;
    options.overload.shed_exit_s = 0.4 * options.overload.shed_enter_s;
    options.overload.brownout_utilization = cli.get_double("overload-util");
    options.overload.min_dwell_s =
        static_cast<double>(cli.get_int("overload-dwell-ms")) / 1000.0;
  }
  options.chaos_node = static_cast<int>(cli.get_int("chaos-node"));
  options.chaos.read_delay =
      std::chrono::milliseconds(cli.get_int("chaos-read-delay"));
  options.chaos.write_delay =
      std::chrono::milliseconds(cli.get_int("chaos-write-delay"));
  options.chaos.delay_jitter =
      std::chrono::milliseconds(cli.get_int("chaos-jitter"));
  options.chaos.first_read_stall =
      std::chrono::milliseconds(cli.get_int("chaos-stall"));
  options.chaos.throttle_bytes_per_sec =
      static_cast<std::size_t>(cli.get_int("chaos-throttle"));
  options.chaos.torn_write_max_bytes =
      static_cast<std::size_t>(cli.get_int("chaos-torn"));
  options.chaos.reset_probability = cli.get_double("chaos-reset-prob");
  options.chaos.reset_after_bytes =
      static_cast<std::uint64_t>(cli.get_int("chaos-reset-after"));
  if (cli.get_int("chaos-seed") != 0) {
    options.chaos_seed = static_cast<std::uint64_t>(cli.get_int("chaos-seed"));
  }
  options.slow_log_path = cli.get("slow-log");
  options.slow_budget = std::chrono::milliseconds(cli.get_int("slow-budget"));
  runtime::MiniCluster cluster(nodes, docs, options);
  if (options.chaos_node >= 0 && options.chaos_node < nodes &&
      options.chaos.active()) {
    std::printf("chaos: node %d degraded (seed %llu)\n", options.chaos_node,
                static_cast<unsigned long long>(options.chaos_seed));
  }
  if (!cli.get("trace-out").empty()) cluster.tracer().set_enabled(true);
  install_signal_handlers();
  cluster.start();
  if (cli.get_flag("overload")) {
    std::printf("overload control: on (brownout at %s ms queue delay, "
                "shedding at %s ms)\n",
                cli.get("overload-brownout-ms").c_str(),
                cli.get("overload-shed-ms").c_str());
  }

  // Live metrics tail: one registry snapshot per second, JSON lines.
  std::unique_ptr<obs::SnapshotWriter> snapshots;
  if (const std::string path = cli.get("metrics-out"); !path.empty()) {
    snapshots = std::make_unique<obs::SnapshotWriter>(
        cluster.registry(), path, std::chrono::milliseconds(1000));
    std::printf("metrics snapshots -> %s (tail -f it)\n", path.c_str());
  }

  std::printf("SWEB mini-cluster up: %d nodes on loopback\n", nodes);
  for (int n = 0; n < cluster.num_nodes(); ++n) {
    std::printf("  node %d: http://127.0.0.1:%u\n", n, cluster.port(n));
  }
  std::printf("\n");

  // A browse session through the round-robin "DNS".
  const char* session[] = {
      "/adl/meta0.html", "/adl/thumb1.gif", "/adl/browse2.jpg",
      "/adl/scene3.tiff", "/adl/meta4.html", "/adl/scene7.tiff",
  };
  for (const char* path : session) {
    const std::string url = cluster.next_base_url() + path;
    const auto result = runtime::fetch(url);
    if (!result) {
      std::printf("GET %-18s FAILED\n", path);
      continue;
    }
    const auto node = result->response.headers.get("X-Sweb-Node");
    std::printf("GET %-18s -> %d, %6zu bytes, served by node %s%s\n", path,
                http::code(result->response.status),
                result->response.body.size(),
                node ? std::string(*node).c_str() : "?",
                result->redirects_followed > 0 ? "  (302 re-assigned)" : "");
  }

  // Load-board snapshot: who did the work.
  std::printf("\nload board:\n");
  for (int n = 0; n < cluster.num_nodes(); ++n) {
    const runtime::NodeLoad l = cluster.board().snapshot(n);
    std::printf("  node %d: served=%llu redirected=%llu\n", n,
                static_cast<unsigned long long>(l.served),
                static_cast<unsigned long long>(l.redirected));
  }

  if (cli.get_flag("status")) {
    // The introspection endpoint, as any monitoring agent would see it.
    const std::string url =
        "http://127.0.0.1:" + std::to_string(cluster.port(0)) +
        "/sweb/status";
    const auto status = runtime::fetch(url);
    if (status) {
      std::printf("\nGET /sweb/status (node 0):\n%s\n",
                  status->response.body.c_str());
    } else {
      std::printf("\nGET /sweb/status FAILED\n");
    }
  }

  if (linger) {
    const int seconds = static_cast<int>(cli.get_int("serve-seconds"));
    std::printf("\nserving for %d s (SIGTERM/SIGINT drain early) — try:\n"
                "  curl -i http://127.0.0.1:%u/adl/meta0.html\n"
                "  curl -s http://127.0.0.1:%u/sweb/status\n",
                seconds, cluster.port(0), cluster.port(0));
    // Sliced sleep so a SIGTERM/SIGINT ends the linger within ~100 ms and
    // falls through to the graceful cluster.stop() below, instead of the
    // default handler killing the process mid-connection.
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::seconds(seconds);
    while (g_shutdown_requested == 0 &&
           std::chrono::steady_clock::now() < until) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    if (g_shutdown_requested != 0) {
      std::printf("\nshutdown requested; draining...\n");
    }
  }

  if (const std::string path = cli.get("slow-log"); !path.empty()) {
    std::printf("slow-request forensics -> %s (%llu records)\n", path.c_str(),
                static_cast<unsigned long long>(
                    cluster.slow_log().total_recorded()));
  }
  snapshots.reset();  // final snapshot line before the cluster stops
  if (const std::string path = cli.get("trace-out"); !path.empty()) {
    if (cluster.tracer().write_file(path)) {
      std::printf("wrote %zu trace spans to %s (open in chrome://tracing "
                  "or https://ui.perfetto.dev)\n",
                  cluster.tracer().size(), path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
    }
  }
  cluster.stop();
  std::printf("\ncluster stopped.\n");
  return 0;
}
