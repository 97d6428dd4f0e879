// PR9 — epoll reactor concurrency sweep.
//
// The pooled runtime parked one worker thread per connection, so a node's
// admission bound was its worker + backlog slots (48 by default): ten
// thousand keep-alive connections were simply impossible. The reactor
// multiplexes every connection onto one event loop, so idle keep-alive
// sockets cost an epoll registration and a timer-heap entry, not a thread.
//
// Two scenarios land in BENCH_PR9.json:
//   baseline          — one-node closed loop with the per-phase breakdown,
//                       directly comparable to the PR6/PR8 trajectory.
//   concurrency_sweep — the same closed-loop request load measured twice:
//                       against a pool-bounded node (max_connections = 48,
//                       the old admission cap) and against a reactor node
//                       already holding >= 10k established keep-alive
//                       connections. The claim under test: p99 stays
//                       bounded — parked connections are not load.
//
// The container caps open files at 20000, so one process cannot hold both
// ends of 10k sockets plus the server's own: the idle herd is split across
// forked child processes (client ends) while the parent keeps the server
// (accept ends). Children are forked before the cluster starts any thread.
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "fs/docbase.h"
#include "obs/json.h"
#include "obs/phase.h"
#include "obs/registry.h"
#include "runtime/client.h"
#include "runtime/mini_cluster.h"
#include "runtime/socket.h"

namespace {

using namespace std::chrono_literals;
namespace bench = sweb::bench;
namespace fs = sweb::fs;
namespace obs = sweb::obs;
namespace runtime = sweb::runtime;

constexpr int kIdleChildren = 5;
constexpr int kIdleConnsPerChild = 2016;  // 10080 total: margin over 10k
constexpr int kIdleTarget = 10000;
constexpr int kLoadSessions = 16;
constexpr int kLoadPerSession = 250;
constexpr int kDocCount = 16;
constexpr std::uint64_t kDocBytes = 8192;

std::string doc_url(std::uint16_t port, int ordinal) {
  return "http://127.0.0.1:" + std::to_string(port) + "/docs/file" +
         std::to_string(ordinal % kDocCount) + ".html";
}

/// One complete keep-alive HTTP exchange on a raw stream: write the
/// request, read status line + headers, then Content-Length body bytes.
/// Used by the idle-herd children, which must not link a whole client.
bool complete_one_request(runtime::TcpStream& stream) {
  static const std::string kRequest =
      "GET /docs/file0.html HTTP/1.1\r\n"
      "Host: bench\r\n"
      "Connection: keep-alive\r\n"
      "\r\n";
  if (!stream.write_all(kRequest, 5000ms)) return false;
  std::string buf;
  std::size_t header_end = std::string::npos;
  std::size_t body_need = 0;
  for (;;) {
    const auto chunk = stream.read_some(16 * 1024, 5000ms);
    if (!chunk.ok) return false;
    buf += chunk.data;
    if (header_end == std::string::npos) {
      const std::size_t pos = buf.find("\r\n\r\n");
      if (pos != std::string::npos) {
        header_end = pos + 4;
        const std::size_t cl = buf.find("Content-Length:");
        if (cl != std::string::npos && cl < header_end) {
          body_need = std::strtoull(buf.c_str() + cl + 15, nullptr, 10);
        }
      }
    }
    if (header_end != std::string::npos &&
        buf.size() >= header_end + body_need) {
      return true;
    }
    if (chunk.eof) return false;
  }
}

/// Child-process body: wait for "go", establish `conns` keep-alive
/// connections (one served request each, proving they are real established
/// sessions, not half-open SYNs), report the count, then hold every socket
/// open until the parent says "stop". Exits via _exit: the child must not
/// run the parent's destructors.
[[noreturn]] void run_idle_child(std::uint16_t port, int conns, int ctl_read,
                                 int status_write) {
  char go = 0;
  while (::read(ctl_read, &go, 1) != 1) {
  }
  std::vector<runtime::TcpStream> held;
  held.reserve(static_cast<std::size_t>(conns));
  for (int i = 0; i < conns; ++i) {
    // The listener backlog is 64 and five children connect concurrently;
    // a refused attempt just backs off and retries.
    for (int attempt = 0; attempt < 5; ++attempt) {
      auto stream = runtime::TcpStream::connect(
          runtime::SocketAddress::loopback(port), 2000ms);
      if (stream && complete_one_request(*stream)) {
        held.push_back(std::move(*stream));
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20 * (attempt + 1)));
    }
  }
  const std::uint32_t established = static_cast<std::uint32_t>(held.size());
  (void)::write(status_write, &established, sizeof established);
  char stop = 0;
  while (::read(ctl_read, &stop, 1) != 1) {
  }
  ::_exit(0);
}

struct LoadResult {
  double rps = 0.0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  double p50_s = 0.0;
  double p95_s = 0.0;
  double p99_s = 0.0;
};

/// Fixed closed-loop request load: `num_sessions` keep-alive sessions, each
/// issuing `per_session` sequential static fetches. Both sweep points run
/// exactly this, so the only variable is the idle herd behind it.
LoadResult run_load(std::uint16_t port, int num_sessions, int per_session) {
  obs::Histogram latency_hist(obs::log_latency_bounds());
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> failed{0};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> sessions;
  sessions.reserve(static_cast<std::size_t>(num_sessions));
  for (int s = 0; s < num_sessions; ++s) {
    sessions.emplace_back([port, s, per_session, &latency_hist, &ok,
                           &failed] {
      runtime::FetchOptions fo;
      fo.keep_alive = true;
      runtime::FetchSession session(fo);
      for (int i = 0; i < per_session; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        const auto result = session.fetch(doc_url(port, s * 7 + i));
        const double latency_s = std::chrono::duration<double>(
                                     std::chrono::steady_clock::now() - t0)
                                     .count();
        if (result && sweb::http::code(result->response.status) == 200) {
          ++ok;
          latency_hist.observe(latency_s);
        } else {
          ++failed;
        }
      }
    });
  }
  for (auto& t : sessions) t.join();
  const double elapsed_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
  LoadResult out;
  out.ok = ok.load();
  out.failed = failed.load();
  out.rps = elapsed_s > 0.0 ? static_cast<double>(out.ok) / elapsed_s : 0.0;
  const auto value = obs::histogram_value(latency_hist);
  out.p50_s = obs::histogram_quantile(value, 0.50);
  out.p95_s = obs::histogram_quantile(value, 0.95);
  out.p99_s = obs::histogram_quantile(value, 0.99);
  return out;
}

struct SweepResult {
  LoadResult load;
  std::uint64_t shed = 0;
  std::uint32_t established = 0;
  int active_seen = 0;
  bool ok = false;
};

/// Forks `children_n` idle-herd processes holding `per_child` keep-alive
/// connections each against a fresh one-node cluster, then measures the
/// closed-loop load behind them. Children fork before the cluster spawns
/// any thread — forking a multithreaded process can inherit a held
/// allocator lock.
SweepResult run_idle_sweep(int children_n, int per_child, int max_conns,
                           int load_sessions, int load_per_session) {
  SweepResult out;
  runtime::MiniClusterOptions options;
  options.max_connections = max_conns;
  // The idle herd must survive the whole measurement: the keep-alive idle
  // deadline (silent close) follows header_timeout.
  options.header_timeout = 120000ms;
  const fs::Docbase docs = fs::make_uniform(
      kDocCount, kDocBytes, 1, fs::Placement::kRoundRobin, nullptr, "/docs");
  runtime::MiniCluster cluster(1, docs, options);
  const std::uint16_t port = cluster.port(0);

  struct Child {
    pid_t pid = -1;
    int ctl_write = -1;
    int status_read = -1;
  };
  std::vector<Child> children;
  for (int c = 0; c < children_n; ++c) {
    int ctl[2] = {-1, -1};
    int status[2] = {-1, -1};
    if (::pipe(ctl) != 0 || ::pipe(status) != 0) {
      std::perror("pipe");
      return out;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("fork");
      return out;
    }
    if (pid == 0) {
      ::close(ctl[1]);
      ::close(status[0]);
      for (const Child& sibling : children) {
        ::close(sibling.ctl_write);
        ::close(sibling.status_read);
      }
      run_idle_child(port, per_child, ctl[0], status[1]);
    }
    ::close(ctl[0]);
    ::close(status[1]);
    children.push_back({pid, ctl[1], status[0]});
  }

  cluster.start();
  for (const Child& child : children) {
    const char go = 'g';
    (void)::write(child.ctl_write, &go, 1);
  }
  // Each child reports once every one of its connections has served a
  // request; the blocking reads double as the establishment barrier.
  for (const Child& child : children) {
    std::uint32_t n = 0;
    if (::read(child.status_read, &n, sizeof n) == sizeof n) {
      out.established += n;
    }
  }
  std::printf("idle herd established: %u keep-alive connections "
              "(server sees %d)\n",
              out.established, cluster.node(0).active_connections());

  out.load = run_load(port, load_sessions, load_per_session);
  out.active_seen = cluster.node(0).active_connections();
  out.shed = cluster.node(0).shed_count();
  out.ok = true;

  for (const Child& child : children) {
    const char stop = 's';
    (void)::write(child.ctl_write, &stop, 1);
  }
  for (const Child& child : children) {
    int wstatus = 0;
    (void)::waitpid(child.pid, &wstatus, 0);
    ::close(child.ctl_write);
    ::close(child.status_read);
  }
  cluster.stop();
  return out;
}

void write_load(obs::JsonWriter& w, const LoadResult& r) {
  w.key("rps").value(r.rps);
  w.key("requests_ok").value(r.ok);
  w.key("requests_failed").value(r.failed);
  w.key("latency").begin_object();
  w.key("p50_s").value(r.p50_s);
  w.key("p95_s").value(r.p95_s);
  w.key("p99_s").value(r.p99_s);
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  // `--smoke N`: CI mode — establish >= N concurrent keep-alive
  // connections against one node (typically under ASan), drive a short
  // load burst through them, and exit nonzero on any shortfall. No JSON
  // report; this is a pass/fail gate, not a trajectory point.
  if (argc == 3 && std::strcmp(argv[1], "--smoke") == 0) {
    const int target = std::atoi(argv[2]);
    if (target <= 0) {
      std::fprintf(stderr, "bad --smoke target: %s\n", argv[2]);
      return 2;
    }
    const int children = 2;
    const int per_child = (target + children - 1) / children;
    std::printf("reactor smoke: %d keep-alive connections, one node\n",
                children * per_child);
    const SweepResult smoke = run_idle_sweep(
        children, per_child, /*max_conns=*/2 * target + 64,
        /*load_sessions=*/8, /*load_per_session=*/50);
    std::printf("smoke: established %u, load ok %llu failed %llu, "
                "shed %llu\n",
                smoke.established,
                static_cast<unsigned long long>(smoke.load.ok),
                static_cast<unsigned long long>(smoke.load.failed),
                static_cast<unsigned long long>(smoke.shed));
    if (!smoke.ok || smoke.established < static_cast<std::uint32_t>(target) ||
        smoke.load.failed > 0 || smoke.shed > 0) {
      std::fprintf(stderr, "reactor smoke FAILED\n");
      return 1;
    }
    std::printf("reactor smoke OK\n");
    return 0;
  }

  bench::print_header(
      "PR9", "epoll reactor: 10k keep-alive connections on one node",
      "A fixed closed-loop request load measured against (a) a node capped "
      "at the old pool admission bound and (b) a reactor node already "
      "holding >= 10k established keep-alive connections, forked across "
      "client processes to stay inside the fd limit. Bounded p99 under (b) "
      "is the reactor claim: parked connections are not load.");

  // --- baseline: one-node closed loop with the phase breakdown ------------
  LoadResult baseline;
  obs::RegistrySnapshot baseline_snap;
  {
    runtime::MiniClusterOptions options;
    const fs::Docbase docs = fs::make_uniform(
        kDocCount, kDocBytes, 1, fs::Placement::kRoundRobin, nullptr, "/docs");
    runtime::MiniCluster cluster(1, docs, options);
    cluster.start();
    baseline = run_load(cluster.port(0), kLoadSessions, kLoadPerSession);
    baseline_snap = cluster.registry().snapshot();
    cluster.stop();
  }
  std::printf("baseline (1 node, %d keep-alive sessions): %.0f rps, "
              "p50 %.2f ms, p99 %.2f ms\n",
              kLoadSessions, baseline.rps, 1e3 * baseline.p50_s,
              1e3 * baseline.p99_s);

  // --- sweep point 1: the old pool admission bound ------------------------
  LoadResult pooled;
  std::uint64_t pooled_shed = 0;
  {
    runtime::MiniClusterOptions options;
    options.max_connections = 48;  // the old pool's admission cap
    const fs::Docbase docs = fs::make_uniform(
        kDocCount, kDocBytes, 1, fs::Placement::kRoundRobin, nullptr, "/docs");
    runtime::MiniCluster cluster(1, docs, options);
    cluster.start();
    pooled = run_load(cluster.port(0), kLoadSessions, kLoadPerSession);
    pooled_shed = cluster.node(0).shed_count();
    cluster.stop();
  }
  std::printf("pool-bounded (cap 48): %.0f rps, p50 %.2f ms, p99 %.2f ms, "
              "shed %llu\n",
              pooled.rps, 1e3 * pooled.p50_s, 1e3 * pooled.p99_s,
              static_cast<unsigned long long>(pooled_shed));

  // --- sweep point 2: the same load behind a 10k idle keep-alive herd -----
  const SweepResult sweep = run_idle_sweep(
      kIdleChildren, kIdleConnsPerChild, /*max_conns=*/12000, kLoadSessions,
      kLoadPerSession);
  if (!sweep.ok) return 1;
  const LoadResult& reactor = sweep.load;
  const std::uint64_t reactor_shed = sweep.shed;
  const std::uint32_t idle_established = sweep.established;
  const int idle_peak = sweep.active_seen;
  std::printf("reactor behind %u idle conns: %.0f rps, p50 %.2f ms, "
              "p99 %.2f ms, shed %llu\n",
              idle_established, reactor.rps, 1e3 * reactor.p50_s,
              1e3 * reactor.p99_s,
              static_cast<unsigned long long>(reactor_shed));
  const double p99_ratio =
      pooled.p99_s > 0.0 ? reactor.p99_s / pooled.p99_s : 0.0;
  std::printf("p99 ratio (reactor-10k / pool-bounded): %.2fx\n", p99_ratio);
  if (idle_established < kIdleTarget) {
    std::printf("WARNING: idle herd fell short of the %d target\n",
                kIdleTarget);
  }
  bench::print_note(
      "expected shape: both sweep points serve the identical closed loop at "
      "comparable rps, and the 10k idle keep-alive herd moves p99 by a "
      "small constant factor, not an order of magnitude — epoll readiness "
      "and the timer heap are O(active), not O(open).");

  // --- machine-readable trajectory point ----------------------------------
  obs::JsonWriter w;
  w.begin_object();
  w.key("schema").value("sweb-bench/1");
  w.key("bench").value("concurrency");
  w.key("pr").value(9);
  w.key("scenarios").begin_object();

  w.key("baseline").begin_object();
  w.key("config").begin_object();
  w.key("nodes").value(1);
  w.key("sessions").value(kLoadSessions);
  w.key("requests_per_session").value(kLoadPerSession);
  w.key("file_bytes").value(static_cast<std::int64_t>(kDocBytes));
  w.end_object();
  write_load(w, baseline);
  w.key("phases").begin_object();
  for (const obs::Phase phase : obs::all_phases()) {
    const char* name = obs::phase_name(phase);
    const auto it = baseline_snap.histograms.find(
        std::string("node.0.phase.") + name);
    const bool have = it != baseline_snap.histograms.end();
    const std::uint64_t count = have ? it->second.count : 0;
    w.key(name).begin_object();
    w.key("count").value(count);
    w.key("p50_s").value(
        count > 0 ? obs::histogram_quantile(it->second, 0.50) : 0.0);
    w.key("p95_s").value(
        count > 0 ? obs::histogram_quantile(it->second, 0.95) : 0.0);
    w.key("p99_s").value(
        count > 0 ? obs::histogram_quantile(it->second, 0.99) : 0.0);
    w.end_object();
  }
  w.end_object();  // phases
  w.end_object();  // baseline

  w.key("concurrency_sweep").begin_object();
  w.key("config").begin_object();
  w.key("nodes").value(1);
  w.key("sessions").value(kLoadSessions);
  w.key("requests_per_session").value(kLoadPerSession);
  w.key("file_bytes").value(static_cast<std::int64_t>(kDocBytes));
  w.key("idle_target").value(kIdleTarget);
  w.key("idle_children").value(kIdleChildren);
  w.end_object();
  w.key("pooled_baseline").begin_object();
  w.key("max_connections").value(48);
  w.key("idle_connections").value(0);
  w.key("shed_503").value(pooled_shed);
  write_load(w, pooled);
  w.end_object();
  w.key("reactor_10k").begin_object();
  w.key("max_connections").value(12000);
  w.key("idle_connections").value(static_cast<std::uint64_t>(idle_established));
  w.key("active_connections_seen").value(idle_peak);
  w.key("shed_503").value(reactor_shed);
  write_load(w, reactor);
  w.end_object();
  w.key("p99_ratio").value(p99_ratio);
  w.end_object();  // concurrency_sweep

  w.end_object();  // scenarios
  w.end_object();
  if (!bench::write_json_report("BENCH_PR9.json", w.str())) return 1;
  return 0;
}
