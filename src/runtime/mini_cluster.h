// MiniCluster: N NodeServers on loopback ports behind a round-robin
// "DNS" — the whole SWEB logical server (Figure 2) as real processes-worth
// of threads on one machine.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fs/docbase.h"
#include "obs/audit.h"
#include "obs/registry.h"
#include "obs/slow_log.h"
#include "obs/trace.h"
#include "runtime/doc_store.h"
#include "runtime/load_board.h"
#include "runtime/node_cache.h"
#include "runtime/node_server.h"

namespace sweb::runtime {

/// Cluster-wide knobs forwarded to every NodeServer.
struct MiniClusterOptions {
  /// Off: no node ever 302s (NodeServer::Config::enable_redirects).
  bool enable_redirects = true;
  /// CGI pool size per node (NodeServer::Config::max_workers).
  int max_workers = 16;
  /// Per-node concurrent-connection cap before 503 load shedding
  /// (NodeServer::Config::max_connections).
  int max_connections = 48;
  /// Per-request I/O deadline (NodeServer::Config::io_timeout).
  std::chrono::milliseconds io_timeout{2000};
  /// Liveness lease period per node (NodeServer::Config::heartbeat_period):
  /// the paper's 2-3 s loadd tick, sub-second in tests. A unit of redirect
  /// Δ-inflation whose 302 nobody followed expires after two periods.
  std::chrono::milliseconds heartbeat_period{2000};
  /// A peer whose heartbeat stamp ages past this is marked unavailable by
  /// the failure detector (and re-admitted when stamps resume).
  std::chrono::milliseconds staleness_timeout{6000};
  /// Slowloris defense per node: complete-request deadline before a 408
  /// (NodeServer::Config::header_timeout). Zero falls back to io_timeout.
  std::chrono::milliseconds header_timeout{0};
  /// Retry-After hint attached to shed 503s (the fallback when the
  /// overload controller is disabled or has no drain signal yet).
  std::chrono::milliseconds retry_after_hint{1000};
  /// Overload control per node (NodeServer::Config::overload): off by
  /// default; set overload.enabled = true for adaptive admission
  /// (brownout class sheds, shedding at accept, broker route-around).
  OverloadParams overload{};
  /// Degraded-link fault plan for ONE node (`chaos_node`), the "node behind
  /// a lossy/slow link" drill. Inactive by default.
  FaultPlan chaos{};
  int chaos_node = -1;
  std::uint64_t chaos_seed = ChaosDirector::kDefaultSeed;
  /// Slow-request forensics: a request whose measured total exceeds this
  /// budget leaves one JSONL record in the cluster's shared SlowLog (zero:
  /// only chaos-faulted requests are recorded).
  std::chrono::milliseconds slow_budget{0};
  /// Append-only JSONL sink for the slow log; empty keeps records
  /// in-memory only (MiniCluster::slow_log().records()).
  std::string slow_log_path;
  /// Per-node runtime page-cache byte budget (the paper's aggregate-memory
  /// claim: N nodes hold N budgets' worth of the hot set). Cache-resident
  /// documents ship over the zero-copy writev path; 0 disables the cache
  /// (every response takes the copy path).
  std::uint64_t cache_bytes_per_node = 8ull * 1024 * 1024;
};

class MiniCluster {
 public:
  /// Builds stores + servers for `num_nodes` nodes serving `docbase`,
  /// scheduling on `clock` (which must outlive the cluster).
  MiniCluster(int num_nodes, const fs::Docbase& docbase,
              MiniClusterOptions options = {},
              const Clock& clock = Clock::real());
  ~MiniCluster();
  MiniCluster(const MiniCluster&) = delete;
  MiniCluster& operator=(const MiniCluster&) = delete;

  void start();
  void stop();
  /// Steps a cluster that was never start()ed: one NodeServer::run_once
  /// turn per node, in index order, none waiting for events.
  void run_once();

  [[nodiscard]] int num_nodes() const noexcept {
    return static_cast<int>(servers_.size());
  }
  [[nodiscard]] std::uint16_t port(int node) const;
  /// Direct access to one node's server (connection/shed introspection).
  [[nodiscard]] NodeServer& node(int n) {
    return *servers_[static_cast<std::size_t>(n)];
  }

  /// Fault injection, forwarded to the node (see NodeServer): chaos tests
  /// and benches kill a node mid-run and watch the broker route around it.
  void crash(int n) { node(n).crash(); }
  void hang(int n) { node(n).hang(); }
  void recover(int n) { node(n).recover(); }

  /// Round-robin DNS: the next node's base URL ("http://127.0.0.1:PORT").
  [[nodiscard]] std::string next_base_url();

  [[nodiscard]] const LoadBoard& board() const noexcept { return board_; }
  [[nodiscard]] LoadBoard& board() noexcept { return board_; }
  [[nodiscard]] const DocStore& docs() const noexcept { return docs_; }
  /// For registering CGI handlers — only before start() (the servers read
  /// the store concurrently once running).
  [[nodiscard]] DocStore& docs_mutable() noexcept { return docs_; }
  /// Every node's residency cache (tests and benches read hit/miss/bytes;
  /// each node is handed only its own).
  [[nodiscard]] CacheDirectory& caches() noexcept { return caches_; }
  [[nodiscard]] const CacheDirectory& caches() const noexcept {
    return caches_;
  }

  /// Live metrics shared by every node (node.N.requests, cache.hits, ...).
  [[nodiscard]] obs::Registry& registry() noexcept { return registry_; }
  [[nodiscard]] const obs::Registry& registry() const noexcept {
    return registry_;
  }
  /// Request tracer, disabled by default; call
  /// `tracer().set_enabled(true)` before start() to record phase spans.
  [[nodiscard]] obs::SpanTracer& tracer() noexcept { return tracer_; }
  /// Shared scheduler decision audit: origin nodes record brokered choices,
  /// serving nodes join them with observed durations — the
  /// `broker.predict_error.*` histograms land in registry().
  [[nodiscard]] obs::DecisionAudit& audit() noexcept { return audit_; }
  [[nodiscard]] const obs::DecisionAudit& audit() const noexcept {
    return audit_;
  }
  /// Shared slow-request forensics log: every node's outliers (budget
  /// breaches, chaos-faulted requests) land here, rid-linked to the trace.
  [[nodiscard]] obs::SlowLog& slow_log() noexcept { return slow_log_; }
  [[nodiscard]] const obs::SlowLog& slow_log() const noexcept {
    return slow_log_;
  }

 private:
  DocStore docs_;
  LoadBoard board_;
  CacheDirectory caches_;
  obs::Registry registry_;
  obs::SpanTracer tracer_{/*enabled=*/false};
  obs::DecisionAudit audit_;
  obs::SlowLog slow_log_;
  std::vector<std::unique_ptr<NodeServer>> servers_;
  /// Round-robin cursor; atomic because concurrent client threads all call
  /// next_base_url() (a plain size_t here was a data race).
  std::atomic<std::size_t> rotation_{0};
};

}  // namespace sweb::runtime
