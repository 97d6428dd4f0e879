#include "runtime/mini_cluster.h"

#include <cassert>

namespace sweb::runtime {

MiniCluster::MiniCluster(int num_nodes, const fs::Docbase& docbase,
                         MiniClusterOptions options)
    : docs_(docbase),
      board_(num_nodes),
      caches_(num_nodes, options.cache_bytes_per_node) {
  assert(num_nodes > 0);
  docs_.bind_registry(registry_);
  board_.bind_registry(registry_);
  if (caches_.enabled()) caches_.bind_registry(registry_);
  audit_.bind_registry(registry_);
  LivenessParams liveness;
  liveness.staleness_timeout_s =
      std::chrono::duration<double>(options.staleness_timeout).count();
  liveness.inflation_expiry_s =
      2.0 * std::chrono::duration<double>(options.heartbeat_period).count();
  board_.set_liveness(liveness);
  if (!options.slow_log_path.empty()) {
    (void)slow_log_.open(options.slow_log_path);
  }
  std::vector<std::uint16_t> ports;
  for (int n = 0; n < num_nodes; ++n) {
    NodeServer::Config cfg;
    cfg.node_id = n;
    cfg.broker = options.broker;
    cfg.max_workers = options.max_workers;
    cfg.max_connections = options.max_connections;
    cfg.io_timeout = options.io_timeout;
    cfg.heartbeat_period = options.heartbeat_period;
    cfg.header_timeout = options.header_timeout;
    cfg.retry_after_hint = options.retry_after_hint;
    cfg.overload = options.overload;
    if (n == options.chaos_node) {
      cfg.chaos = options.chaos;
      cfg.chaos_seed = options.chaos_seed;
    }
    cfg.caches = &caches_;
    cfg.registry = &registry_;
    cfg.tracer = &tracer_;
    cfg.audit = &audit_;
    cfg.slow_log = &slow_log_;
    cfg.slow_budget = options.slow_budget;
    servers_.push_back(std::make_unique<NodeServer>(cfg, docs_, board_));
    ports.push_back(servers_.back()->port());
  }
  for (auto& server : servers_) server->set_peer_ports(ports);
}

MiniCluster::~MiniCluster() { stop(); }

void MiniCluster::start() {
  for (auto& server : servers_) server->start();
}

void MiniCluster::stop() {
  for (auto& server : servers_) server->stop();
}

std::uint16_t MiniCluster::port(int node) const {
  assert(node >= 0 && node < num_nodes());
  return servers_[static_cast<std::size_t>(node)]->port();
}

std::string MiniCluster::next_base_url() {
  // fetch_add hands every caller a unique ordinal, so concurrent client
  // threads round-robin without ever sharing a node unfairly.
  const std::size_t n =
      rotation_.fetch_add(1, std::memory_order_relaxed) % servers_.size();
  return "http://127.0.0.1:" + std::to_string(servers_[n]->port());
}

}  // namespace sweb::runtime
