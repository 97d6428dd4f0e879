// Load information: the loadd daemon and each node's view of its peers.
//
// "The loadd daemon is responsible for updating the system CPU, network and
// disk load information periodically (every 2-3 seconds), and marking those
// processors which have not responded in a preset period of time as
// unavailable." Estimates of remote processors are therefore *stale*; to
// avoid the unsynchronized-herd effect ("a processor p_x is incorrectly
// believed to be lightly loaded by other processors, and many requests will
// be redirected to it") a node conservatively inflates its estimate of a
// peer's CPU load by Δ = 30% for every redirect it sends there, until the
// next broadcast refreshes the figure.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "sim/periodic.h"
#include "util/rng.h"

namespace sweb::core {

/// One node's load sample, as carried in a loadd broadcast.
struct LoadVector {
  double cpu_run_queue = 0.0;
  double cpu_utilization = 0.0;
  int disk_queue = 0;
  double disk_utilization = 0.0;
  double net_utilization = 0.0;   // internal interconnect
  double ext_utilization = 0.0;   // path to the clients
  double timestamp = -1.0;  // sample time; -1 = never heard from
};

/// A node's view of every processor's load (including its own last sample).
class LoadBoard {
 public:
  LoadBoard(int num_nodes, double staleness_timeout)
      : entries_(static_cast<std::size_t>(num_nodes)),
        timeout_(staleness_timeout) {}

  /// Installs a fresh sample for `node` (from a broadcast or self-sample)
  /// and clears any Δ-inflation accumulated against it.
  void update(int node, const LoadVector& v);

  /// Records that a request was just redirected to `node`; its estimated
  /// CPU load is inflated by `delta` until the next update.
  void note_redirect(int node, double delta);

  /// The (possibly inflated) current estimate for `node`.
  [[nodiscard]] LoadVector view(int node) const;

  /// False when `node` has not been heard from within the staleness window
  /// ending at `now` — such processors are not scheduling candidates.
  [[nodiscard]] bool responsive(int node, double now) const;

  [[nodiscard]] int num_nodes() const noexcept {
    return static_cast<int>(entries_.size());
  }
  [[nodiscard]] double staleness_timeout() const noexcept { return timeout_; }

 private:
  struct Entry {
    LoadVector v;
    double inflation = 0.0;  // accumulated Δ since the last update
  };
  std::vector<Entry> entries_;
  double timeout_;
};

/// Parameters of the load daemon — overheads are real CPU bursts so the
/// §4.3 accounting sees them.
struct LoaddParams {
  double period_s = 2.0;        // paper: every 2-3 seconds
  double jitter_fraction = 0.2; // desynchronize the per-node daemons
  double sample_ops = 4e4;      // reading /proc-equivalents
  double msg_ops = 8e3;         // per message sent or received
  double msg_bytes = 128.0;     // broadcast payload
  double staleness_timeout_s = 6.0;

  /// Hierarchical dissemination (the group's follow-up work, "Towards a
  /// Hierarchical Scheduling System for Distributed WWW Server Clusters"):
  /// nodes are partitioned into groups of `group_size`; members report to
  /// their group leader, leaders exchange *group aggregates* and relay them
  /// down. Message count per period drops from O(p^2) to O(p + L^2) at the
  /// price of peers outside the group being seen only as group means.
  bool hierarchical = false;
  int group_size = 4;
};

/// The per-node daemon wired over the whole cluster: every period each
/// *available* node samples itself and broadcasts to all peers; deliveries
/// update the peers' boards. Unavailable nodes stay silent, so peers mark
/// them unresponsive after the staleness window — the leave/join protocol.
class LoadSystem {
 public:
  LoadSystem(cluster::Cluster& cluster, LoaddParams params, util::Rng& rng);

  /// Starts every node's daemon (staggered within one period).
  void start();
  void stop();

  [[nodiscard]] LoadBoard& board(int node);
  [[nodiscard]] const LoaddParams& params() const noexcept { return params_; }

  /// Samples `node`'s live load from the cluster (what its own loadd sees).
  [[nodiscard]] LoadVector sample(int node) const;

  /// Total broadcasts sent (overhead accounting).
  [[nodiscard]] std::uint64_t broadcasts() const noexcept {
    return broadcasts_;
  }

  /// Group leader of `node` under the hierarchical scheme (lowest id in
  /// its group); identity when flat.
  [[nodiscard]] int leader_of(int node) const noexcept;

 private:
  void tick(int node);
  void tick_flat(int node, const LoadVector& v);
  void tick_hierarchical(int node, const LoadVector& v);
  /// One accounted message: send cost, wire, receive cost, then `deliver`.
  void message(int from, int to, std::function<void()> deliver);

  cluster::Cluster& cluster_;
  LoaddParams params_;
  util::Rng& rng_;
  std::vector<LoadBoard> boards_;                        // one per node
  std::vector<std::unique_ptr<sim::PeriodicTask>> daemons_;
  std::uint64_t broadcasts_ = 0;
};

}  // namespace sweb::core
