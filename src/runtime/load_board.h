// Thread-safe shared load board for the real-sockets runtime.
//
// The simulator's loadd exchanges UDP-style broadcasts; on one machine the
// node threads can share a mutex-guarded board instead — same information
// (per-node active connections, bytes in flight, served counts), same
// consumer (the per-node broker deciding whether to redirect). Three pieces
// of the paper's protocol are mirrored explicitly:
//
//  * every entry carries the timestamp of its last update (the "broadcast
//    age" a peer would see);
//  * redirects sent toward a node inflate its apparent load (the
//    Δ-inflation guard against the unsynchronized herd) until a connection
//    actually lands there — or the inflation unit expires, because a 302
//    whose client never follows it (or whose target died) must not leave
//    phantom load on the board forever;
//  * liveness is a lease: each node stamps its own entry via heartbeat()
//    every loadd tick, and sweep_stale() marks any peer whose stamp has
//    aged past the staleness timeout unavailable ("marks unresponsive
//    peers unavailable — nodes may leave/join the pool"). Stamps resuming
//    re-admit the node automatically.
//
// Entries start *unavailable*: a node earns its place in the pool with its
// first heartbeat, so the broker can never redirect to a peer whose server
// never started or whose start() threw.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "obs/registry.h"
#include "runtime/clock.h"

namespace sweb::runtime {

/// Failure-detector knobs (seconds on the board clock). Defaults follow the
/// paper's 2-3 s loadd tick: a peer is presumed dead after ~3 missed
/// heartbeats, and a redirect's Δ-inflation expires after ~2 ticks if no
/// connection (or shed) ever consumed it.
struct LivenessParams {
  double staleness_timeout_s = 6.0;
  double inflation_expiry_s = 4.0;
};

struct NodeLoad {
  int active_connections = 0;
  std::uint64_t bytes_in_flight = 0;
  std::uint64_t served = 0;
  std::uint64_t redirected = 0;
  /// False until the node's first heartbeat; flipped false again by
  /// sweep_stale() (missed heartbeats) or a graceful set_available(false).
  bool available = false;
  /// Redirects recently sent toward this node that have not yet shown up as
  /// connections — each counts as one phantom connection for scheduling
  /// (the runtime's Δ-inflation) until consumed or expired.
  int redirect_inflation = 0;
  /// True while the node's overload controller is in brownout or shedding:
  /// the node is still *available* (it serves cache hits, answers
  /// heartbeats) but the broker must not aim new 302 re-assignments at it.
  bool overloaded = false;
  /// Seconds (board clock) of the last update to this entry; < 0 = never.
  double last_update_s = -1.0;
  /// Seconds (board clock) of the last heartbeat() stamp; < 0 = never.
  /// Liveness keys off this, not last_update_s: traffic *about* a node
  /// (redirects aimed at it) must not keep a dead node looking alive.
  double last_heartbeat_s = -1.0;

  /// What the redirect logic compares: real connections plus in-flight Δ.
  [[nodiscard]] int effective_connections() const noexcept {
    return active_connections + redirect_inflation;
  }
};

class LoadBoard {
 public:
  /// `clock` (the real one by default) must outlive the board.
  explicit LoadBoard(int num_nodes, const Clock& clock = Clock::real())
      : loads_(static_cast<std::size_t>(num_nodes)),
        inflation_expiry_(static_cast<std::size_t>(num_nodes)),
        clock_(clock),
        epoch_(clock.now()) {}

  /// Sets the failure-detector knobs; call before the cluster starts.
  void set_liveness(LivenessParams params);
  [[nodiscard]] LivenessParams liveness() const;

  void connection_opened(int node, std::uint64_t expected_bytes);
  void connection_closed(int node, std::uint64_t expected_bytes);
  void note_served(int node);
  /// `node` answered with a 302 pointing at `target`; the target's apparent
  /// load is inflated until a connection arrives there (or the unit
  /// expires).
  void note_redirected(int node, int target);
  /// `node` shed a connection with 503 before it ever reached
  /// connection_opened: the Δ-inflation a redirect placed on it is consumed
  /// here instead, so an overloaded node does not stay phantom-inflated.
  void note_shed(int node);
  /// Graceful leave/join (start()/stop()); does NOT count as a liveness
  /// rejoin — only heartbeats resuming after a sweep do.
  void set_available(int node, bool available);
  /// Published by the node's overload controller on state transitions:
  /// true in brownout/shedding, false when healthy (and cleared by a
  /// graceful stop). The broker skips overloaded peers when re-assigning.
  void set_overloaded(int node, bool overloaded);

  /// Stamps `node`'s liveness lease, marking it available (join/rejoin).
  void heartbeat(int node);
  /// The failure detector: marks every node whose heartbeat stamp has aged
  /// past the staleness timeout unavailable, and expires stale Δ-inflation.
  /// Idempotent; every node's loadd tick runs it. Returns how many
  /// nodes were newly marked down.
  int sweep_stale();

  [[nodiscard]] NodeLoad snapshot(int node) const;
  [[nodiscard]] std::vector<NodeLoad> snapshot_all() const;
  [[nodiscard]] int num_nodes() const noexcept {
    return static_cast<int>(loads_.size());
  }

  /// Board-clock seconds since the board was created (last_update_s's).
  [[nodiscard]] double now_seconds() const;
  /// The clock every node on this board schedules by.
  [[nodiscard]] const Clock& clock() const noexcept { return clock_; }

  /// Double-closes caught (and clamped) by connection_closed — also
  /// published as the `loadboard.underflow` counter when a registry is
  /// bound. Nonzero means a connection-accounting bug upstream.
  [[nodiscard]] std::uint64_t underflows() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return underflows_;
  }
  /// Liveness bookkeeping totals (also published as `liveness.marked_down`
  /// / `liveness.rejoined` / `board.inflation_expired` counters).
  [[nodiscard]] std::uint64_t marked_down_total() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return marked_down_;
  }
  [[nodiscard]] std::uint64_t rejoined_total() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return rejoined_;
  }
  [[nodiscard]] std::uint64_t inflation_expired_total() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return inflation_expired_;
  }

  /// Registers cluster-wide gauges (`<prefix>.active_connections`,
  /// `<prefix>.redirect_inflation`), per-node `node.N.available` gauges,
  /// and the liveness counters — all kept current on every mutation.
  void bind_registry(obs::Registry& registry,
                     const std::string& prefix = "board");

 private:
  void touch(int node);       // stamps last_update_s; caller holds mutex_
  void publish();             // refreshes bound gauges; caller holds mutex_
  void expire_inflation(double now);         // caller holds mutex_
  void consume_inflation(std::size_t node);  // caller holds mutex_

  mutable std::mutex mutex_;
  std::vector<NodeLoad> loads_;
  /// Per-node FIFO of Δ-inflation expiry deadlines (board clock, seconds);
  /// one entry per outstanding inflation unit, monotonically ordered.
  std::vector<std::deque<double>> inflation_expiry_;
  LivenessParams liveness_;
  std::uint64_t underflows_ = 0;
  std::uint64_t marked_down_ = 0;
  std::uint64_t rejoined_ = 0;
  std::uint64_t inflation_expired_ = 0;
  const Clock& clock_;
  Clock::TimePoint epoch_;
  obs::Gauge* active_gauge_ = nullptr;
  obs::Gauge* inflation_gauge_ = nullptr;
  std::vector<obs::Gauge*> available_gauges_;
  obs::Counter* underflow_counter_ = nullptr;
  obs::Counter* marked_down_counter_ = nullptr;
  obs::Counter* rejoined_counter_ = nullptr;
  obs::Counter* inflation_expired_counter_ = nullptr;
};

}  // namespace sweb::runtime
