#include "runtime/load_board.h"

#include <algorithm>

namespace sweb::runtime {

double LoadBoard::now_seconds() const {
  return std::chrono::duration<double>(clock_.now() - epoch_).count();
}

void LoadBoard::set_liveness(LivenessParams params) {
  const std::lock_guard<std::mutex> lock(mutex_);
  liveness_ = params;
}

LivenessParams LoadBoard::liveness() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return liveness_;
}

void LoadBoard::touch(int node) {
  loads_[static_cast<std::size_t>(node)].last_update_s = now_seconds();
}

void LoadBoard::publish() {
  if (active_gauge_ == nullptr) return;
  std::int64_t active = 0;
  std::int64_t inflation = 0;
  for (std::size_t n = 0; n < loads_.size(); ++n) {
    const NodeLoad& l = loads_[n];
    active += l.active_connections;
    inflation += l.redirect_inflation;
    if (n < available_gauges_.size()) {
      available_gauges_[n]->set(l.available ? 1 : 0);
    }
  }
  active_gauge_->set(active);
  inflation_gauge_->set(inflation);
}

void LoadBoard::expire_inflation(double now) {
  for (std::size_t n = 0; n < loads_.size(); ++n) {
    std::deque<double>& pending = inflation_expiry_[n];
    // Expiries are pushed in clock order, so the stale ones sit at the
    // front: a 302 whose client never followed it (or whose target died)
    // stops counting as phantom load here.
    while (!pending.empty() && pending.front() <= now) {
      pending.pop_front();
      if (loads_[n].redirect_inflation > 0) --loads_[n].redirect_inflation;
      ++inflation_expired_;
      if (inflation_expired_counter_ != nullptr) {
        inflation_expired_counter_->inc();
      }
    }
  }
}

void LoadBoard::consume_inflation(std::size_t node) {
  NodeLoad& l = loads_[node];
  if (l.redirect_inflation > 0) {
    --l.redirect_inflation;
    std::deque<double>& pending = inflation_expiry_[node];
    if (!pending.empty()) pending.pop_front();
  }
}

void LoadBoard::bind_registry(obs::Registry& registry,
                              const std::string& prefix) {
  const std::lock_guard<std::mutex> lock(mutex_);
  active_gauge_ = &registry.gauge(prefix + ".active_connections");
  inflation_gauge_ = &registry.gauge(prefix + ".redirect_inflation");
  underflow_counter_ = &registry.counter("loadboard.underflow");
  marked_down_counter_ = &registry.counter("liveness.marked_down");
  rejoined_counter_ = &registry.counter("liveness.rejoined");
  inflation_expired_counter_ = &registry.counter("board.inflation_expired");
  available_gauges_.clear();
  for (std::size_t n = 0; n < loads_.size(); ++n) {
    available_gauges_.push_back(
        &registry.gauge("node." + std::to_string(n) + ".available"));
  }
  publish();
}

void LoadBoard::connection_opened(int node, std::uint64_t expected_bytes) {
  const std::lock_guard<std::mutex> lock(mutex_);
  expire_inflation(now_seconds());
  NodeLoad& l = loads_[static_cast<std::size_t>(node)];
  ++l.active_connections;
  l.bytes_in_flight += expected_bytes;
  // A redirect aimed here has landed (or organic traffic outpaced it);
  // either way one phantom connection becomes a real one.
  consume_inflation(static_cast<std::size_t>(node));
  touch(node);
  publish();
}

void LoadBoard::connection_closed(int node, std::uint64_t expected_bytes) {
  const std::lock_guard<std::mutex> lock(mutex_);
  NodeLoad& l = loads_[static_cast<std::size_t>(node)];
  if (l.active_connections > 0) {
    --l.active_connections;
  } else {
    // A double-close must not drive the count negative: a phantom
    // -1 would make this node look permanently lighter than it is and
    // skew every broker decision. Clamp and count the bug instead.
    ++underflows_;
    if (underflow_counter_ != nullptr) underflow_counter_->inc();
  }
  l.bytes_in_flight -= std::min(l.bytes_in_flight, expected_bytes);
  touch(node);
  publish();
}

void LoadBoard::note_served(int node) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++loads_[static_cast<std::size_t>(node)].served;
  touch(node);
}

void LoadBoard::note_redirected(int node, int target) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const double now = now_seconds();
  expire_inflation(now);
  ++loads_[static_cast<std::size_t>(node)].redirected;
  touch(node);
  if (target >= 0 && target < static_cast<int>(loads_.size())) {
    ++loads_[static_cast<std::size_t>(target)].redirect_inflation;
    inflation_expiry_[static_cast<std::size_t>(target)].push_back(
        now + liveness_.inflation_expiry_s);
    touch(target);
  }
  publish();
}

void LoadBoard::note_shed(int node) {
  const std::lock_guard<std::mutex> lock(mutex_);
  expire_inflation(now_seconds());
  // The shed connection never reaches connection_opened, so the Δ a
  // redirect placed on this (overloaded) node is consumed here instead.
  consume_inflation(static_cast<std::size_t>(node));
  touch(node);
  publish();
}

void LoadBoard::set_available(int node, bool available) {
  const std::lock_guard<std::mutex> lock(mutex_);
  loads_[static_cast<std::size_t>(node)].available = available;
  touch(node);
  publish();
}

void LoadBoard::set_overloaded(int node, bool overloaded) {
  const std::lock_guard<std::mutex> lock(mutex_);
  loads_[static_cast<std::size_t>(node)].overloaded = overloaded;
  touch(node);
  publish();
}

void LoadBoard::heartbeat(int node) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const double now = now_seconds();
  expire_inflation(now);
  NodeLoad& l = loads_[static_cast<std::size_t>(node)];
  if (!l.available) {
    // First-ever heartbeat is the initial join; stamps resuming after the
    // node was away (sweep or graceful leave) are the rejoin the paper's
    // "nodes may leave/join the pool" describes.
    if (l.last_heartbeat_s >= 0.0) {
      ++rejoined_;
      if (rejoined_counter_ != nullptr) rejoined_counter_->inc();
    }
    l.available = true;
  }
  l.last_heartbeat_s = now;
  l.last_update_s = now;
  publish();
}

int LoadBoard::sweep_stale() {
  const std::lock_guard<std::mutex> lock(mutex_);
  const double now = now_seconds();
  expire_inflation(now);
  int marked = 0;
  for (std::size_t n = 0; n < loads_.size(); ++n) {
    NodeLoad& l = loads_[n];
    // Only nodes that ever joined can go stale: a peer that never
    // heartbeated is simply not in the pool yet, not freshly dead.
    if (!l.available || l.last_heartbeat_s < 0.0) continue;
    if (now - l.last_heartbeat_s <= liveness_.staleness_timeout_s) continue;
    l.available = false;
    l.last_update_s = now;
    ++marked;
    ++marked_down_;
    if (marked_down_counter_ != nullptr) marked_down_counter_->inc();
  }
  publish();
  return marked;
}

NodeLoad LoadBoard::snapshot(int node) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return loads_[static_cast<std::size_t>(node)];
}

std::vector<NodeLoad> LoadBoard::snapshot_all() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return loads_;
}

}  // namespace sweb::runtime
