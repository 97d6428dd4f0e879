#include "core/load.h"

#include <algorithm>
#include <cassert>

namespace sweb::core {

void LoadBoard::update(int node, const LoadVector& v) {
  assert(node >= 0 && node < num_nodes());
  Entry& e = entries_[static_cast<std::size_t>(node)];
  e.v = v;
  e.inflation = 0.0;
}

void LoadBoard::note_redirect(int node, double delta) {
  assert(node >= 0 && node < num_nodes());
  entries_[static_cast<std::size_t>(node)].inflation += delta;
}

LoadVector LoadBoard::view(int node) const {
  assert(node >= 0 && node < num_nodes());
  const Entry& e = entries_[static_cast<std::size_t>(node)];
  LoadVector v = e.v;
  if (e.inflation > 0.0) {
    // Each queued redirect counts as Δ extra load, scaled by the load it
    // would land on (at least one job's worth).
    v.cpu_run_queue += e.inflation * std::max(1.0, v.cpu_run_queue);
  }
  return v;
}

bool LoadBoard::responsive(int node, double now) const {
  assert(node >= 0 && node < num_nodes());
  const Entry& e = entries_[static_cast<std::size_t>(node)];
  return e.v.timestamp >= 0.0 && now - e.v.timestamp <= timeout_;
}

LoadSystem::LoadSystem(cluster::Cluster& cluster, LoaddParams params,
                       util::Rng& rng)
    : cluster_(cluster), params_(params), rng_(rng) {
  const int p = cluster_.num_nodes();
  boards_.reserve(static_cast<std::size_t>(p));
  for (int i = 0; i < p; ++i) {
    boards_.emplace_back(p, params_.staleness_timeout_s);
  }
  daemons_.reserve(static_cast<std::size_t>(p));
  for (int i = 0; i < p; ++i) {
    auto task = std::make_unique<sim::PeriodicTask>(
        cluster_.sim(), params_.period_s, [this, i] { tick(i); });
    task->set_jitter(&rng_, params_.jitter_fraction);
    daemons_.push_back(std::move(task));
  }
}

void LoadSystem::start() {
  for (std::size_t i = 0; i < daemons_.size(); ++i) {
    // Stagger the first round so the broadcasts don't collide in lockstep.
    daemons_[i]->start(rng_.uniform(0.0, params_.period_s));
  }
}

void LoadSystem::stop() {
  for (auto& d : daemons_) d->stop();
}

LoadBoard& LoadSystem::board(int node) {
  assert(node >= 0 && node < static_cast<int>(boards_.size()));
  return boards_[static_cast<std::size_t>(node)];
}

LoadVector LoadSystem::sample(int node) const {
  LoadVector v;
  v.cpu_run_queue = cluster_.cpu_load_average(node);
  v.cpu_utilization = cluster_.cpu_utilization(node);
  v.disk_queue = cluster_.disk_queue(node);
  v.disk_utilization = cluster_.disk_utilization(node);
  v.net_utilization = cluster_.net_utilization(node);
  v.ext_utilization = cluster_.external_utilization(node);
  v.timestamp = cluster_.sim().now();
  return v;
}

int LoadSystem::leader_of(int node) const noexcept {
  if (!params_.hierarchical) return node;
  const int g = std::max(1, params_.group_size);
  return (node / g) * g;
}

void LoadSystem::message(int from, int to, std::function<void()> deliver) {
  ++broadcasts_;
  // Send cost at the origin...
  cluster_.cpu_burst(from, cluster::CpuUse::kLoadd, params_.msg_ops, [] {});
  // ...the wire transfer, then receive cost and the delivery action.
  cluster_.send_internal(from, to,
                         params_.msg_bytes, [this, to,
                                             deliver = std::move(deliver)] {
    if (!cluster_.available(to)) return;
    cluster_.cpu_burst(to, cluster::CpuUse::kLoadd, params_.msg_ops,
                       std::move(deliver));
  });
}

void LoadSystem::tick(int node) {
  if (!cluster_.available(node)) return;  // a departed node falls silent

  // Sampling costs real CPU (the ~0.2% monitoring overhead of §4.3).
  cluster_.cpu_burst(node, cluster::CpuUse::kLoadd, params_.sample_ops,
                     [this, node] {
    const LoadVector v = sample(node);
    board(node).update(node, v);  // own entry is always fresh
    if (params_.hierarchical) {
      tick_hierarchical(node, v);
    } else {
      tick_flat(node, v);
    }
  });
}

void LoadSystem::tick_flat(int node, const LoadVector& v) {
  for (int peer = 0; peer < cluster_.num_nodes(); ++peer) {
    if (peer == node) continue;
    message(node, peer,
            [this, node, peer, v] { board(peer).update(node, v); });
  }
}

void LoadSystem::tick_hierarchical(int node, const LoadVector& v) {
  const int p = cluster_.num_nodes();
  const int g = std::max(1, params_.group_size);
  const int my_leader = leader_of(node);

  if (node != my_leader) {
    // Member: one report up to the leader.
    message(node, my_leader,
            [this, node, my_leader, v] { board(my_leader).update(node, v); });
    return;
  }

  // Leader: relay the freshest member details within the group...
  const int group_end = std::min(p, my_leader + g);
  for (int member = my_leader; member < group_end; ++member) {
    for (int sibling = my_leader; sibling < group_end; ++sibling) {
      if (sibling == node || sibling == member) continue;
      const LoadVector detail = board(node).view(member);
      if (detail.timestamp < 0.0) continue;  // never heard from
      message(node, sibling, [this, sibling, member, detail] {
        board(sibling).update(member, detail);
      });
    }
  }

  // ...and exchange a group aggregate with the other leaders, who apply it
  // to every node of this group and relay it to their own members.
  LoadVector aggregate;
  int contributors = 0;
  for (int member = my_leader; member < group_end; ++member) {
    const LoadVector m = board(node).view(member);
    if (m.timestamp < 0.0) continue;
    aggregate.cpu_run_queue += m.cpu_run_queue;
    aggregate.cpu_utilization += m.cpu_utilization;
    aggregate.disk_queue += m.disk_queue;
    aggregate.disk_utilization += m.disk_utilization;
    aggregate.net_utilization += m.net_utilization;
    aggregate.ext_utilization += m.ext_utilization;
    ++contributors;
  }
  if (contributors == 0) return;
  aggregate.cpu_run_queue /= contributors;
  aggregate.cpu_utilization /= contributors;
  aggregate.disk_queue =
      static_cast<int>(aggregate.disk_queue / contributors);
  aggregate.disk_utilization /= contributors;
  aggregate.net_utilization /= contributors;
  aggregate.ext_utilization /= contributors;
  aggregate.timestamp = cluster_.sim().now();

  const auto apply_group = [this](int at, int from_leader, int span,
                                  const LoadVector& mean) {
    const int end = std::min(board(at).num_nodes(), from_leader + span);
    for (int n = from_leader; n < end; ++n) board(at).update(n, mean);
  };

  for (int other = 0; other < p; other += g) {
    if (other == my_leader) continue;
    message(node, other,
            [this, other, my_leader, g, aggregate, apply_group] {
      apply_group(other, my_leader, g, aggregate);
      // Relay down to the other leader's members.
      const int end = std::min(cluster_.num_nodes(), other + g);
      for (int member = other + 1; member < end; ++member) {
        message(other, member,
                [this, member, my_leader, g, aggregate, apply_group] {
          apply_group(member, my_leader, g, aggregate);
        });
      }
    });
  }
}

}  // namespace sweb::core
