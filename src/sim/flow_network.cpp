#include "sim/flow_network.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace sweb::sim {

ResourceId FlowNetwork::add_resource(std::string name, double capacity) {
  assert(capacity >= 0.0);
  resources_.push_back(Resource{std::move(name), capacity, 0, 0.0});
  return static_cast<ResourceId>(resources_.size() - 1);
}

void FlowNetwork::set_capacity(ResourceId id, double capacity) {
  assert(id < resources_.size() && capacity >= 0.0);
  advance();
  resources_[id].capacity = capacity;
  reallocate();
}

double FlowNetwork::capacity(ResourceId id) const {
  assert(id < resources_.size());
  return resources_[id].capacity;
}

int FlowNetwork::active_flows(ResourceId id) const {
  assert(id < resources_.size());
  return resources_[id].active;
}

double FlowNetwork::allocated_rate(ResourceId id) const {
  assert(id < resources_.size());
  return resources_[id].allocated;
}

double FlowNetwork::utilization(ResourceId id) const {
  assert(id < resources_.size());
  const Resource& r = resources_[id];
  if (r.capacity <= 0.0) return 0.0;
  return std::clamp(r.allocated / r.capacity, 0.0, 1.0);
}

FlowId FlowNetwork::start_flow(std::vector<ResourceId> path, double work,
                               std::function<void()> on_complete,
                               double rate_cap) {
  assert(work >= 0.0);
  assert(rate_cap > 0.0);
  for ([[maybe_unused]] ResourceId r : path) assert(r < resources_.size());
  assert(!path.empty() || work <= kWorkEpsilon);

  advance();
  const FlowId id = next_flow_id_++;
  flows_.emplace(id, Flow{std::move(path), std::max(work, 0.0), 0.0, rate_cap,
                          std::move(on_complete)});
  reallocate();
  return id;
}

bool FlowNetwork::abort_flow(FlowId id) {
  const auto it = flows_.find(id);
  if (it == flows_.end()) return false;
  advance();
  flows_.erase(it);
  reallocate();
  return true;
}

double FlowNetwork::flow_rate(FlowId id) const {
  const auto it = flows_.find(id);
  return it == flows_.end() ? 0.0 : it->second.rate;
}

double FlowNetwork::remaining_work(FlowId id) const {
  const auto it = flows_.find(id);
  if (it == flows_.end()) return 0.0;
  // Project progress since the last bookkeeping instant.
  const double elapsed = sim_.now() - last_update_;
  return std::max(0.0, it->second.remaining - it->second.rate * elapsed);
}

void FlowNetwork::advance() {
  const double elapsed = sim_.now() - last_update_;
  if (elapsed > 0.0) {
    for (auto& [id, flow] : flows_) {
      flow.remaining = std::max(0.0, flow.remaining - flow.rate * elapsed);
    }
  }
  last_update_ = sim_.now();
}

void FlowNetwork::compute_rates() {
  // Reset bookkeeping.
  for (Resource& r : resources_) {
    r.active = 0;
    r.allocated = 0.0;
  }

  std::vector<Flow*> active;
  active.reserve(flows_.size());
  for (auto& [id, flow] : flows_) {
    flow.rate = 0.0;
    active.push_back(&flow);
    for (ResourceId r : flow.path) ++resources_[r].active;
  }
  if (active.empty()) return;

  // Progressive filling. `residual` is the unassigned capacity, `unfrozen`
  // the count of still-growing flows per resource.
  std::vector<double> residual(resources_.size());
  std::vector<int> unfrozen(resources_.size(), 0);
  for (std::size_t r = 0; r < resources_.size(); ++r) {
    residual[r] = resources_[r].capacity;
  }
  std::vector<bool> frozen(active.size(), false);
  std::size_t live = 0;
  for (std::size_t f = 0; f < active.size(); ++f) {
    if (active[f]->path.empty()) {
      // A path-less flow (zero work) needs no bandwidth.
      frozen[f] = true;
      continue;
    }
    ++live;
    for (ResourceId r : active[f]->path) ++unfrozen[r];
  }

  const std::size_t max_rounds = active.size() + resources_.size() + 2;
  for (std::size_t round = 0; live > 0 && round < max_rounds; ++round) {
    // The uniform rate increment every unfrozen flow can still absorb.
    double delta = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < resources_.size(); ++r) {
      if (unfrozen[r] > 0) {
        delta = std::min(delta, residual[r] / unfrozen[r]);
      }
    }
    for (std::size_t f = 0; f < active.size(); ++f) {
      if (!frozen[f]) {
        delta = std::min(delta, active[f]->rate_cap - active[f]->rate);
      }
    }
    delta = std::max(delta, 0.0);

    for (std::size_t f = 0; f < active.size(); ++f) {
      if (frozen[f]) continue;
      active[f]->rate += delta;
      for (ResourceId r : active[f]->path) residual[r] -= delta;
    }

    // Freeze flows that hit their cap or sit on a saturated resource.
    for (std::size_t f = 0; f < active.size(); ++f) {
      if (frozen[f]) continue;
      bool freeze = active[f]->rate >= active[f]->rate_cap * (1.0 - 1e-12);
      if (!freeze) {
        for (ResourceId r : active[f]->path) {
          const double slack_eps =
              1e-12 * std::max(resources_[r].capacity, 1.0);
          if (residual[r] <= slack_eps) {
            freeze = true;
            break;
          }
        }
      }
      if (freeze) {
        frozen[f] = true;
        --live;
        for (ResourceId r : active[f]->path) --unfrozen[r];
      }
    }
  }
  assert(live == 0 && "progressive filling failed to converge");

  for (Flow* flow : active) {
    for (ResourceId r : flow->path) resources_[r].allocated += flow->rate;
  }
}

void FlowNetwork::reallocate() {
  compute_rates();

  if (completion_event_ != 0) {
    sim_.cancel(completion_event_);
    completion_event_ = 0;
  }

  // Earliest completion among active flows. Drained flows (work <= eps)
  // complete "now"; starved flows (rate 0, e.g. on a dead node) never do.
  // A completion needing less than kMinDt is clamped up to it: at large
  // simulated times a sub-resolution dt would round to zero elapsed time
  // and the completion event would re-fire forever without progress.
  double min_dt = std::numeric_limits<double>::infinity();
  for (const auto& [id, flow] : flows_) {
    if (flow.remaining <= kWorkEpsilon) {
      min_dt = 0.0;
      break;
    }
    if (flow.rate > 0.0) {
      min_dt = std::min(min_dt, std::max(flow.remaining / flow.rate, kMinDt));
    }
  }
  if (!std::isfinite(min_dt)) return;

  completion_event_ = sim_.schedule_in(min_dt, [this] {
    completion_event_ = 0;
    advance();
    // Retire every drained flow before invoking any callback so callbacks
    // observe consistent loads (and may start new flows reentrantly).
    std::vector<std::function<void()>> done;
    for (auto it = flows_.begin(); it != flows_.end();) {
      // Retire when drained, or when the residue would complete within the
      // clock resolution anyway (floating-point slack at large times).
      if (it->second.remaining <= kWorkEpsilon ||
          it->second.remaining <= it->second.rate * kMinDt) {
        if (it->second.on_complete) {
          done.push_back(std::move(it->second.on_complete));
        }
        it = flows_.erase(it);
      } else {
        ++it;
      }
    }
    reallocate();
    for (auto& fn : done) fn();
  });
}

}  // namespace sweb::sim
