// Max-min fair resource sharing for the discrete-event simulator.
//
// A FlowNetwork holds a set of capacitated resources (a CPU's ops/s, a disk
// channel's bytes/s, a NIC or a shared Ethernet bus's bytes/s). A *flow* is a
// finite amount of work pushed through an ordered set of resources
// simultaneously — e.g. an NFS read is one flow over {remote disk, remote
// NIC, local NIC}; a response to a client is one flow over {server NIC,
// client's Internet link}.
//
// Rates are allocated by progressive filling (water-filling): all flows grow
// at the same rate until a resource saturates or a flow hits its own rate
// cap, those freeze, and the rest keep growing. This is the classic max-min
// fair allocation and reproduces exactly the contention effects the paper
// reasons about: a shared 10 Mb/s Ethernet degrades as flows pile up, a
// fat-tree only contends at the endpoints, a disk channel's bandwidth is
// divided among concurrent requests.
//
// Allocations are recomputed whenever the flow set or a capacity changes;
// the next completion is scheduled as a simulation event.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/simulation.h"

namespace sweb::sim {

using ResourceId = std::uint32_t;
using FlowId = std::uint64_t;

/// Invalid flow handle; returned rates/queries on it are zero.
inline constexpr FlowId kNoFlow = 0;

class FlowNetwork {
 public:
  explicit FlowNetwork(Simulation& sim) : sim_(sim) {}
  FlowNetwork(const FlowNetwork&) = delete;
  FlowNetwork& operator=(const FlowNetwork&) = delete;

  /// Registers a resource with the given capacity (work units per second).
  ResourceId add_resource(std::string name, double capacity);

  /// Changes a resource's capacity (0 models an unavailable node). In-flight
  /// flows keep their accumulated progress and are re-rated.
  void set_capacity(ResourceId id, double capacity);

  [[nodiscard]] double capacity(ResourceId id) const;

  /// Number of flows currently traversing the resource — the "channel load"
  /// the paper's loadd reports for disks and networks.
  [[nodiscard]] int active_flows(ResourceId id) const;

  /// Sum of rates currently allocated on the resource (<= capacity).
  [[nodiscard]] double allocated_rate(ResourceId id) const;

  /// Fraction of capacity in use right now, in [0, 1]; 0 for capacity 0.
  [[nodiscard]] double utilization(ResourceId id) const;

  /// Starts a flow of `work` units over `path`. `on_complete` fires (as a
  /// simulation event at the completion instant) when the work drains.
  /// `rate_cap` bounds the flow's own rate (e.g. a modem client can't exceed
  /// its line speed no matter how idle the server NIC is). Zero-work flows
  /// complete at the current time. Paths may be empty only for zero work.
  FlowId start_flow(std::vector<ResourceId> path, double work,
                    std::function<void()> on_complete,
                    double rate_cap = kUncapped);

  /// Aborts an in-flight flow; its completion callback never fires.
  /// Returns false if the flow already completed or never existed.
  bool abort_flow(FlowId id);

  /// Instantaneous rate of the flow (0 if finished/unknown or starved).
  [[nodiscard]] double flow_rate(FlowId id) const;

  /// Remaining work of the flow (0 if finished/unknown).
  [[nodiscard]] double remaining_work(FlowId id) const;

  [[nodiscard]] std::size_t active_flow_count() const noexcept {
    return flows_.size();
  }

  static constexpr double kUncapped = 1e300;

 private:
  struct Resource {
    std::string name;
    double capacity = 0.0;
    int active = 0;            // flows traversing this resource
    double allocated = 0.0;    // sum of flow rates on this resource
  };
  struct Flow {
    std::vector<ResourceId> path;
    double remaining = 0.0;
    double rate = 0.0;
    double rate_cap = kUncapped;
    std::function<void()> on_complete;
  };

  /// Applies progress rate*(now - last_update_) to every flow.
  void advance();

  /// Recomputes the max-min fair allocation and (re)schedules the next
  /// completion event. Also retires flows whose work just drained.
  void reallocate();

  /// Runs the progressive-filling algorithm, writing flow rates and
  /// per-resource allocations.
  void compute_rates();

  Simulation& sim_;
  std::vector<Resource> resources_;
  std::unordered_map<FlowId, Flow> flows_;
  FlowId next_flow_id_ = 1;
  Time last_update_ = 0.0;
  EventId completion_event_ = 0;

  static constexpr double kWorkEpsilon = 1e-7;
  // Simulated-clock resolution: completions are never scheduled closer than
  // this, and residues worth less than this much time are retired outright.
  static constexpr double kMinDt = 1e-9;
};

}  // namespace sweb::sim
