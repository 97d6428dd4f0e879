// Per-layer replays for the traced run: each times calls into one layer's
// public functions, fed with the workload's own keys, sizes and request
// rate, from outside the program.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {

struct LayerInput {
  Rig& rig;
  /// The workload's own request stream (client 0's).
  const std::vector<RequestSpec>& stream;
  /// Requests per second the window sustained (timer-heap and overload
  /// replays run at this rate).
  double rps = 0.0;
  /// Latencies the window observed (histogram replay values).
  const std::vector<std::uint32_t>& latency_ns;
};

/// Adds the replayed metrics (board.req_ns.*, cache.*_ns, docs.find_ns,
/// http.*_ns, reactor.*, overload.evaluate_ns, obs.hist_observe_ns) to
/// `out`.
void measure_layers(const LayerInput& input,
                    std::map<std::string, double>& out);

}  // namespace perfbench
