// Request-lifecycle phase taxonomy + per-request PhaseClock.
//
// The paper's scheduling argument decomposes service time into
// t_redirection + t_data + t_cpu (§3, Table 5), but the runtime only ever
// measured end to end — we could see THAT the broker mispredicted, never
// WHICH phase the model got wrong. This module fixes the vocabulary: every
// request moving through a NodeServer is decomposed into eight phases,
//
//   queue_wait    accepted connection waiting for the loop's attention
//   header_read   socket reads/waits until the request head+body arrived
//   parse         RequestParser::feed time
//   broker_decide request analysis: board snapshot + choose_node + audit
//                 bookkeeping + the residual of the processing step, so
//                 the eight phases tile the total with no gaps
//   doc_read      static document fetch (DocStore lookup + body assembly)
//   cgi_exec      dynamic handler execution
//   write         serializing + writing the response to the socket
//   total         queue_wait + wall time from request start to last byte
//
// and each phase lands in a streaming log-bucketed histogram
// (log_latency_bounds(): power-of-√2 ladder, 10 µs – 60 s) — bounded
// memory, lock-free recording, mergeable across nodes — which replaces
// stored-sample latency tracking as the runtime's percentile engine.
//
// A PhaseClock is one request's scratchpad: the worker thread accumulates
// seconds into it as the request advances, then flushes the vector into the
// node's per-phase histograms (and, for slow or chaos-faulted requests,
// into the slow-request forensics log). It is deliberately a plain value
// type touched by a single thread — zero synchronization on the hot path.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

namespace sweb::obs {

enum class Phase {
  kQueueWait = 0,
  kHeaderRead,
  kParse,
  kBrokerDecide,
  kDocRead,
  kCgiExec,
  kWrite,
  kTotal,
};

inline constexpr std::size_t kPhaseCount = 8;

/// Stable wire name ("queue_wait", ..., "total") — keys the histogram
/// names (`node.N.phase.<name>`), the /sweb/status phases object, and the
/// slow-log JSONL records.
[[nodiscard]] const char* phase_name(Phase phase) noexcept;

/// All phases in recording order (kQueueWait .. kTotal).
[[nodiscard]] const std::array<Phase, kPhaseCount>& all_phases() noexcept;

/// Upper bounds for the streaming latency histograms: a power-of-√2 ladder
/// from 10 µs to just past 60 s (~46 buckets). Successive bounds differ by
/// a factor of √2, so histogram_quantile's worst-case error is under half
/// a bucket ratio (~41% of the value) — tight enough to rank phases and
/// spot regressions with a few hundred bytes per histogram.
[[nodiscard]] std::vector<double> log_latency_bounds();

/// One request's phase durations, in seconds. A phase is "touched" once
/// add() ran for it — untouched phases (e.g. cgi_exec on a static request)
/// are skipped when recording, mirroring how the paper's Table 5 averages
/// only the requests that paid each cost.
class PhaseClock {
 public:
  void add(Phase phase, double seconds) noexcept {
    const auto i = static_cast<std::size_t>(phase);
    seconds_[i] += seconds;
    touched_[i] = true;
  }

  [[nodiscard]] bool touched(Phase phase) const noexcept {
    return touched_[static_cast<std::size_t>(phase)];
  }
  [[nodiscard]] double seconds(Phase phase) const noexcept {
    return seconds_[static_cast<std::size_t>(phase)];
  }

  /// Sum of every touched phase except kTotal — the decomposed view that
  /// the slow log cross-checks against the measured total (±5%).
  [[nodiscard]] double measured_sum() const noexcept {
    double sum = 0.0;
    for (std::size_t i = 0; i + 1 < kPhaseCount; ++i) sum += seconds_[i];
    return sum;
  }

  void reset() noexcept {
    seconds_.fill(0.0);
    touched_.fill(false);
  }

 private:
  std::array<double, kPhaseCount> seconds_{};
  std::array<bool, kPhaseCount> touched_{};
};

}  // namespace sweb::obs
