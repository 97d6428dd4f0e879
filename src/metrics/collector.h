// Per-request records and experiment-level aggregation.
//
// Every simulated HTTP request leaves one RequestRecord carrying its fate
// (completed / refused / timed out), its servers, and the per-phase timing
// the paper's Table 5 breaks down (preprocess, analysis, redirect, data,
// network).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "metrics/stats.h"

namespace sweb::metrics {

enum class Outcome {
  kPending = 0,  // still in flight when the experiment ended
  kCompleted,
  kRefused,      // connection dropped at an overloaded node
  kTimedOut,     // client gave up waiting
  kError,        // 404 and friends
};

struct RequestRecord {
  std::uint64_t id = 0;
  std::string path;
  double size_bytes = 0.0;

  double start = 0.0;       // client initiates (before DNS)
  double finish = 0.0;      // last byte at the client (completed only)
  Outcome outcome = Outcome::kPending;
  int status_code = 0;

  int first_node = -1;      // DNS-assigned node
  int final_node = -1;      // node that fulfilled the request
  bool redirected = false;
  /// Reassigned by request forwarding (no client-visible 302) rather than
  /// URL redirection. Only meaningful when `redirected` is set.
  bool forwarded = false;
  bool cache_hit = false;
  bool remote_read = false; // document fetched over NFS

  // Phase durations (seconds), summing ≈ finish - start for completions.
  double t_dns = 0.0;
  double t_connect = 0.0;
  double t_queue = 0.0;      // waiting in the listen backlog
  double t_preprocess = 0.0;
  double t_analysis = 0.0;   // SWEB-introduced
  double t_redirect = 0.0;   // SWEB-introduced (client round-trip included)
  double t_data = 0.0;       // disk / NFS fetch
  double t_send = 0.0;       // marshalling + network to client
  /// CPU actually burned serving (fork + marshal bursts, queueing included)
  /// — the observed counterpart of the broker's t_cpu term. Overlaps t_send,
  /// so it is NOT part of the finish - start sum.
  double t_cpu_burst = 0.0;

  [[nodiscard]] double response_time() const noexcept {
    return finish - start;
  }
};

/// Aggregated view of a finished experiment.
struct Summary {
  std::size_t total = 0;
  std::size_t completed = 0;
  std::size_t refused = 0;
  std::size_t timed_out = 0;
  std::size_t errors = 0;
  std::size_t pending = 0;
  std::size_t redirected = 0;
  std::size_t cache_hits = 0;
  std::size_t remote_reads = 0;

  double mean_response = 0.0;  // completed requests only
  double p50_response = 0.0;
  double p95_response = 0.0;
  double max_response = 0.0;

  /// refused + timed out + pending, over everything offered.
  [[nodiscard]] double drop_rate() const noexcept {
    if (total == 0) return 0.0;
    return static_cast<double>(refused + timed_out + pending) /
           static_cast<double>(total);
  }
  [[nodiscard]] double redirect_rate() const noexcept {
    if (total == 0) return 0.0;
    return static_cast<double>(redirected) / static_cast<double>(total);
  }
};

/// Mean per-phase costs over completed requests (Table 5's rows).
struct PhaseBreakdown {
  double dns = 0.0;
  double connect = 0.0;
  double queue = 0.0;
  double preprocess = 0.0;
  double analysis = 0.0;
  double redirect = 0.0;
  double data = 0.0;
  double send = 0.0;
  double total = 0.0;
};

class Collector {
 public:
  /// Opens a record and returns its id.
  std::uint64_t open(std::string path, double size_bytes, double start_time);
  [[nodiscard]] RequestRecord& record(std::uint64_t id);
  [[nodiscard]] const std::vector<RequestRecord>& records() const noexcept {
    return records_;
  }

  /// Marks every record completed after `deadline` seconds of waiting as
  /// timed out (call once, after the simulation drains).
  void apply_timeout(double timeout_s, double experiment_end);

  [[nodiscard]] Summary summarize() const;
  [[nodiscard]] PhaseBreakdown phase_breakdown() const;

  /// Completed requests per second over [t0, t1].
  [[nodiscard]] double completed_rps(double t0, double t1) const;

  void clear() { records_.clear(); }

 private:
  std::vector<RequestRecord> records_;
};

}  // namespace sweb::metrics
