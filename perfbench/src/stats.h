// The benchmark's own statistics: the percentile rule, CPU subtraction and
// open-loop due-time accounting. Each is checked by run_self_checks() at the
// start of every run, so a broken statistic fails the run instead of
// producing plausible numbers.
#pragma once

#include <pthread.h>

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// The percentile rule: of p50, p90, p99, p99.9 and p99.99, the highest
/// that has at least ten samples beyond it (0 when not even p50 does).
[[nodiscard]] double highest_supported_quantile(std::size_t samples);

/// Nearest-rank q-quantile of `values` (reorders them); 0 when empty.
[[nodiscard]] double quantile(std::vector<std::uint32_t>& values, double q);

/// Median of `values`; 0 when empty.
[[nodiscard]] double median(std::vector<double> values);

/// Server CPU per completed request: the process's CPU minus what the
/// client threads spent, in microseconds. nullopt when nothing completed or
/// the clients claim more CPU than the whole process (a broken clock).
[[nodiscard]] std::optional<double> server_cpu_us_per_req(
    double process_cpu_s, double client_cpu_s, std::uint64_t completed);

/// This process's user + system CPU seconds (getrusage).
[[nodiscard]] double process_cpu_seconds();

/// CPU seconds of one live thread of this process (its
/// CLOCK_THREAD_CPUTIME_ID, readable from any thread); -1 on error.
[[nodiscard]] double thread_cpu_seconds(pthread_t thread);

/// Open-loop arrival bookkeeping on a nanosecond clock. Arrivals come due
/// on a fixed schedule whatever the server does; one that comes due while
/// every connection is busy waits in the backlog, and its latency still
/// counts from its due time — a stall is charged to every request it
/// delays. How late the generator noticed each arrival is recorded apart,
/// so a slow generator shows instead of hiding inside server latency.
class OpenLoopSchedule {
 public:
  using Ns = std::int64_t;
  struct Arrival {
    std::uint64_t seq = 0;  // index into the request stream
    Ns due = 0;
  };

  /// Arrivals at start + g1, start + g1 + g2, ... while before `end`.
  OpenLoopSchedule(std::function<Ns()> next_gap, Ns start, Ns end);

  /// Moves every arrival due at or before `now` into the backlog.
  void collect(Ns now);
  [[nodiscard]] bool has_backlog() const noexcept { return !backlog_.empty(); }
  /// The oldest waiting arrival, removed from the backlog.
  [[nodiscard]] Arrival pop();
  /// Due time of the next arrival not yet collected.
  [[nodiscard]] Ns next_due() const noexcept { return next_due_; }
  [[nodiscard]] bool exhausted() const noexcept { return next_due_ >= end_; }
  [[nodiscard]] std::uint64_t scheduled() const noexcept { return seq_; }
  /// Generator lateness per collected arrival (now - due), nanoseconds.
  [[nodiscard]] std::vector<std::uint32_t>& late_ns() noexcept {
    return late_ns_;
  }

  [[nodiscard]] static Ns latency(Ns due, Ns done) noexcept {
    return done - due;
  }

 private:
  std::function<Ns()> next_gap_;
  Ns next_due_;
  Ns end_;
  std::uint64_t seq_ = 0;
  std::deque<Arrival> backlog_;
  std::vector<std::uint32_t> late_ns_;
};

/// Checks the three statistics above on known inputs. False with a reason
/// in `why` on the first mismatch.
[[nodiscard]] bool run_self_checks(std::string& why);

}  // namespace perfbench
