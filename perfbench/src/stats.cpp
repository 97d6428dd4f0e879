#include "stats.h"

#include <pthread.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <ctime>
#include <thread>

namespace perfbench {

namespace {

constexpr std::array<double, 5> kQuantileLadder{0.5, 0.9, 0.99, 0.999,
                                                0.9999};

[[nodiscard]] bool near(double a, double b, double tolerance) {
  return std::fabs(a - b) <= tolerance;
}

bool check_percentile_rule(std::string& why) {
  struct Case {
    std::size_t samples;
    double expected;
  };
  constexpr std::array<Case, 7> cases{{{0, 0.0},
                                       {19, 0.0},
                                       {20, 0.5},
                                       {999, 0.9},
                                       {1000, 0.99},
                                       {10000, 0.999},
                                       {100000, 0.9999}}};
  for (const Case& c : cases) {
    if (highest_supported_quantile(c.samples) != c.expected) {
      why = "percentile rule: " + std::to_string(c.samples) +
            " samples should support q=" + std::to_string(c.expected);
      return false;
    }
  }
  std::vector<std::uint32_t> values(100);
  for (std::uint32_t i = 0; i < 100; ++i) values[i] = 100 - i;  // 100..1
  if (quantile(values, 0.5) != 50 || quantile(values, 0.99) != 99 ||
      quantile(values, 1.0) != 100) {
    why = "percentile rule: nearest-rank quantile of 1..100 is wrong";
    return false;
  }
  return true;
}

bool check_open_loop_accounting(std::string& why) {
  using Ns = OpenLoopSchedule::Ns;
  constexpr Ns kMs = 1'000'000;
  // Arrivals every 1 ms (due 1, 2, 3, 4 ms) into ONE connection whose
  // service takes 1.5 ms: the backlog grows, and latency from the due time
  // must grow with it — 1.5, 2.0, 2.5, 3.0 ms. Timing from the send would
  // report 1.5 ms four times (coordinated omission).
  OpenLoopSchedule schedule([] { return kMs; }, 0, 4 * kMs + kMs / 2);
  std::vector<Ns> latencies;
  bool busy = false;
  Ns free_at = 0;
  OpenLoopSchedule::Arrival current;
  while (!schedule.exhausted() || schedule.has_backlog() || busy) {
    Ns now = schedule.exhausted() ? INT64_MAX : schedule.next_due();
    if (busy) now = std::min(now, free_at);
    if (busy && free_at <= now) {
      latencies.push_back(OpenLoopSchedule::latency(current.due, now));
      busy = false;
    }
    schedule.collect(now);
    if (!busy && schedule.has_backlog()) {
      current = schedule.pop();
      busy = true;
      free_at = now + 3 * kMs / 2;
    }
  }
  const std::vector<Ns> expected{3 * kMs / 2, 2 * kMs, 5 * kMs / 2, 3 * kMs};
  if (latencies != expected) {
    why = "open loop: latency is not timed from the due time";
    return false;
  }
  for (const std::uint32_t late : schedule.late_ns()) {
    if (late != 0) {
      why = "open loop: an on-time generator recorded lateness";
      return false;
    }
  }
  // A generator that wakes at 2.5 ms noticed the arrivals due at 1 and 2 ms
  // late by 1.5 and 0.5 ms, in order.
  OpenLoopSchedule late([] { return kMs; }, 0, 3 * kMs);
  late.collect(5 * kMs / 2);
  const std::vector<std::uint32_t> expected_late{3 * kMs / 2, kMs / 2};
  if (late.late_ns() != expected_late || late.pop().due != kMs ||
      late.pop().due != 2 * kMs || late.has_backlog()) {
    why = "open loop: generator lateness is not measured against due time";
    return false;
  }
  return true;
}

bool check_cpu_subtraction(std::string& why) {
  const auto exact = server_cpu_us_per_req(3.0, 1.2, 100000);
  if (!exact || !near(*exact, 18.0, 1e-9) ||
      server_cpu_us_per_req(1.0, 1.5, 10).has_value() ||
      server_cpu_us_per_req(1.0, 0.5, 0).has_value()) {
    why = "cpu subtraction: arithmetic on known inputs is wrong";
    return false;
  }
  // Live: a helper thread burns ~30 ms of CPU while this thread only waits.
  // The process's CPU minus the helper's own clock is then near zero — the
  // same subtraction the benchmark applies to its client threads.
  const double process_before = process_cpu_seconds();
  double helper_cpu = -1.0;
  std::thread helper([&helper_cpu] {
    volatile std::uint64_t sink = 0;
    const double start = thread_cpu_seconds(pthread_self());
    while (thread_cpu_seconds(pthread_self()) - start < 0.030) {
      for (int i = 0; i < 10000; ++i) sink = sink * 6364136223846793005ULL + 1;
    }
    helper_cpu = thread_cpu_seconds(pthread_self()) - start;
  });
  helper.join();
  const double process_cpu = process_cpu_seconds() - process_before;
  const double rest = process_cpu - helper_cpu;
  if (helper_cpu < 0.030 || rest < -0.002 || rest > 0.010) {
    why = "cpu subtraction: process " + std::to_string(process_cpu) +
          " s minus thread " + std::to_string(helper_cpu) + " s is not ~0";
    return false;
  }
  return true;
}

}  // namespace

double highest_supported_quantile(std::size_t samples) {
  double best = 0.0;
  for (const double q : kQuantileLadder) {
    // Samples strictly beyond the q-quantile: n * (1 - q), rounded down.
    const auto beyond = static_cast<std::size_t>(
        std::floor(static_cast<double>(samples) * (1.0 - q) + 1e-6));
    if (beyond >= 10) best = q;
  }
  return best;
}

double quantile(std::vector<std::uint32_t>& values, double q) {
  if (values.empty()) return 0.0;
  const auto n = values.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  const auto it = values.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(values.begin(), it, values.end());
  return static_cast<double>(*it);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

std::optional<double> server_cpu_us_per_req(double process_cpu_s,
                                            double client_cpu_s,
                                            std::uint64_t completed) {
  if (completed == 0 || client_cpu_s > process_cpu_s) return std::nullopt;
  return (process_cpu_s - client_cpu_s) * 1e6 /
         static_cast<double>(completed);
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double thread_cpu_seconds(pthread_t thread) {
  clockid_t clock{};
  if (pthread_getcpuclockid(thread, &clock) != 0) return -1.0;
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return -1.0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

OpenLoopSchedule::OpenLoopSchedule(std::function<Ns()> next_gap, Ns start,
                                   Ns end)
    : next_gap_(std::move(next_gap)), end_(end) {
  next_due_ = start + next_gap_();
}

void OpenLoopSchedule::collect(Ns now) {
  while (next_due_ < end_ && next_due_ <= now) {
    backlog_.push_back(Arrival{seq_++, next_due_});
    late_ns_.push_back(static_cast<std::uint32_t>(
        std::min<Ns>(now - next_due_, UINT32_MAX)));
    next_due_ += next_gap_();
  }
}

OpenLoopSchedule::Arrival OpenLoopSchedule::pop() {
  const Arrival front = backlog_.front();
  backlog_.pop_front();
  return front;
}

bool run_self_checks(std::string& why) {
  return check_percentile_rule(why) && check_open_loop_accounting(why) &&
         check_cpu_subtraction(why);
}

}  // namespace perfbench
