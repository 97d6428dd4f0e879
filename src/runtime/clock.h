// The runtime's injectable time source. The base class is the real steady
// clock; a ManualClock moves only when a test advances it, so a lease, a
// deadline or a link fault can be aged past its threshold without sleeping.
//
// The split: the Clock says when things are due (deadlines, timers, the
// liveness lease, link-fault pacing — all read the board's clock), while
// steady_clock measures how long work took (phase laps, uptime, blocking
// I/O budgets) and is never replaced.
#pragma once

#include <atomic>
#include <chrono>

namespace sweb::runtime {

class Clock {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;

  virtual ~Clock() = default;
  [[nodiscard]] virtual TimePoint now() const {
    return std::chrono::steady_clock::now();
  }
  /// The process-wide real clock (the default everywhere one is taken).
  [[nodiscard]] static const Clock& real() {
    static const Clock clock;
    return clock;
  }
};

/// Starts at the epoch and moves only on advance(). Safe to read from any
/// thread (CGI pool threads read board time); advance from one.
class ManualClock final : public Clock {
 public:
  [[nodiscard]] TimePoint now() const override {
    return TimePoint(TimePoint::duration(ticks_.load()));
  }
  void advance(std::chrono::nanoseconds by) {
    ticks_.fetch_add(
        std::chrono::duration_cast<TimePoint::duration>(by).count());
  }

 private:
  std::atomic<TimePoint::duration::rep> ticks_{0};
};

}  // namespace sweb::runtime
