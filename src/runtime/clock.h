// The runtime's injectable time source. The base class is the real steady
// clock; a ManualClock moves only when a test advances it, so a lease or
// an expiry can be aged past its threshold without sleeping.
#pragma once

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

/// Starts at the epoch and moves only on advance(); single-threaded use.
class ManualClock final : public Clock {
 public:
  [[nodiscard]] TimePoint now() const override { return now_; }
  void advance(std::chrono::nanoseconds by) { now_ += by; }

 private:
  TimePoint now_{};
};

}  // namespace sweb::runtime
