#include "runtime/chaos.h"

#include <algorithm>

namespace sweb::runtime {

namespace {

using namespace std::chrono_literals;

/// Pacing granularity: with a throttle active, transfers are clamped to at
/// most this much of a second's budget per operation so the byte-rate is
/// enforced smoothly rather than in one burst followed by a long wait.
constexpr int kThrottleSlicesPerSecond = 8;
constexpr std::chrono::milliseconds kThrottleSlice{1000 /
                                                   kThrottleSlicesPerSecond};

}  // namespace

bool FaultPlan::active() const noexcept {
  return read_delay > 0ms || write_delay > 0ms || first_read_stall > 0ms ||
         throttle_bytes_per_sec > 0 || torn_write_max_bytes > 0 ||
         reset_probability > 0.0 || reset_first_connections > 0;
}

ConnectionFaults::ConnectionFaults(const FaultPlan& plan, std::uint64_t seed,
                                   bool doomed,
                                   ChaosDirector* director) noexcept
    : plan_(plan), rng_(seed), doomed_(doomed), director_(director) {}

std::chrono::milliseconds ConnectionFaults::jittered(
    std::chrono::milliseconds base) {
  if (base <= 0ms || plan_.delay_jitter <= 0ms) return base;
  std::uniform_int_distribution<std::int64_t> extra(
      0, plan_.delay_jitter.count() - 1);
  return base + std::chrono::milliseconds(extra(rng_));
}

void ConnectionFaults::charge(OpGate& gate, std::chrono::milliseconds delay,
                              TimePoint now) noexcept {
  gate.charged = true;
  gate.ready_at = std::max(now, paced_until_) + delay;
}

ConnectionFaults::Gate ConnectionFaults::clamp(OpGate& gate, std::size_t want,
                                               TimePoint now) noexcept {
  Gate verdict;
  verdict.budget = want;
  if (plan_.throttle_bytes_per_sec == 0 || want == 0) return verdict;
  verdict.budget = std::min(
      want, plan_.throttle_bytes_per_sec / kThrottleSlicesPerSecond);
  if (verdict.budget > 0) return verdict;
  if (!gate.slice_paid) {
    gate.slice_paid = true;
    gate.ready_at = now + kThrottleSlice;
    verdict.retry_at = gate.ready_at;
    return verdict;
  }
  verdict.budget = 1;
  return verdict;
}

ConnectionFaults::Gate ConnectionFaults::gate_read(std::size_t want,
                                                   TimePoint now) {
  if (!read_gate_.charged) {
    std::chrono::milliseconds delay = plan_.read_delay;
    if (!stalled_ && plan_.first_read_stall > 0ms) {
      stalled_ = true;
      delay += plan_.first_read_stall;
    }
    charge(read_gate_, jittered(delay), now);
  }
  if (now < read_gate_.ready_at) return Gate{read_gate_.ready_at};
  return clamp(read_gate_, want, now);
}

ConnectionFaults::Gate ConnectionFaults::gate_write(std::size_t want,
                                                    TimePoint now) {
  if (!write_gate_.charged) {
    charge(write_gate_,
           response_started_ ? 0ms : jittered(plan_.write_delay), now);
  }
  if (now < write_gate_.ready_at) return Gate{write_gate_.ready_at};
  if (doomed_ && bytes_written_ >= plan_.reset_after_bytes) {
    doomed_ = false;  // fire once
    if (director_ != nullptr) director_->note_reset();
    Gate verdict;
    verdict.reset = true;
    return verdict;
  }
  Gate verdict = clamp(write_gate_, want, now);
  if (plan_.torn_write_max_bytes > 0) {
    verdict.budget = std::min(verdict.budget, plan_.torn_write_max_bytes);
  }
  // A doomed connection never writes past its reset point: the next op
  // fires the RST exactly there, mid-stream.
  if (doomed_ && plan_.reset_after_bytes > bytes_written_) {
    verdict.budget = std::min<std::size_t>(
        verdict.budget,
        static_cast<std::size_t>(plan_.reset_after_bytes - bytes_written_));
  }
  return verdict;
}

void ConnectionFaults::finish(OpGate& gate, std::size_t bytes,
                              TimePoint now) noexcept {
  gate = OpGate{};
  if (plan_.throttle_bytes_per_sec == 0 || bytes == 0) return;
  const auto debt = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double>(
          static_cast<double>(bytes) /
          static_cast<double>(plan_.throttle_bytes_per_sec)));
  paced_until_ = std::max(paced_until_, now) + debt;
}

void ConnectionFaults::note_read(std::size_t bytes, TimePoint now) noexcept {
  if (bytes > 0) response_started_ = false;  // a new request: a new turn
  finish(read_gate_, bytes, now);
}

void ConnectionFaults::note_write(std::size_t bytes, TimePoint now) noexcept {
  if (bytes > 0) response_started_ = true;
  bytes_written_ += bytes;
  finish(write_gate_, bytes, now);
}

void ChaosDirector::configure(FaultPlan plan, std::uint64_t seed) {
  const std::lock_guard<std::mutex> lock(mutex_);
  plan_ = plan;
  rng_.seed(seed);
  admitted_ = 0;
  enabled_ = plan.active();
}

bool ChaosDirector::enabled() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return enabled_;
}

std::shared_ptr<ConnectionFaults> ChaosDirector::admit() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!enabled_) return nullptr;
  const std::uint64_t ordinal = admitted_++;
  bool doomed =
      ordinal < static_cast<std::uint64_t>(
                    std::max(0, plan_.reset_first_connections));
  if (!doomed && plan_.reset_probability > 0.0) {
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    doomed = coin(rng_) < plan_.reset_probability;
  }
  const std::uint64_t seed = rng_();
  faulted_.fetch_add(1, std::memory_order_relaxed);
  return std::make_shared<ConnectionFaults>(plan_, seed, doomed, this);
}

}  // namespace sweb::runtime
