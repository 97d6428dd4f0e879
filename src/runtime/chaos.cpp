#include "runtime/chaos.h"

#include <algorithm>
#include <thread>

namespace sweb::runtime {

namespace {

using namespace std::chrono_literals;

/// Pacing granularity: with a throttle active, transfers are clamped to at
/// most this much of a second's budget per operation so the byte-rate is
/// enforced smoothly rather than in one burst followed by a long sleep.
constexpr int kThrottleSlicesPerSecond = 8;

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
  if (plan_.delay_jitter <= 0ms) return base;
  std::uniform_int_distribution<std::int64_t> extra(
      0, plan_.delay_jitter.count() - 1);
  return base + std::chrono::milliseconds(extra(rng_));
}

std::size_t ConnectionFaults::throttle_clamp(
    std::size_t want) const noexcept {
  if (plan_.throttle_bytes_per_sec == 0) return want;
  // Rates under one byte per slice clamp to 0: the caller must pace one
  // throttle_slice() and retry with a minimum of one byte, never treat the
  // empty transfer as connection death (see TcpStream::write_all_v).
  const std::size_t slice =
      plan_.throttle_bytes_per_sec / kThrottleSlicesPerSecond;
  return std::min(want, slice);
}

std::chrono::milliseconds ConnectionFaults::throttle_slice() const noexcept {
  if (plan_.throttle_bytes_per_sec == 0) return 0ms;
  return std::chrono::milliseconds(1000 / kThrottleSlicesPerSecond);
}

void ConnectionFaults::pace(std::size_t bytes) {
  if (plan_.throttle_bytes_per_sec == 0 || bytes == 0) return;
  const double seconds = static_cast<double>(bytes) /
                         static_cast<double>(plan_.throttle_bytes_per_sec);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

std::size_t ConnectionFaults::before_read(std::size_t max) {
  std::chrono::milliseconds delay = plan_.read_delay;
  if (!stalled_ && plan_.first_read_stall > 0ms) {
    stalled_ = true;
    delay += plan_.first_read_stall;
  }
  if (delay > 0ms) std::this_thread::sleep_for(jittered(delay));
  return throttle_clamp(max);
}

void ConnectionFaults::pre_write_delay() {
  if (plan_.write_delay > 0ms) {
    std::this_thread::sleep_for(jittered(plan_.write_delay));
  }
}

std::size_t ConnectionFaults::clamp_write(std::size_t want, bool& reset_now) {
  if (doomed_ && bytes_written_ >= plan_.reset_after_bytes) {
    reset_now = true;
    doomed_ = false;  // fire once
    if (director_ != nullptr) director_->note_reset();
    return 0;
  }
  reset_now = false;
  std::size_t clamped = throttle_clamp(want);
  if (plan_.torn_write_max_bytes > 0) {
    clamped = std::min(clamped, plan_.torn_write_max_bytes);
  }
  // A doomed connection never writes past its reset point: the next call
  // fires the RST exactly there, mid-stream.
  if (doomed_ && plan_.reset_after_bytes > bytes_written_) {
    clamped = std::min<std::size_t>(
        clamped,
        static_cast<std::size_t>(plan_.reset_after_bytes - bytes_written_));
  }
  return clamped;
}

void ConnectionFaults::after_read(std::size_t bytes) { pace(bytes); }

void ConnectionFaults::after_write(std::size_t bytes) {
  bytes_written_ += bytes;
  pace(bytes);
}

std::chrono::milliseconds ConnectionFaults::pacing_debt() const noexcept {
  if (plan_.throttle_bytes_per_sec == 0) return 0ms;
  const auto now = std::chrono::steady_clock::now();
  if (paced_until_ <= now) return 0ms;
  return std::chrono::ceil<std::chrono::milliseconds>(paced_until_ - now);
}

void ConnectionFaults::accrue_pacing(std::size_t bytes) noexcept {
  if (plan_.throttle_bytes_per_sec == 0 || bytes == 0) return;
  const auto debt = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double>(
          static_cast<double>(bytes) /
          static_cast<double>(plan_.throttle_bytes_per_sec)));
  paced_until_ = std::max(paced_until_, std::chrono::steady_clock::now()) +
                 debt;
}

std::chrono::milliseconds ConnectionFaults::read_defer() {
  std::chrono::milliseconds delay = plan_.read_delay;
  if (!stalled_ && plan_.first_read_stall > 0ms) {
    stalled_ = true;
    delay += plan_.first_read_stall;
  }
  if (delay > 0ms) delay = jittered(delay);
  return delay + pacing_debt();
}

std::chrono::milliseconds ConnectionFaults::write_defer(bool first_send) {
  std::chrono::milliseconds delay{0};
  if (first_send && plan_.write_delay > 0ms) {
    delay = jittered(plan_.write_delay);
  }
  return delay + pacing_debt();
}

void ConnectionFaults::note_read_nb(std::size_t bytes) noexcept {
  accrue_pacing(bytes);
}

void ConnectionFaults::note_write_nb(std::size_t bytes) noexcept {
  bytes_written_ += bytes;
  accrue_pacing(bytes);
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
