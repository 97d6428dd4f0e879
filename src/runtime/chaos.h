// Degraded-network fault injection for the real-sockets runtime.
//
// The paper's loadd handles the clean failure (a node that dies and stops
// answering); real NOW links fail slowly — stalled reads, torn writes, high
// latency, trickling slowloris clients. This module is the seam that lets
// tests and benches manufacture those conditions deterministically: a
// ChaosDirector attached to a TcpListener stamps every accepted connection
// with a per-connection ConnectionFaults drawn from a seeded RNG, and the
// TcpStream I/O paths consult it to delay, throttle, tear, or reset the
// transfer. The same FaultPlan and seed always produce the same faults.
//
// Faults model the *link/node* being slow, so injected delays deliberately
// do NOT count against the caller's I/O deadline — defending against that
// is the other endpoint's job (header deadlines, retry budgets).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <random>

namespace sweb::runtime {

/// What to do to a connection. All faults default off; a default-constructed
/// plan is inert. Delays are per-operation (one read / one write_all call),
/// the throttle paces every byte, torn writes bound each TCP send, and the
/// reset tears the connection down mid-stream with an RST.
struct FaultPlan {
  /// Fixed delay injected before every read on the connection.
  std::chrono::milliseconds read_delay{0};
  /// Fixed delay injected before every write_all call.
  std::chrono::milliseconds write_delay{0};
  /// Uniform extra [0, delay_jitter) added to each injected delay.
  std::chrono::milliseconds delay_jitter{0};
  /// One-time stall before the connection's first read — the "link went
  /// quiet" fault, distinct from steady per-read latency.
  std::chrono::milliseconds first_read_stall{0};
  /// Byte-rate ceiling across the connection (both directions); transfers
  /// are clamped into small chunks and paced to this rate. 0 = unlimited.
  std::size_t throttle_bytes_per_sec = 0;
  /// Tear writes: no single send() may exceed this many bytes, so the peer
  /// sees the response dribble in as short partial segments. 0 = off.
  std::size_t torn_write_max_bytes = 0;
  /// Probability that an admitted connection is doomed to a mid-stream
  /// reset (drawn once per connection from the director's seeded RNG).
  double reset_probability = 0.0;
  /// The first N admitted connections are doomed regardless of
  /// reset_probability — deterministic chaos for tests.
  int reset_first_connections = 0;
  /// A doomed connection is reset (RST) once this many bytes have been
  /// written to it; 0 resets on the first write.
  std::uint64_t reset_after_bytes = 0;

  /// True when any fault is switched on.
  [[nodiscard]] bool active() const noexcept;
};

class ChaosDirector;

/// Per-connection mutable fault state. Owned (via shared_ptr) by the
/// TcpStream it degrades; exercised from that stream's single I/O thread,
/// so no internal locking. The injected sleeps happen inside these calls.
class ConnectionFaults {
 public:
  ConnectionFaults(const FaultPlan& plan, std::uint64_t seed, bool doomed,
                   ChaosDirector* director) noexcept;

  /// Injects read latency (plus the one-time first-read stall) and returns
  /// the throttled clamp on how many bytes this read may ask for.
  [[nodiscard]] std::size_t before_read(std::size_t max);
  /// Injects the per-write delay. Call once per write_all.
  void pre_write_delay();
  /// Clamps one send to the torn-write / throttle chunk size. Sets
  /// `reset_now` when the doomed connection has crossed its reset point —
  /// the caller must hard-reset instead of writing.
  [[nodiscard]] std::size_t clamp_write(std::size_t want, bool& reset_now);
  void after_read(std::size_t bytes);   // throttle pacing
  void after_write(std::size_t bytes);  // throttle pacing + reset bookkeeping

  // --- Non-blocking gate API (reactor event loop) --------------------------
  // The blocking calls above sleep the injected delays inline, which would
  // stall every connection sharing a reactor thread. The event loop instead
  // asks how long an operation must be *deferred*, arms a timer for that
  // long, and performs the I/O when it fires — then reports completed bytes
  // so throttle pacing accrues as debt instead of a sleep.
  //
  // Contract: call {read,write}_defer() once per intended I/O op. If it
  // returns >0ms, wait that long and then perform the op WITHOUT asking
  // again (a second call would re-charge the per-op delay).

  /// Delay to apply before the next read: per-read latency + the one-time
  /// first-read stall (consumed by this call) + outstanding pacing debt.
  [[nodiscard]] std::chrono::milliseconds read_defer();
  /// Delay before the next send; the per-write delay is charged only when
  /// `first_send` (one write_all-equivalent, i.e. one response).
  [[nodiscard]] std::chrono::milliseconds write_defer(bool first_send);
  /// Throttle clamp on a read size, without the blocking sleeps.
  [[nodiscard]] std::size_t clamp_read(std::size_t max) const noexcept {
    return throttle_clamp(max);
  }
  /// Completed-I/O bookkeeping: accrues pacing debt (surfaced by the next
  /// *_defer call); note_write_nb also advances the reset byte count.
  void note_read_nb(std::size_t bytes) noexcept;
  void note_write_nb(std::size_t bytes) noexcept;
  /// One throttle pacing slice — the wait to schedule when a clamp comes
  /// back 0 because the per-slice byte budget rounds down to nothing
  /// (rates under one byte per slice). 0ms when unthrottled.
  [[nodiscard]] std::chrono::milliseconds throttle_slice() const noexcept;

 private:
  [[nodiscard]] std::chrono::milliseconds jittered(
      std::chrono::milliseconds base);
  /// Throttle chunk clamp shared by reads and writes.
  [[nodiscard]] std::size_t throttle_clamp(std::size_t want) const noexcept;
  void pace(std::size_t bytes);
  /// Outstanding non-blocking pacing debt, rounded up to whole ms.
  [[nodiscard]] std::chrono::milliseconds pacing_debt() const noexcept;
  void accrue_pacing(std::size_t bytes) noexcept;

  FaultPlan plan_;
  std::mt19937_64 rng_;
  bool doomed_;
  bool stalled_ = false;
  std::uint64_t bytes_written_ = 0;
  std::chrono::steady_clock::time_point paced_until_{};
  ChaosDirector* director_;
};

/// Hands a ConnectionFaults to every connection a listener accepts.
/// Thread-safe: the accept thread admits while tests reconfigure. Must
/// outlive every ConnectionFaults it issued (NodeServer owns one and joins
/// its workers before destruction).
class ChaosDirector {
 public:
  static constexpr std::uint64_t kDefaultSeed = 0x5eb0c4a05ULL;

  ChaosDirector() = default;
  ChaosDirector(const ChaosDirector&) = delete;
  ChaosDirector& operator=(const ChaosDirector&) = delete;

  /// Installs (or replaces) the plan; an inactive plan disables injection.
  void configure(FaultPlan plan, std::uint64_t seed = kDefaultSeed);
  [[nodiscard]] bool enabled() const;

  /// Fault state for the next accepted connection; nullptr when disabled
  /// (the stream then runs clean, with zero overhead).
  [[nodiscard]] std::shared_ptr<ConnectionFaults> admit();

  /// Connections that received a fault plan / injected RSTs so far.
  [[nodiscard]] std::uint64_t connections_faulted() const noexcept {
    return faulted_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t resets_injected() const noexcept {
    return resets_.load(std::memory_order_relaxed);
  }
  /// Called by ConnectionFaults when it fires its reset.
  void note_reset() noexcept {
    resets_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  mutable std::mutex mutex_;
  FaultPlan plan_{};
  std::mt19937_64 rng_{kDefaultSeed};
  bool enabled_ = false;
  std::uint64_t admitted_ = 0;  // connections seen since configure()
  std::atomic<std::uint64_t> faulted_{0};
  std::atomic<std::uint64_t> resets_{0};
};

}  // namespace sweb::runtime
