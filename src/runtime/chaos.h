// Degraded-network fault injection for the real-sockets runtime.
//
// The paper's loadd handles the clean failure (a node that dies and stops
// answering); real NOW links fail slowly — stalled reads, torn writes, high
// latency, trickling slowloris clients. This module is the seam that lets
// tests and benches manufacture those conditions deterministically: a
// node's ChaosDirector stamps every connection it admits with a
// per-connection ConnectionFaults drawn from a seeded RNG, and the stream's
// non-blocking I/O consults it to delay, throttle, tear, or reset the
// transfer — a delay comes back as "retry at t", never as a sleep. The
// same FaultPlan and seed always produce the same faults.
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
#include <optional>
#include <random>

namespace sweb::runtime {

/// What to do to a connection. All faults default off; a default-constructed
/// plan is inert. Delays are per-operation (one read / one response),
/// the throttle paces every byte, torn writes bound each TCP send, and the
/// reset tears the connection down mid-stream with an RST.
struct FaultPlan {
  /// Fixed delay injected before every read on the connection.
  std::chrono::milliseconds read_delay{0};
  /// Fixed delay injected before the first send of every response (the
  /// first send after the connection last read).
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
/// TcpStream it degrades and consulted only by that stream's non-blocking
/// read_nb/write_some_v_nb, from its single I/O thread — so no internal
/// locking. Nothing here sleeps: a held operation comes back as the time
/// to retry it, and every call takes `now` from the caller.
///
/// Contract: ask the gate before each intended op. While it answers
/// `retry_at`, do no I/O; asking again before then answers the same time
/// without re-charging the delay. Once it lets the op through, perform it
/// (at most `budget` bytes) and report it with note_read/note_write —
/// bytes moved, 0 for EAGAIN — which re-arms the gate for the next op.
class ConnectionFaults {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;

  ConnectionFaults(const FaultPlan& plan, std::uint64_t seed, bool doomed,
                   ChaosDirector* director) noexcept;

  /// The verdict on one intended op.
  struct Gate {
    /// Set: the link holds the op — do no I/O, ask again at this time.
    std::optional<TimePoint> retry_at;
    /// Otherwise the op may move up to this many bytes (>= 1 when the
    /// caller asked for any).
    std::size_t budget = 0;
    /// Writes only: the doomed connection crossed its reset point — the
    /// caller must hard-reset instead of writing.
    bool reset = false;
  };

  /// Per-read latency plus the one-time first-read stall and any pacing
  /// debt, then the throttle clamp on `want`.
  [[nodiscard]] Gate gate_read(std::size_t want, TimePoint now);
  /// The per-write delay (charged on the first send after a read, i.e.
  /// once per response) plus pacing debt, the doomed reset, then the
  /// throttle / torn-write / reset-point clamp on `want`.
  [[nodiscard]] Gate gate_write(std::size_t want, TimePoint now);
  /// Completed-op bookkeeping: accrues pacing debt; note_write also
  /// advances the reset byte count.
  void note_read(std::size_t bytes, TimePoint now) noexcept;
  void note_write(std::size_t bytes, TimePoint now) noexcept;

 private:
  /// Gate state of one direction, charged once per op.
  struct OpGate {
    bool charged = false;     // this op's delay is already in ready_at
    bool slice_paid = false;  // a zero throttle clamp already waited a slice
    TimePoint ready_at{};
  };

  /// `base` plus uniform [0, delay_jitter); 0 stays 0.
  [[nodiscard]] std::chrono::milliseconds jittered(
      std::chrono::milliseconds base);
  /// Charges one op's delay: it may run `delay` after any pacing debt.
  void charge(OpGate& gate, std::chrono::milliseconds delay,
              TimePoint now) noexcept;
  /// The throttle clamp. A rate under one byte per slice clamps to 0: the
  /// op then waits one slice and moves one byte — never a zero-byte op,
  /// which the socket would report as EOF or a dead connection.
  [[nodiscard]] Gate clamp(OpGate& gate, std::size_t want,
                           TimePoint now) noexcept;
  /// Re-arms the gate and accrues the op's bytes as pacing debt.
  void finish(OpGate& gate, std::size_t bytes, TimePoint now) noexcept;

  FaultPlan plan_;
  std::mt19937_64 rng_;
  bool doomed_;
  bool stalled_ = false;
  bool response_started_ = false;  // a send happened since the last read
  std::uint64_t bytes_written_ = 0;
  TimePoint paced_until_{};
  OpGate read_gate_;
  OpGate write_gate_;
  ChaosDirector* director_;
};

/// Hands a ConnectionFaults to every connection a node admits.
/// Thread-safe: the reactor admits while tests reconfigure. Must
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

  /// Fault state for the next admitted connection; nullptr when disabled
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
