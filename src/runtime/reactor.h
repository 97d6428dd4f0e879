// Event-loop primitives for the reactor NodeServer.
//
// The paper's node pipeline assumed one thread could babysit one connection;
// SWEB's §3.3 scalability argument needs a node to hold tens of thousands of
// in-flight connections cheaply. These are the building blocks the rewritten
// NodeServer composes: an edge-triggered epoll wrapper, an eventfd wakeup for
// cross-thread handback, a lazy-invalidation min-heap of connection
// deadlines, and a small CPU-bound pool that executes CGI handlers off the
// loop and hands the finished responses back through the eventfd.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "http/message.h"
#include "runtime/socket.h"

namespace sweb::runtime {

/// RAII epoll instance. Registrations carry a caller-chosen 64-bit tag
/// (the reactor uses connection ids, never pointers, so a stale kernel
/// event after a close can be detected instead of dereferenced).
class Epoller {
 public:
  /// Throws std::system_error on epoll_create1 failure (fail-fast startup).
  Epoller();
  Epoller(const Epoller&) = delete;
  Epoller& operator=(const Epoller&) = delete;

  [[nodiscard]] bool add(int fd, std::uint32_t events, std::uint64_t tag);
  void remove(int fd) noexcept;

  struct Event {
    std::uint64_t tag = 0;
    std::uint32_t events = 0;
  };
  /// Waits up to `timeout` (>= 0) and appends ready events to `out`.
  /// Returns the number appended; EINTR reports 0 like a timeout so the
  /// caller re-checks its stop token.
  int wait(std::vector<Event>& out, std::chrono::milliseconds timeout);

 private:
  FileDescriptor epfd_;
};

/// Self-wakeup channel (eventfd): any thread notifies, the loop thread owns
/// the fd in its epoll set and drains it. Coalesces like a semaphore — N
/// notifies before a drain wake the loop once, which is all it needs.
class WakeFd {
 public:
  /// Throws std::system_error on eventfd failure.
  WakeFd();
  WakeFd(const WakeFd&) = delete;
  WakeFd& operator=(const WakeFd&) = delete;

  [[nodiscard]] int fd() const noexcept { return fd_.get(); }
  void notify() noexcept;
  void drain() noexcept;

 private:
  FileDescriptor fd_;
};

/// Min-heap of connection deadlines with lazy invalidation: every re-arm
/// bumps the connection's generation, so stale heap entries (an earlier
/// deadline superseded by a new one, or a closed connection's) are
/// recognized and skipped by the caller comparing generations. Entries are
/// never removed eagerly — the heap only ever pops from the top.
class TimerHeap {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;

  struct Entry {
    TimePoint when;
    std::uint64_t conn_id = 0;
    std::uint64_t generation = 0;
  };

  void arm(std::uint64_t conn_id, std::uint64_t generation, TimePoint when) {
    heap_.push(Entry{when, conn_id, generation});
  }

  /// Milliseconds until the earliest armed deadline, clamped to [0, cap];
  /// `cap` when the heap is empty. The value may be pessimistic (a stale
  /// entry at the top) — firing early is harmless, the generation check
  /// discards it.
  [[nodiscard]] std::chrono::milliseconds next_delay(
      std::chrono::milliseconds cap) const {
    if (heap_.empty()) return cap;
    const auto now = std::chrono::steady_clock::now();
    if (heap_.top().when <= now) return std::chrono::milliseconds{0};
    const auto delay =
        std::chrono::ceil<std::chrono::milliseconds>(heap_.top().when - now);
    return std::min(delay, cap);
  }

  /// Pops the earliest entry if it is due at `now`; the caller must check
  /// the generation against the connection's live one before acting.
  [[nodiscard]] bool pop_due(TimePoint now, Entry& out) {
    if (heap_.empty() || heap_.top().when > now) return false;
    out = heap_.top();
    heap_.pop();
    return true;
  }

  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

 private:
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      return a.when > b.when;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
};

/// CPU-bound stage for CGI execution: the reactor loop never runs user
/// handlers inline (one slow handler would stall every connection), it
/// submits a job here and carries on. A pool thread runs the handler and
/// posts the response to the completion queue; the eventfd wakes the loop,
/// which claims the results and resumes the connections' write states.
class CgiPool {
 public:
  struct Job {
    std::uint64_t conn_id = 0;
    std::function<http::Response()> run;
  };
  struct Result {
    std::uint64_t conn_id = 0;
    http::Response response;
  };

  /// `wake` must outlive the pool; notified once per completed job.
  CgiPool(int threads, WakeFd& wake);
  ~CgiPool();
  CgiPool(const CgiPool&) = delete;
  CgiPool& operator=(const CgiPool&) = delete;

  void start();
  /// Stops and joins the workers. Queued-but-unstarted jobs are dropped
  /// (their connections are being destroyed anyway); running handlers
  /// finish first.
  void stop();

  void submit(Job job);
  /// Claims every completed result (loop thread, after a wake).
  [[nodiscard]] std::vector<Result> drain_results();

 private:
  void worker_loop(const std::stop_token& token, int index);

  int threads_;
  WakeFd& wake_;
  std::vector<std::jthread> workers_;
  std::mutex mutex_;
  std::condition_variable_any cv_;
  std::deque<Job> jobs_;
  std::mutex results_mutex_;
  std::vector<Result> results_;
};

}  // namespace sweb::runtime
