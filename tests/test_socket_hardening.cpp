// Socket-layer hardening: interrupted syscalls and degenerate chaos clamps.
//
// Two regressions guarded here. (1) A signal landing mid-I/O (EINTR from
// recv/connect/sendmsg, with no SA_RESTART) is not a state change: every
// blocking socket call must retry within its remaining deadline instead of
// reporting a hard error. (2) A chaos throttle below one byte per pacing
// slice clamps the per-op budget to zero; the non-blocking stream must
// then hold the op a slice and move one byte — never produce an empty
// iovec whose sendmsg()==0 reads as a dead connection, and never spin.
#include <gtest/gtest.h>

#include <sys/time.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>

#include "runtime/chaos.h"
#include "runtime/clock.h"
#include "runtime/socket.h"

namespace sweb::runtime {
namespace {

using namespace std::chrono_literals;

std::atomic<int> g_signals{0};
void on_alarm(int) { g_signals.fetch_add(1, std::memory_order_relaxed); }

/// RAII interval timer: SIGALRM every 2 ms, handler installed WITHOUT
/// SA_RESTART so every slow syscall on the storm'd thread keeps getting
/// interrupted — the classic profiler/alarm signal storm.
class SignalStorm {
 public:
  SignalStorm() {
    struct sigaction sa = {};
    sa.sa_handler = on_alarm;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;  // no SA_RESTART: syscalls must surface EINTR
    sigaction(SIGALRM, &sa, &old_action_);
    itimerval timer = {};
    timer.it_interval.tv_usec = 2000;
    timer.it_value.tv_usec = 2000;
    setitimer(ITIMER_REAL, &timer, &old_timer_);
  }
  ~SignalStorm() {
    setitimer(ITIMER_REAL, &old_timer_, nullptr);
    sigaction(SIGALRM, &old_action_, nullptr);
  }

 private:
  struct sigaction old_action_ = {};
  itimerval old_timer_ = {};
};

/// Helper threads block SIGALRM so the storm always lands on the main
/// thread — the one whose socket calls are under test.
void block_sigalrm_here() {
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGALRM);
  pthread_sigmask(SIG_BLOCK, &set, nullptr);
}

TEST(SignalStorm, ConnectSurvivesInterruptedSyscalls) {
  TcpListener listener(0);
  SignalStorm storm;
  // Keep connecting across many timer ticks so some connect()/poll() calls
  // take a SIGALRM mid-flight; EINTR from the initial nonblocking connect
  // must fall through to the POLLOUT wait, not report failure.
  const int before = g_signals.load();
  const auto until = std::chrono::steady_clock::now() + 150ms;
  int attempts = 0;
  while (std::chrono::steady_clock::now() < until || attempts < 25) {
    auto client = TcpStream::connect(
        SocketAddress::loopback(listener.port()), 2000ms);
    ASSERT_TRUE(client.has_value()) << "connect attempt " << attempts;
    auto server = listener.accept(2000ms);
    ASSERT_TRUE(server.has_value());
    ++attempts;
  }
  EXPECT_GT(g_signals.load(), before)
      << "storm never fired; test proved nothing";
}

TEST(SignalStorm, ReadSomeRetriesInterruptedRecvWithinDeadline) {
  TcpListener listener(0);
  auto client = TcpStream::connect(SocketAddress::loopback(listener.port()),
                                   2000ms);
  ASSERT_TRUE(client.has_value());
  auto server = listener.accept(2000ms);
  ASSERT_TRUE(server.has_value());

  SignalStorm storm;
  std::thread writer([&server] {
    block_sigalrm_here();
    // Land the bytes well after the client entered its poll/recv loop so
    // the wait itself eats several SIGALRMs first.
    std::this_thread::sleep_for(150ms);
    ASSERT_TRUE(server->write_all("hello", 2000ms));
  });
  const auto chunk = client->read_some(1024, 2000ms);
  writer.join();
  ASSERT_TRUE(chunk.ok) << "EINTR surfaced as a hard read error";
  EXPECT_FALSE(chunk.eof);
  EXPECT_EQ(chunk.data, "hello");
  EXPECT_GT(g_signals.load(), 0);
}

TEST(SignalStorm, GatherWriteDeliversEveryByteIntact) {
  TcpListener listener(0);
  auto client = TcpStream::connect(SocketAddress::loopback(listener.port()),
                                   2000ms);
  ASSERT_TRUE(client.has_value());
  auto server = listener.accept(2000ms);
  ASSERT_TRUE(server.has_value());

  const std::string head(512, 'H');
  const std::string body(4 * 1024 * 1024, 'b');  // forces many partial sends
  SignalStorm storm;
  std::size_t received = 0;
  bool tail_ok = true;
  std::thread reader([&] {
    block_sigalrm_here();
    for (;;) {
      const auto chunk = server->read_some(64 * 1024, 5000ms);
      if (!chunk.ok || chunk.eof) break;
      for (const char c : chunk.data) {
        const char want = received < head.size() ? 'H' : 'b';
        if (c != want) tail_ok = false;
        ++received;
      }
    }
  });
  EXPECT_TRUE(client->write_all_v({head, body}, 10000ms));
  client->shutdown_write();
  reader.join();
  EXPECT_EQ(received, head.size() + body.size());
  EXPECT_TRUE(tail_ok) << "segment bytes arrived out of order or corrupted";
  EXPECT_GT(g_signals.load(), 0);
}

TEST(ThrottleToZero, ClampReportsZeroAndSliceUnderOneBytePerSlice) {
  FaultPlan plan;
  plan.throttle_bytes_per_sec = 4;  // under one byte per 125 ms slice
  ManualClock clock;
  ConnectionFaults faults(plan, /*seed=*/1, /*doomed=*/false, nullptr, clock);
  const auto t0 = clock.now();
  // The clamp rounds to zero bytes: the read waits one slice...
  const auto zero = faults.gate_read(16 * 1024);
  ASSERT_TRUE(zero.retry_at.has_value());
  EXPECT_EQ(*zero.retry_at - t0, 125ms);
  // ...then moves the minimum one byte.
  clock.advance(125ms);
  const auto t1 = clock.now();
  const auto one = faults.gate_read(16 * 1024);
  EXPECT_FALSE(one.retry_at.has_value());
  EXPECT_EQ(one.budget, 1u);
  // Completed bytes become pacing debt the next op waits out:
  // 1 byte at 4 B/s = 250 ms.
  faults.note_read(1);
  const auto paced = faults.gate_read(16 * 1024);
  ASSERT_TRUE(paced.retry_at.has_value());
  EXPECT_EQ(*paced.retry_at - t1, 250ms);
}

/// A connected pair whose client side carries a sub-byte-per-slice
/// throttle, pacing on `clock`.
struct ThrottledPair {
  ManualClock clock;
  TcpListener listener{0};
  std::optional<TcpStream> client;
  std::optional<TcpStream> server;

  ThrottledPair() {
    client = TcpStream::connect(SocketAddress::loopback(listener.port()),
                                2000ms);
    server = listener.accept(2000ms);
    if (!client || !server) return;
    FaultPlan plan;
    plan.throttle_bytes_per_sec = 4;  // every clamp comes back 0
    client->set_faults(std::make_shared<ConnectionFaults>(
        plan, /*seed=*/1, /*doomed=*/false, nullptr, clock));
  }
};

TEST(ThrottleToZero, GatherWriteSurvivesZeroClampAndPacesBytes) {
  ThrottledPair pair;
  ASSERT_TRUE(pair.client.has_value() && pair.server.has_value());
  // A zero clamp must never build an empty iovec (sendmsg would return 0
  // and the connection would read as dead). It must instead hold the send
  // one slice, then move one byte, then wait out that byte's pacing.
  const std::string_view segments[] = {"GET ", "/a\r\n"};
  std::size_t sent = 0;
  int holds = 0;
  int sends = 0;
  while (sent < 8) {
    std::string_view rest[2];
    std::size_t count = 0;
    if (sent < 4) rest[count++] = segments[0].substr(sent);
    rest[count++] = segments[1].substr(sent > 4 ? sent - 4 : 0);
    const auto t = pair.clock.now();
    const auto w = pair.client->write_some_v_nb(rest, count);
    ASSERT_TRUE(w.ok);
    if (w.retry_at) {
      if (holds == 0) {
        EXPECT_EQ(*w.retry_at - t, 125ms);  // one throttle slice
      }
      ++holds;
      // Held until exactly retry_at: a millisecond early still answers it.
      pair.clock.advance(*w.retry_at - t - 1ms);
      EXPECT_EQ(pair.client->write_some_v_nb(rest, count).retry_at,
                w.retry_at);
      pair.clock.advance(1ms);
      continue;
    }
    EXPECT_EQ(w.written, 1u);
    sent += w.written;
    ++sends;
  }
  // Every byte waited a slice, and every byte after the first also
  // waited out the previous byte's 250 ms of pacing.
  EXPECT_EQ(sends, 8);
  EXPECT_EQ(holds, 15);
  pair.client->shutdown_write();
  std::string received;
  for (;;) {
    const auto chunk = pair.server->read_some(64, 5000ms);
    if (!chunk.ok || chunk.eof) break;
    received += chunk.data;
  }
  EXPECT_EQ(received, "GET /a\r\n");
}

TEST(ThrottleToZero, ReadSomeSurvivesZeroClamp) {
  ThrottledPair pair;
  ASSERT_TRUE(pair.client.has_value() && pair.server.has_value());
  ASSERT_TRUE(pair.server->write_all("ok", 2000ms));
  ASSERT_TRUE(pair.client->wait_readable(2000ms));
  // A zero read clamp must never recv(fd, buf, 0) — that return of 0 would
  // be indistinguishable from EOF. The read is held one slice, then reads
  // exactly one byte.
  const auto t0 = pair.clock.now();
  const auto held = pair.client->read_nb(1024);
  ASSERT_TRUE(held.ok);
  EXPECT_EQ(held.retry_at, t0 + 125ms);
  pair.clock.advance(124ms);
  EXPECT_EQ(pair.client->read_nb(1024).retry_at, held.retry_at);
  pair.clock.advance(1ms);
  const auto first = pair.client->read_nb(1024);
  ASSERT_TRUE(first.ok);
  EXPECT_FALSE(first.eof);
  EXPECT_EQ(first.data, "o");
}

}  // namespace
}  // namespace sweb::runtime
