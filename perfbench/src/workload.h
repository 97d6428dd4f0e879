// Workload machinery: the running cluster with its expected responses
// (Rig), the seeded request streams, the closed-loop sessions and the
// open-loop generator, and one measurement window over them.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_client.h"
#include "config.h"
#include "fs/docbase.h"
#include "runtime/mini_cluster.h"

namespace perfbench {

enum class Kind : std::uint8_t { kGet, kHead, kCgiGet, kCgiPost };

struct RequestSpec {
  Kind kind = Kind::kGet;
  std::uint16_t index = 0;  // document index, or CGI key
};

/// CPU placement. Each load thread gets a CPU of its own; the server's
/// threads (reactors, CGI pools, heartbeats) share the rest, which they
/// inherit from the thread that starts the cluster. Both lists are empty
/// when there are too few CPUs to split (nothing is pinned then).
struct CpuPlan {
  std::vector<int> server;
  std::vector<int> load;
};
[[nodiscard]] CpuPlan plan_cpus(int load_threads);
/// Restricts the calling thread to `cpus` (no-op when empty).
void pin_current_thread(const std::vector<int>& cpus);

/// A request stream drawn from `seed`: Zipf document popularity and the
/// workload's method mix.
[[nodiscard]] std::vector<RequestSpec> make_stream(
    const WorkloadConfig& config, std::uint64_t seed, std::size_t length);

/// The CGI endpoint's deterministic output for `key` (a CPU burn of
/// kCgiBurnRounds dependent multiply-xorshift rounds).
[[nodiscard]] std::string cgi_body(int key);

/// One started MiniCluster with its corpus, warmed up, plus the exact bytes
/// every response must carry.
class Rig {
 public:
  /// `cgi_bodies[k]` is cgi_body(k); computed once per process. The
  /// cluster's threads start on `cpus.server`; the calling thread then
  /// moves to `cpus.load` to drive the warm-up, so its busy-polling never
  /// shares a CPU with a reactor.
  Rig(const WorkloadConfig& config, const std::vector<std::string>& cgi_bodies,
      const CpuPlan& cpus);
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  [[nodiscard]] sweb::runtime::MiniCluster& cluster() noexcept {
    return *cluster_;
  }
  [[nodiscard]] const WorkloadConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const std::vector<sweb::fs::Document>& documents() const {
    return docbase_.documents();
  }
  /// Request target ("/docs/file3", "/cgi-bin/burn?k=7") and POST body.
  [[nodiscard]] std::string target(const RequestSpec& spec) const;
  [[nodiscard]] std::string post_body(const RequestSpec& spec) const;
  [[nodiscard]] Expectation expectation(const RequestSpec& spec) const;
  /// Port the round-robin DNS hands out next.
  [[nodiscard]] std::uint16_t dns_port();

 private:
  const WorkloadConfig& config_;
  const std::vector<std::string>& cgi_bodies_;
  sweb::fs::Docbase docbase_;
  std::unique_ptr<sweb::runtime::MiniCluster> cluster_;
  /// Every document's body, shared with the DocStore (no copy).
  std::vector<std::shared_ptr<const std::string>> bodies_;
};

/// What one logical request cost the client.
struct FetchInfo {
  bool ok = false;
  int status = 0;
  int hops = 0;     // redirects followed
  int conns = 0;    // TCP connections opened
  int retries = 0;  // stale keep-alive connections re-sent
  std::uint64_t body_bytes = 0;
  std::string error;
};

/// A closed-loop client: one connection at a time, kept alive across
/// requests; DNS is asked only when no connection is open; 302s are
/// followed by moving the connection to the Location's node.
class Session {
 public:
  explicit Session(Rig& rig) : rig_(rig) {}
  [[nodiscard]] FetchInfo fetch(const RequestSpec& spec);
  void close() noexcept { conn_.close(); }

 private:
  Rig& rig_;
  Connection conn_;
  ResponseReader reader_;
  std::string request_;
};

/// One slice of a measurement window.
struct SliceStats {
  std::vector<std::uint32_t> latency_ns;  // successful requests only
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t body_bytes = 0;
  double process_cpu_s = 0.0;
  double client_cpu_s = 0.0;
};

/// Everything a window measured.
struct WindowStats {
  double slice_seconds = 0.0;
  std::vector<SliceStats> slices;
  /// Client-side spans: each fetch's duration from its first send (open
  /// loop) or start (closed loop) to its last byte, with what it cost.
  std::vector<std::uint32_t> fetch_ns;
  std::uint64_t hops = 0;
  std::uint64_t conns = 0;
  std::uint64_t retries = 0;
  std::uint64_t status_503 = 0;
  /// Open loop: how late the generator noticed each arrival.
  std::vector<std::uint32_t> late_ns;
  std::vector<std::string> errors;  // the first few failure reasons

  [[nodiscard]] std::uint64_t attempted() const;
  [[nodiscard]] std::uint64_t failed() const;
};

/// The load side of a run: closed-loop sessions or the open-loop
/// generator, each cycling its own seeded stream. Connections persist
/// across windows.
class Load {
 public:
  /// `load_cpus`: one CPU per load thread, or empty for no pinning.
  Load(Rig& rig, std::uint64_t seed, std::vector<int> load_cpus);
  ~Load();
  Load(const Load&) = delete;
  Load& operator=(const Load&) = delete;

  /// Runs traffic for kRampSeconds, then measures `seconds` in slices of
  /// kSliceSeconds.
  /// `traced` also records the client-side span of every fetch.
  [[nodiscard]] WindowStats run_window(double seconds, bool traced);
  /// Closes every client connection.
  void close();

  [[nodiscard]] const std::vector<RequestSpec>& stream(int client) const {
    return streams_[static_cast<std::size_t>(client)];
  }

 private:
  struct OpenLoopState;
  void closed_loop_client(int client, std::int64_t t0, std::int64_t t_end,
                          bool traced, WindowStats& out);
  void open_loop_generator(std::int64_t ramp_start, std::int64_t t0,
                           std::int64_t t_end, bool traced, WindowStats& out);

  Rig& rig_;
  const WorkloadConfig& config_;
  std::vector<std::vector<RequestSpec>> streams_;
  std::vector<std::size_t> cursor_;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::unique_ptr<OpenLoopState> open_;
  std::vector<int> load_cpus_;
};

/// Monotonic nanoseconds (steady_clock, i.e. CLOCK_MONOTONIC).
[[nodiscard]] std::int64_t now_ns() noexcept;


}  // namespace perfbench
