// The frozen benchmark configuration: three named workloads over the live
// runtime (MiniCluster, NodeServer reactor, LoadBoard, NodeCache, CGI pool).
// Every run of every commit uses exactly these numbers; only the workload
// seed (request streams, open-loop arrivals) comes from the command line.
// Changing anything here is a benchmark change, not a performance change.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace perfbench {

enum class Loop {
  kClosed,  // each client thread waits for its reply before the next request
  kOpen,    // Poisson arrivals on a fixed schedule, whatever the server does
};

struct WorkloadConfig {
  std::string_view name;
  int nodes = 1;
  /// Closed loop: client threads, one keep-alive session each. Open loop:
  /// connections driven by the single generator thread.
  int clients = 1;
  Loop loop = Loop::kClosed;
  // Corpus: `docs` static documents, sizes uniform when min == max, else
  // log-uniform in [min, max]; owners assigned round-robin. The corpus is
  // synthesized from kCorpusSeed, never from the workload seed, so every
  // seed requests the same bytes.
  std::size_t docs = 64;
  std::uint64_t min_doc_bytes = 4096;
  std::uint64_t max_doc_bytes = 4096;
  /// Zipf exponent of document popularity (rank i is document i).
  double zipf_s = 0.9;
  std::uint64_t cache_bytes_per_node = 8ull * 1024 * 1024;
  /// Request mix: HEAD share of static requests, and the CGI share (half
  /// GET with a query string, half POST); the rest is GET.
  double head_frac = 0.0;
  double cgi_frac = 0.0;
  /// Open loop only: the fixed Poisson offered rate.
  double offered_rps = 0.0;
  bool overload_control = false;
  /// Requests replayed from the key stream after every document was
  /// fetched once (cache warm-up; part of set-up).
  int warmup_requests = 0;
};

/// Seed of the corpus (document sizes), fixed for every run.
inline constexpr std::uint64_t kCorpusSeed = 1996;
/// The CGI pool size on every node (NodeServer::Config::max_workers).
inline constexpr int kCgiWorkers = 2;
/// Each measurement window is cut into slices this long; the end-to-end
/// metrics are the median over slices. Short slices keep a host stall (a
/// descheduled vCPU) inside a few slices instead of every one.
inline constexpr double kSliceSeconds = 0.25;
/// Traffic flows this long before a window's first slice starts.
inline constexpr double kRampSeconds = 0.3;
/// Set-up (corpus synthesis, cluster start, warm-up) is repeated this many
/// times per run; setup_s is the median.
inline constexpr int kSetupRepeats = 5;
/// CGI endpoint and its deterministic CPU burn: the body for key k is a
/// pure function of k, about 150 us of CPU on a 2020s x86 core.
inline constexpr std::string_view kCgiPath = "/cgi-bin/burn";
inline constexpr int kCgiKeys = 64;
inline constexpr std::uint64_t kCgiBurnRounds = 50000;
/// Clients and the open-loop generator busy-poll this long after their
/// last activity before they block: a reply due within it is caught
/// without a vCPU wake-up, and an idle client gives its CPU back.
inline constexpr std::int64_t kSpinNs = 50'000;
/// Redirect hops a client follows before it calls the request failed.
inline constexpr int kMaxHops = 4;
/// An open-loop run whose generator noticed arrivals later than this at
/// p99 measured its own scheduling, not the server: the run is invalid.
inline constexpr double kMaxGeneratorLateP99Us = 5000.0;
/// Per-request client I/O timeout.
inline constexpr int kIoTimeoutMs = 5000;
/// Teardown: how long the accounting may take to drain back to zero.
inline constexpr int kDrainDeadlineMs = 3000;

inline constexpr WorkloadConfig kStaticHot{
    .name = "static_hot",
    .nodes = 1,
    .clients = 3,
    .loop = Loop::kClosed,
    .docs = 64,
    .min_doc_bytes = 4096,
    .max_doc_bytes = 4096,
    .zipf_s = 0.9,
    .cache_bytes_per_node = 8ull * 1024 * 1024,
};

inline constexpr WorkloadConfig kClusterMixed{
    .name = "cluster_mixed",
    .nodes = 2,
    .clients = 2,
    .loop = Loop::kClosed,
    .docs = 512,
    .min_doc_bytes = 1024,
    .max_doc_bytes = 256 * 1024,
    .zipf_s = 0.9,
    .cache_bytes_per_node = 4ull * 1024 * 1024,
    .head_frac = 0.10,
    .warmup_requests = 4000,
};

inline constexpr WorkloadConfig kCgiOpen{
    .name = "cgi_open",
    .nodes = 1,
    .clients = 3,
    .loop = Loop::kOpen,
    .docs = 64,
    .min_doc_bytes = 4096,
    .max_doc_bytes = 4096,
    .zipf_s = 0.9,
    .cache_bytes_per_node = 8ull * 1024 * 1024,
    .head_frac = 0.125,  // 10% of all requests: 0.8 static x 0.125
    .cgi_frac = 0.20,
    .offered_rps = 10000.0,
    .overload_control = true,
};

inline constexpr WorkloadConfig kWorkloads[] = {kStaticHot, kClusterMixed,
                                                kCgiOpen};

}  // namespace perfbench
