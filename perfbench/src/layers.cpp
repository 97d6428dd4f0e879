#include "layers.h"

#include <poll.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "http/date.h"
#include "http/message.h"
#include "http/mime.h"
#include "http/parser.h"
#include "obs/phase.h"
#include "obs/registry.h"
#include "runtime/load_board.h"
#include "runtime/mini_cluster.h"
#include "runtime/node_cache.h"
#include "runtime/overload.h"
#include "runtime/reactor.h"
#include "stats.h"

namespace perfbench {

namespace {

using Ns = std::int64_t;
constexpr int kPasses = 7;
/// Replays use this prefix of the workload's stream.
constexpr std::size_t kReplayOps = 4096;

/// Keeps `value` observable so the timed call is not optimized away.
template <class T>
void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

/// Median over kPasses of (pass time / ops), in nanoseconds.
template <class F>
double median_ns_per_op(std::size_t ops, F&& pass) {
  std::vector<double> per_op;
  for (int p = 0; p < kPasses; ++p) {
    const Ns start = now_ns();
    pass();
    per_op.push_back(static_cast<double>(now_ns() - start) /
                     static_cast<double>(std::max<std::size_t>(ops, 1)));
  }
  return median(per_op);
}

/// The LoadBoard touches of one static request, replayed from `threads`
/// threads (one per node): connection_opened -> snapshot_all ->
/// note_served -> connection_closed. Mean ns per request per thread.
double board_request_ns(int nodes, int threads,
                        const std::vector<std::uint64_t>& bytes,
                        std::size_t iterations) {
  sweb::obs::Registry registry;
  sweb::runtime::LoadBoard board(nodes);
  board.bind_registry(registry);
  for (int n = 0; n < nodes; ++n) board.heartbeat(n);
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<double> per_thread(static_cast<std::size_t>(threads));
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      const int node = t % nodes;
      const Ns start = now_ns();
      for (std::size_t i = 0; i < iterations; ++i) {
        const std::uint64_t b = bytes[i % bytes.size()];
        board.connection_opened(node, b);
        const auto loads = board.snapshot_all();
        keep(loads);
        board.note_served(node);
        board.connection_closed(node, b);
      }
      per_thread[static_cast<std::size_t>(t)] =
          static_cast<double>(now_ns() - start) /
          static_cast<double>(iterations);
    });
  }
  while (ready.load() < threads) std::this_thread::yield();
  go.store(true);
  for (auto& t : pool) t.join();
  double sum = 0.0;
  for (const double v : per_thread) sum += v;
  return sum / static_cast<double>(threads);
}

double median_of_runs(int runs, const auto& once) {
  std::vector<double> values;
  for (int r = 0; r < runs; ++r) values.push_back(once());
  return median(values);
}

/// Deadlines as the reactor keeps them: one armed per request at the
/// deadline horizon ahead, popped once due, at the workload's rate (the
/// heap holds ~rps x horizon entries). ns per arm + pop.
double timer_arm_pop_ns(double rps) {
  const double gap_ns = 1e9 / std::max(rps, 1.0);
  // The reactor's per-request deadline: the cluster's I/O timeout.
  const auto horizon = std::chrono::duration_cast<std::chrono::nanoseconds>(
      sweb::runtime::MiniClusterOptions{}.io_timeout);
  const auto base = std::chrono::steady_clock::now();
  sweb::runtime::TimerHeap heap;
  sweb::runtime::TimerHeap::Entry entry;
  std::uint64_t i = 0;
  const auto step = [&] {
    const auto now =
        base + std::chrono::nanoseconds(static_cast<Ns>(
                   static_cast<double>(i) * gap_ns));
    heap.arm(i, 1, now + horizon);
    while (heap.pop_due(now, entry)) keep(entry);
    ++i;
  };
  const auto warm = static_cast<std::uint64_t>(
      std::chrono::duration<double>(horizon).count() * rps);
  while (i < warm) step();
  constexpr std::size_t kOps = 50000;
  return median_ns_per_op(kOps, [&] {
    for (std::size_t k = 0; k < kOps; ++k) step();
  });
}

/// CgiPool submit -> worker -> eventfd wake -> drain_results, with a
/// trivial handler: the handback mechanism's own latency, microseconds.
double cgi_handback_us() {
  sweb::runtime::WakeFd wake;
  sweb::runtime::CgiPool pool(kCgiWorkers, wake);
  pool.start();
  std::vector<double> us;
  for (std::uint64_t job = 0; job < 400; ++job) {
    const Ns start = now_ns();
    pool.submit({job, [] { return sweb::http::make_ok("x", "text/plain"); }});
    for (;;) {
      pollfd pfd{wake.fd(), POLLIN, 0};
      (void)::poll(&pfd, 1, 1000);
      wake.drain();
      if (!pool.drain_results().empty()) break;
    }
    us.push_back(static_cast<double>(now_ns() - start) / 1e3);
  }
  pool.stop();
  return median(us);
}

/// Per request the reactor records a completion and re-evaluates the
/// controller; replayed at the workload's rate. ns per request.
double overload_evaluate_ns(double rps, int inflight, int capacity) {
  sweb::runtime::OverloadParams params;
  params.enabled = true;
  sweb::runtime::OverloadController controller(params);
  const double gap_s = 1.0 / std::max(rps, 1.0);
  double now = 0.0;
  const auto warm = static_cast<std::size_t>(params.sample_horizon_s * rps);
  for (std::size_t i = 0; i < warm; ++i) {
    now += gap_s;
    controller.record_queue_delay(now, 20e-6);
    controller.record_completion(now);
  }
  constexpr std::size_t kOps = 50000;
  return median_ns_per_op(kOps, [&] {
    for (std::size_t k = 0; k < kOps; ++k) {
      now += gap_s;
      controller.record_completion(now);
      keep(controller.evaluate(now, inflight, capacity));
    }
  });
}

}  // namespace

void measure_layers(const LayerInput& input,
                    std::map<std::string, double>& out) {
  Rig& rig = input.rig;
  const WorkloadConfig& config = rig.config();
  const auto& docs = rig.documents();
  const std::size_t ops = std::min(kReplayOps, input.stream.size());
  const std::vector<RequestSpec> specs(input.stream.begin(),
                                       input.stream.begin() +
                                           static_cast<std::ptrdiff_t>(ops));
  const auto is_static = [](const RequestSpec& s) {
    return s.kind == Kind::kGet || s.kind == Kind::kHead;
  };

  // --- Broker and board ---------------------------------------------------
  std::vector<std::uint64_t> charge;  // the bytes each request charges
  for (const RequestSpec& s : specs) {
    charge.push_back(s.kind == Kind::kGet ? docs[s.index].size : 0);
  }
  out["board.req_ns.t1"] = median_of_runs(3, [&] {
    return board_request_ns(config.nodes, 1, charge, 100000);
  });
  out["board.req_ns.tN"] = median_of_runs(3, [&] {
    return board_request_ns(config.nodes, config.nodes, charge, 20000);
  });

  // --- Cache and docs -----------------------------------------------------
  std::vector<std::string> get_paths;  // only GETs probe the cache
  std::vector<std::uint64_t> get_sizes;
  std::vector<std::string> all_paths;
  for (const RequestSpec& s : specs) {
    all_paths.push_back(is_static(s) ? docs[s.index].path
                                     : std::string(kCgiPath));
    if (s.kind == Kind::kGet) {
      get_paths.push_back(docs[s.index].path);
      get_sizes.push_back(docs[s.index].size);
    }
  }
  {
    sweb::obs::Registry registry;
    sweb::runtime::NodeCache cache(config.cache_bytes_per_node);
    cache.bind_registry(registry, "replay.cache");
    for (std::size_t i = 0; i < get_paths.size(); ++i) {
      if (!cache.lookup(get_paths[i])) cache.insert(get_paths[i], get_sizes[i]);
    }
    out["cache.lookup_ns"] = median_ns_per_op(get_paths.size(), [&] {
      for (const auto& path : get_paths) keep(cache.lookup(path));
    });
    out["cache.insert_ns"] = median_ns_per_op(get_paths.size(), [&] {
      for (std::size_t i = 0; i < get_paths.size(); ++i) {
        cache.insert(get_paths[i], get_sizes[i]);
      }
    });
  }
  const auto& store = rig.cluster().docs();
  out["docs.find_ns"] = median_ns_per_op(all_paths.size(), [&] {
    for (const auto& path : all_paths) keep(store.find(path));
  });

  // --- HTTP ---------------------------------------------------------------
  const std::uint16_t port = rig.cluster().port(0);
  std::vector<std::string> requests;
  std::vector<sweb::http::Response> heads;
  std::vector<std::time_t> stamps;
  for (const RequestSpec& s : specs) {
    std::string bytes;
    append_request(bytes, s.kind == Kind::kHead      ? "HEAD"
                          : s.kind == Kind::kCgiPost ? "POST"
                                                     : "GET",
                   rig.target(s), port, rig.post_body(s));
    requests.push_back(std::move(bytes));
    // The head the server sends for this request (static 200 shape).
    const std::string& path = is_static(s) ? docs[s.index].path
                                           : std::string(kCgiPath);
    const std::uint64_t length = is_static(s) ? docs[s.index].size : 64;
    const std::time_t stamp = 820454400 + 60 * static_cast<std::time_t>(
                                                   is_static(s) ? s.index : 0);
    sweb::http::Response head;
    head.headers.add("Content-Type",
                     std::string(sweb::http::mime_type_for_path(path)));
    head.headers.add("Content-Length", std::to_string(length));
    head.headers.add("Last-Modified", sweb::http::format_http_date(stamp));
    head.headers.add("X-Sweb-Node", "0");
    head.headers.add("X-SWEB-Request-Id", "123456");
    head.headers.add("Server", "SWEB/1.0");
    head.headers.set("Connection", "Keep-Alive");
    heads.push_back(std::move(head));
    stamps.push_back(stamp);
  }
  {
    sweb::http::RequestParser parser;
    out["http.parse_req_ns"] = median_ns_per_op(requests.size(), [&] {
      for (const auto& bytes : requests) {
        parser.reset();
        std::size_t consumed = 0;
        keep(parser.feed(bytes, consumed));
      }
    });
  }
  out["http.serialize_head_ns"] = median_ns_per_op(heads.size(), [&] {
    for (const auto& head : heads) keep(head.serialize_head());
  });
  out["http.date_ns"] = median_ns_per_op(stamps.size(), [&] {
    for (const std::time_t t : stamps) keep(sweb::http::format_http_date(t));
  });
  {
    std::vector<std::string> wire_heads;
    for (const auto& head : heads) wire_heads.push_back(head.serialize_head());
    const std::string cgi_payload(64, 'c');
    sweb::http::ResponseParser parser;
    out["http.parse_resp_ns"] = median_ns_per_op(specs.size(), [&] {
      for (std::size_t i = 0; i < specs.size(); ++i) {
        const RequestSpec& s = specs[i];
        parser.reset();
        parser.expect_head_response(s.kind == Kind::kHead);
        std::size_t consumed = 0;
        auto state = parser.feed(wire_heads[i], consumed);
        if (s.kind == Kind::kGet) {
          state = parser.feed(*rig.expectation(s).body, consumed);
        } else if (s.kind != Kind::kHead) {
          state = parser.feed(cgi_payload, consumed);
        }
        keep(state);
      }
    });
  }

  // --- Reactor, overload, obs ---------------------------------------------
  out["reactor.timer_arm_pop_ns"] = timer_arm_pop_ns(input.rps);
  out["reactor.cgi_handback_us"] = cgi_handback_us();
  out["overload.evaluate_ns"] = overload_evaluate_ns(
      input.rps, config.clients, rig.cluster().node(0).connection_cap());
  {
    sweb::obs::Histogram histogram(sweb::obs::log_latency_bounds());
    std::vector<double> values;
    for (std::size_t i = 0; i < input.latency_ns.size() && i < 65536; ++i) {
      values.push_back(static_cast<double>(input.latency_ns[i]) * 1e-9);
    }
    if (values.empty()) values.push_back(10e-6);
    out["obs.hist_observe_ns"] = median_ns_per_op(values.size(), [&] {
      for (const double v : values) histogram.observe(v);
    });
  }
}

}  // namespace perfbench
