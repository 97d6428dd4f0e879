#include "workload.h"

#include <pthread.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <chrono>
#include <cstdio>
#include <random>
#include <stdexcept>
#include <thread>

#include "http/message.h"
#include "http/url.h"
#include "stats.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using Ns = std::int64_t;
constexpr std::size_t kStreamLength = 1 << 16;
constexpr std::size_t kMaxErrorsKept = 8;

[[nodiscard]] std::string_view method_of(Kind kind) {
  switch (kind) {
    case Kind::kHead: return "HEAD";
    case Kind::kCgiPost: return "POST";
    case Kind::kGet:
    case Kind::kCgiGet: return "GET";
  }
  return "GET";
}

void keep_error(WindowStats& out, const std::string& error) {
  if (out.errors.size() < kMaxErrorsKept) out.errors.push_back(error);
}

/// Which of `slices` slices a request timed from `at` belongs to; -1
/// during the ramp.
[[nodiscard]] int slice_of(Ns at, Ns t0, Ns t_end, std::size_t slices) {
  if (at < t0) return -1;
  const auto n = static_cast<Ns>(slices);
  return static_cast<int>(std::min((at - t0) * n / (t_end - t0), n - 1));
}

void sleep_until_ns(Ns t) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(t)));
}

/// Parses "k=<digits>" out of a query string or form body.
[[nodiscard]] int cgi_key(std::string_view args) {
  if (args.substr(0, 2) != "k=") return -1;
  int key = -1;
  const auto* end = args.data() + args.size();
  const auto [ptr, ec] = std::from_chars(args.data() + 2, end, key);
  if (ec != std::errc() || ptr != end || key < 0 || key >= kCgiKeys) return -1;
  return key;
}

void record(WindowStats& part, int slice, const FetchInfo& info,
            Ns latency_ns) {
  SliceStats& s = part.slices[static_cast<std::size_t>(slice)];
  ++s.attempted;
  part.hops += static_cast<std::uint64_t>(info.hops);
  part.conns += static_cast<std::uint64_t>(info.conns);
  part.retries += static_cast<std::uint64_t>(info.retries);
  if (info.status == 503) ++part.status_503;
  if (!info.ok) {
    ++s.failed;
    keep_error(part, info.error);
    return;
  }
  s.latency_ns.push_back(static_cast<std::uint32_t>(
      std::min<Ns>(latency_ns, UINT32_MAX)));
  s.body_bytes += info.body_bytes;
}

}  // namespace

CpuPlan plan_cpus(int load_threads) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return {};
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  if (static_cast<int>(cpus.size()) <= load_threads) return {};
  const auto split = cpus.end() - load_threads;
  return {std::vector<int>(cpus.begin(), split),
          std::vector<int>(split, cpus.end())};
}

void pin_current_thread(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

Ns now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<RequestSpec> make_stream(const WorkloadConfig& config,
                                     std::uint64_t seed, std::size_t length) {
  sweb::util::Rng rng(seed);
  std::vector<RequestSpec> out;
  out.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    RequestSpec spec;
    if (config.cgi_frac > 0.0 && rng.bernoulli(config.cgi_frac)) {
      spec.kind = rng.bernoulli(0.5) ? Kind::kCgiGet : Kind::kCgiPost;
      spec.index = static_cast<std::uint16_t>(rng.uniform_int(0, kCgiKeys - 1));
    } else {
      spec.index =
          static_cast<std::uint16_t>(rng.zipf(config.docs, config.zipf_s));
      spec.kind = config.head_frac > 0.0 && rng.bernoulli(config.head_frac)
                      ? Kind::kHead
                      : Kind::kGet;
    }
    out.push_back(spec);
  }
  return out;
}

std::string cgi_body(int key) {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(key + 1);
  for (std::uint64_t round = 0; round < kCgiBurnRounds; ++round) {
    x ^= x >> 29;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 32;
  }
  char line[64];
  std::snprintf(line, sizeof line, "k=%d burn=%016llx\n", key,
                static_cast<unsigned long long>(x));
  return line;
}

Rig::Rig(const WorkloadConfig& config,
         const std::vector<std::string>& cgi_bodies, const CpuPlan& cpus)
    : config_(config), cgi_bodies_(cgi_bodies) {
  namespace fs = sweb::fs;
  sweb::util::Rng corpus_rng(kCorpusSeed);
  docbase_ =
      config.min_doc_bytes == config.max_doc_bytes
          ? fs::make_uniform(config.docs, config.min_doc_bytes, config.nodes,
                             fs::Placement::kRoundRobin)
          : fs::make_nonuniform(config.docs, config.min_doc_bytes,
                                config.max_doc_bytes, config.nodes,
                                fs::Placement::kRoundRobin, corpus_rng,
                                fs::SizeDistribution::kLogUniform);
  sweb::runtime::MiniClusterOptions options;
  options.max_workers = kCgiWorkers;
  options.cache_bytes_per_node = config.cache_bytes_per_node;
  options.overload.enabled = config.overload_control;
  cluster_ = std::make_unique<sweb::runtime::MiniCluster>(config.nodes,
                                                          docbase_, options);
  if (config.cgi_frac > 0.0) {
    cluster_->docs_mutable().register_cgi(
        std::string(kCgiPath), 0,
        [](const sweb::http::Request& request, std::string_view query) {
          const int key =
              cgi_key(query.empty() ? std::string_view(request.body) : query);
          if (key < 0) {
            return sweb::http::make_error(sweb::http::Status::kBadRequest);
          }
          return sweb::http::make_ok(cgi_body(key), "text/plain");
        });
  }
  for (const fs::Document& doc : docbase_.documents()) {
    const auto* entry = cluster_->docs().find(doc.path);
    if (entry == nullptr) throw std::runtime_error("corpus lost " + doc.path);
    bodies_.push_back(entry->content);
  }
  pin_current_thread(cpus.server);
  cluster_->start();
  pin_current_thread(cpus.load);

  // Warm-up: every document once, then a replay of a fixed stream (from
  // the corpus seed, so it is the same for every workload seed), then a
  // few CGI calls to wake the pool.
  Session warm(*this);
  const auto must = [&warm](const RequestSpec& spec) {
    const FetchInfo info = warm.fetch(spec);
    if (!info.ok) throw std::runtime_error("warm-up failed: " + info.error);
  };
  for (std::size_t i = 0; i < docbase_.size(); ++i) {
    must({Kind::kGet, static_cast<std::uint16_t>(i)});
  }
  for (const RequestSpec& spec :
       make_stream(config, kCorpusSeed,
                   static_cast<std::size_t>(config.warmup_requests))) {
    must(spec);
  }
  if (config.cgi_frac > 0.0) {
    for (std::uint16_t k = 0; k < 4; ++k) must({Kind::kCgiGet, k});
  }
}

std::string Rig::target(const RequestSpec& spec) const {
  switch (spec.kind) {
    case Kind::kGet:
    case Kind::kHead: return docbase_.documents()[spec.index].path;
    case Kind::kCgiGet:
      return std::string(kCgiPath) + "?k=" + std::to_string(spec.index);
    case Kind::kCgiPost: return std::string(kCgiPath);
  }
  return {};
}

std::string Rig::post_body(const RequestSpec& spec) const {
  return spec.kind == Kind::kCgiPost ? "k=" + std::to_string(spec.index)
                                     : std::string();
}

Expectation Rig::expectation(const RequestSpec& spec) const {
  Expectation expect;
  expect.head = spec.kind == Kind::kHead;
  expect.body = spec.kind == Kind::kGet || spec.kind == Kind::kHead
                    ? bodies_[spec.index].get()
                    : &cgi_bodies_[spec.index];
  return expect;
}

std::uint16_t Rig::dns_port() {
  const std::string base = cluster_->next_base_url();
  std::uint16_t port = 0;
  const std::size_t colon = base.rfind(':');
  (void)std::from_chars(base.data() + colon + 1, base.data() + base.size(),
                        port);
  return port;
}

FetchInfo Session::fetch(const RequestSpec& spec) {
  FetchInfo info;
  const Expectation expect = rig_.expectation(spec);
  const std::string_view method = method_of(spec.kind);
  const std::string body = rig_.post_body(spec);
  std::string target = rig_.target(spec);
  std::uint16_t port = conn_.open() ? conn_.port() : rig_.dns_port();
  bool retried = false;
  for (int hop = 0; hop <= kMaxHops;) {
    const bool reused = conn_.open() && conn_.port() == port;
    if (!reused) {
      if (!conn_.connect(port, /*nonblocking=*/false)) {
        info.error = "connect failed";
        return info;
      }
      ++info.conns;
    }
    request_.clear();
    append_request(request_, method, target, port, body);
    reader_.start(expect);
    bool stale = false;
    if (!conn_.send_all(request_) || !conn_.receive(reader_, stale)) {
      conn_.close();
      // A kept-alive connection the server had already closed: re-send
      // once on a fresh one (never a POST).
      if (reused && stale && !retried && spec.kind != Kind::kCgiPost) {
        retried = true;
        ++info.retries;
        continue;
      }
      info.status = reader_.status();
      info.error = reader_.failed() ? reader_.error() : "send failed";
      return info;
    }
    info.status = reader_.status();
    if (reader_.status() == 302) {
      const auto url = sweb::http::parse_url(reader_.location());
      if (!url) {
        info.error = "unparseable Location";
        conn_.close();
        return info;
      }
      port = url->port;
      target = url->query.empty() ? url->path : url->path + "?" + url->query;
      conn_.close();  // one connection at a time: move to the target node
      ++info.hops;
      ++hop;
      continue;
    }
    if (!reader_.keep_alive()) conn_.close();
    info.body_bytes = reader_.body_bytes();
    info.ok = true;
    return info;
  }
  info.error = "too many redirects";
  return info;
}

std::uint64_t WindowStats::attempted() const {
  std::uint64_t n = 0;
  for (const SliceStats& s : slices) n += s.attempted;
  return n;
}

std::uint64_t WindowStats::failed() const {
  std::uint64_t n = 0;
  for (const SliceStats& s : slices) n += s.failed;
  return n;
}

struct Load::OpenLoopState {
  struct Slot {
    Connection conn;
    ResponseReader reader;
    bool busy = false;
    OpenLoopSchedule::Arrival arrival;
    Ns sent = 0;
    FetchInfo info;
  };
  std::mt19937_64 rng;
  double mean_gap_ns = 0.0;
  std::vector<Slot> slots;
  sweb::runtime::FileDescriptor epoll;
  std::string request;
};

Load::Load(Rig& rig, std::uint64_t seed, std::vector<int> load_cpus)
    : rig_(rig), config_(rig.config()), load_cpus_(std::move(load_cpus)) {
  const bool open = config_.loop == Loop::kOpen;
  const int streams = open ? 1 : config_.clients;
  for (int i = 0; i < streams; ++i) {
    streams_.push_back(make_stream(
        config_, seed * 1000003ULL + static_cast<std::uint64_t>(i) + 1,
        kStreamLength));
    cursor_.push_back(0);
    if (!open) sessions_.push_back(std::make_unique<Session>(rig_));
  }
  if (!open) return;
  open_ = std::make_unique<OpenLoopState>();
  open_->rng.seed(seed ^ 0x5eb0a11ce5eedULL);
  open_->mean_gap_ns = 1e9 / config_.offered_rps;
  open_->slots.resize(static_cast<std::size_t>(config_.clients));
  open_->epoll.reset(epoll_create1(EPOLL_CLOEXEC));
  if (!open_->epoll.valid()) throw std::runtime_error("epoll unavailable");
}

Load::~Load() { close(); }

void Load::close() {
  for (auto& session : sessions_) session->close();
  if (open_) {
    for (auto& slot : open_->slots) slot.conn.close();
  }
}

void Load::closed_loop_client(int client, Ns t0, Ns t_end, bool traced,
                              WindowStats& out) {
  Session& session = *sessions_[static_cast<std::size_t>(client)];
  const auto& stream = streams_[static_cast<std::size_t>(client)];
  std::size_t& cursor = cursor_[static_cast<std::size_t>(client)];
  for (;;) {
    const Ns start = now_ns();
    if (start >= t_end) return;
    const FetchInfo info = session.fetch(stream[cursor++ % stream.size()]);
    const Ns done = now_ns();
    const int slice = slice_of(start, t0, t_end, out.slices.size());
    if (slice < 0) continue;
    record(out, slice, info, done - start);
    if (traced && info.ok) {
      out.fetch_ns.push_back(
          static_cast<std::uint32_t>(std::min<Ns>(done - start, UINT32_MAX)));
    }
  }
}

void Load::open_loop_generator(Ns ramp_start, Ns t0, Ns t_end, bool traced,
                               WindowStats& out) {
  OpenLoopState& st = *open_;
  std::exponential_distribution<double> gap(1.0 / st.mean_gap_ns);
  OpenLoopSchedule schedule(
      [&] { return static_cast<Ns>(gap(st.rng)) + 1; }, ramp_start, t_end);
  const auto& stream = streams_[0];
  const Ns drain_deadline = t_end + Ns{kIoTimeoutMs} * 1'000'000;

  const auto complete = [&](OpenLoopState::Slot& slot, Ns done) {
    FetchInfo& info = slot.info;
    // One node never redirects: anything but a checked 200 is a failure.
    info.ok = slot.reader.done() && slot.reader.status() == 200;
    info.status = slot.reader.status();
    info.body_bytes = slot.reader.body_bytes();
    if (!info.ok && info.error.empty()) {
      info.error = slot.reader.failed()
                       ? slot.reader.error()
                       : "status " + std::to_string(slot.reader.status());
    }
    const int slice =
        slice_of(slot.arrival.due, t0, t_end, out.slices.size());
    if (slice >= 0) {
      record(out, slice, info,
             OpenLoopSchedule::latency(slot.arrival.due, done));
      if (traced && info.ok) {
        out.fetch_ns.push_back(static_cast<std::uint32_t>(
            std::min<Ns>(done - slot.sent, UINT32_MAX)));
      }
    }
    if (!info.ok || !slot.reader.keep_alive()) slot.conn.close();
    slot.busy = false;
  };

  const auto dispatch = [&](std::size_t index,
                            const OpenLoopSchedule::Arrival& arrival) {
    OpenLoopState::Slot& slot = st.slots[index];
    const RequestSpec& spec = stream[(cursor_[0] + arrival.seq) % stream.size()];
    slot.arrival = arrival;
    slot.info = FetchInfo{};
    slot.busy = true;
    slot.sent = now_ns();
    slot.reader.start(rig_.expectation(spec));
    if (!slot.conn.open()) {
      const std::uint16_t port = rig_.dns_port();
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = index;
      if (!slot.conn.connect(port, /*nonblocking=*/true) ||
          epoll_ctl(st.epoll.get(), EPOLL_CTL_ADD, slot.conn.fd(), &ev) != 0) {
        slot.info.error = "connect failed";
        complete(slot, now_ns());
        return;
      }
      ++slot.info.conns;
    }
    st.request.clear();
    append_request(st.request, method_of(spec.kind), rig_.target(spec),
                   slot.conn.port(), rig_.post_body(spec));
    if (!slot.conn.send_all(st.request)) {
      slot.info.error = "send failed";
      complete(slot, now_ns());
    }
  };

  // The generator's sleeps are its schedule: no timer slack.
  (void)prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  Ns last_activity = now_ns();
  epoll_event events[16];
  for (;;) {
    const Ns now = now_ns();
    schedule.collect(now);
    bool any_busy = false;
    for (std::size_t i = 0; i < st.slots.size(); ++i) {
      if (!st.slots[i].busy && schedule.has_backlog()) {
        dispatch(i, schedule.pop());
        last_activity = now;
      }
      any_busy = any_busy || st.slots[i].busy;
    }
    if (schedule.exhausted() && !schedule.has_backlog() && !any_busy) break;
    if (now > drain_deadline) {
      for (auto& slot : st.slots) {
        if (!slot.busy) continue;
        slot.info.error = "no response by the drain deadline";
        slot.reader.fail(slot.info.error);
        complete(slot, now);
      }
      break;
    }
    // Busy-poll within kSpinNs of the last activity or of the next due
    // time; otherwise sleep until shortly before the next arrival (or a
    // reply, whichever comes first).
    Ns sleep_ns = 0;
    if (now - last_activity > kSpinNs) {
      const Ns until_due =
          schedule.exhausted() ? 10'000'000 : schedule.next_due() - now;
      sleep_ns = std::clamp<Ns>(until_due - kSpinNs, 0, 10'000'000);
    }
    const timespec timeout{static_cast<time_t>(sleep_ns / 1'000'000'000),
                           static_cast<long>(sleep_ns % 1'000'000'000)};
    const int n = epoll_pwait2(st.epoll.get(), events, 16, &timeout, nullptr);
    if (n > 0) last_activity = now_ns();
    for (int e = 0; e < n; ++e) {
      OpenLoopState::Slot& slot = st.slots[events[e].data.u64];
      if (!slot.busy) {
        slot.conn.close();  // the server closed an idle connection
        continue;
      }
      const bool alive = slot.conn.pump(slot.reader);
      if (!alive || slot.reader.done() || slot.reader.failed()) {
        complete(slot, now_ns());
      }
    }
  }
  cursor_[0] += schedule.scheduled();
  out.late_ns = std::move(schedule.late_ns());
}

WindowStats Load::run_window(double seconds, bool traced) {
  const Ns ramp_start = now_ns();
  const Ns t0 = ramp_start + static_cast<Ns>(kRampSeconds * 1e9);
  const Ns t_end = t0 + static_cast<Ns>(seconds * 1e9);
  const bool open = config_.loop == Loop::kOpen;
  const int threads = open ? 1 : config_.clients;

  const auto slices = static_cast<std::size_t>(
      std::max(1L, std::lround(seconds / kSliceSeconds)));
  std::vector<WindowStats> parts(static_cast<std::size_t>(threads));
  for (auto& part : parts) part.slices.resize(slices);
  std::atomic<bool> release{false};
  std::vector<std::thread> pool;
  // Load threads stay alive (idle) until every CPU sample is taken, so
  // their thread clocks remain readable; the guard releases and joins them
  // on every path out of this function.
  struct Joiner {
    std::atomic<bool>& release;
    std::vector<std::thread>& pool;
    ~Joiner() {
      release.store(true);
      for (auto& t : pool) {
        if (t.joinable()) t.join();
      }
    }
  } joiner{release, pool};
  for (int i = 0; i < threads; ++i) {
    pool.emplace_back([&, i] {
      if (static_cast<std::size_t>(i) < load_cpus_.size()) {
        pin_current_thread({load_cpus_[static_cast<std::size_t>(i)]});
      }
      WindowStats& part = parts[static_cast<std::size_t>(i)];
      if (open) {
        open_loop_generator(ramp_start, t0, t_end, traced, part);
      } else {
        closed_loop_client(i, t0, t_end, traced, part);
      }
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }

  WindowStats result;
  result.slice_seconds = seconds / static_cast<double>(slices);
  result.slices.resize(slices);
  const auto client_cpu = [&pool] {
    double total = 0.0;
    for (auto& t : pool) total += thread_cpu_seconds(t.native_handle());
    return total;
  };
  sleep_until_ns(t0);
  double process_prev = process_cpu_seconds();
  double client_prev = client_cpu();
  for (std::size_t k = 0; k < slices; ++k) {
    sleep_until_ns(t0 + (t_end - t0) * static_cast<Ns>(k + 1) /
                            static_cast<Ns>(slices));
    const double process_now = process_cpu_seconds();
    const double client_now = client_cpu();
    result.slices[k].process_cpu_s = process_now - process_prev;
    result.slices[k].client_cpu_s = client_now - client_prev;
    process_prev = process_now;
    client_prev = client_now;
  }
  release.store(true);
  for (auto& t : pool) t.join();

  for (WindowStats& part : parts) {
    for (std::size_t k = 0; k < slices; ++k) {
      SliceStats& to = result.slices[k];
      SliceStats& from = part.slices[k];
      to.latency_ns.insert(to.latency_ns.end(), from.latency_ns.begin(),
                           from.latency_ns.end());
      to.attempted += from.attempted;
      to.failed += from.failed;
      to.body_bytes += from.body_bytes;
    }
    result.fetch_ns.insert(result.fetch_ns.end(), part.fetch_ns.begin(),
                           part.fetch_ns.end());
    result.late_ns.insert(result.late_ns.end(), part.late_ns.begin(),
                          part.late_ns.end());
    result.hops += part.hops;
    result.conns += part.conns;
    result.retries += part.retries;
    result.status_503 += part.status_503;
    for (const auto& error : part.errors) keep_error(result, error);
  }
  return result;
}

}  // namespace perfbench
