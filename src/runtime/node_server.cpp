#include "runtime/node_server.h"

#include <sys/epoll.h>

#include <algorithm>

#include "http/message.h"
#include "obs/json.h"
#include "obs/prometheus.h"
#include "util/logging.h"
#include "util/strings.h"

namespace sweb::runtime {

using namespace std::chrono_literals;

namespace {

// Epoll tags 0 and 1 are the listener and the wakeup eventfd; connection
// ids start at 2 (NodeServer::next_conn_id_), so timer id 0 is free for the
// heartbeat.
constexpr std::uint64_t kListenerTag = 0;
constexpr std::uint64_t kWakeTag = 1;
constexpr std::uint64_t kHeartbeatTimer = 0;
constexpr const char* kServerName = "SWEB/1.0";
constexpr std::size_t kReadChunk = 16 * 1024;
// Upper bound on one epoll_wait so the loop re-checks its stop token even
// with no timers armed.
constexpr std::chrono::milliseconds kLoopTick{100};

}  // namespace

NodeServer::NodeServer(Config config, const DocStore& docs, LoadBoard& board)
    : own_registry_(config.registry == nullptr
                        ? std::make_unique<obs::Registry>()
                        : nullptr),
      config_(std::move(config)),
      board_(board),
      overload_(config_.overload),
      handler_(config_.node_id, config_.broker, config_.retry_after_hint,
               docs, board, config_.caches, overload_,
               own_registry_ != nullptr ? *own_registry_ : *config_.registry,
               config_.audit, config_.tracer),
      listener_(0) {
  if (own_registry_ != nullptr) config_.registry = own_registry_.get();
  obs::Registry& registry = *config_.registry;
  const std::string prefix = "node." + std::to_string(config_.node_id);
  requests_ = &registry.counter(prefix + ".requests");
  handled_ = &registry.counter(prefix + ".handled");
  errors_ = &registry.counter(prefix + ".errors");
  shed_ = &registry.counter(prefix + ".shed");
  err400_ = &registry.counter(prefix + ".err.400");
  err404_ = &registry.counter(prefix + ".err.404");
  err408_ = &registry.counter(prefix + ".err.408");
  err503_ = &registry.counter(prefix + ".err.503");
  shed_cgi_ = &registry.counter(prefix + ".overload.shed_cgi");
  shed_uncached_ = &registry.counter(prefix + ".overload.shed_uncached");
  shed_accept_ = &registry.counter(prefix + ".overload.shed_accept");
  inflight_ = &registry.gauge(prefix + ".inflight");
  // 0 = healthy, 1 = brownout, 2 = shedding (OverloadState's values).
  overload_gauge_ = &registry.gauge(prefix + ".overload_state");
  // Every per-phase histogram shares the log-bucket ladder so cross-node
  // merges stay legal (identical bounds) and one bucket vocabulary covers
  // 10 µs CGI bursts and 60 s stalls.
  for (const obs::Phase phase : obs::all_phases()) {
    phase_hist_[static_cast<std::size_t>(phase)] = &registry.histogram(
        prefix + ".phase." + obs::phase_name(phase), obs::log_latency_bounds());
  }
  if (config_.chaos.active()) {
    chaos_.configure(config_.chaos, config_.chaos_seed);
  }
  pool_ = std::make_unique<CgiPool>(std::max(1, config_.max_workers), wake_);
}

NodeServer::~NodeServer() { stop(); }

void NodeServer::stop_serving() {
  // The reactor thread first (the wake makes its epoll_wait return
  // promptly), then the CGI pool — a running handler finishes, its result
  // is simply never collected. Admitted connections are cleared strictly
  // after the join; destroying them closes the sockets — that is the drain.
  if (thread_.joinable()) {
    thread_.request_stop();
    wake_.notify();
    thread_.join();
  }
  pool_->stop();
  clear_conns();
}

void NodeServer::start() {
  if (thread_.joinable()) return;
  started_at_ = std::chrono::steady_clock::now();
  if (config_.tracer != nullptr) {
    config_.tracer->set_process_name(
        config_.node_id, "node " + std::to_string(config_.node_id));
  }
  pool_->start();
  thread_ = std::jthread(
      [this](const std::stop_token& token) { reactor_loop(token); });
  // First stamp from the caller's thread: the node is in the pool the
  // moment this returns, so a caller's immediate fetch cannot race the
  // loop's first tick and find the node still unavailable.
  board_.heartbeat(config_.node_id);
}

void NodeServer::stop() {
  const bool was_active = thread_.joinable();
  stop_serving();
  // Graceful leave: the node announces its departure instead of letting
  // the failure detector discover it (and unlike a sweep, this does not
  // count toward liveness.marked_down). The overload flag is cleared too —
  // a stopped node must not come back still branded browned-out.
  if (was_active) {
    board_.set_available(config_.node_id, false);
    board_.set_overloaded(config_.node_id, false);
  }
  crashed_ = false;
  hung_ = false;
}

void NodeServer::crash() {
  // Order matters: join the reactor thread before closing its listener fd
  // so the loop is never polling a dead descriptor. The board is
  // deliberately NOT told — discovering the silence is the failure
  // detector's job. Joining the loop silences the heartbeat too.
  stop_serving();
  listener_.close();
  crashed_ = true;
}

void NodeServer::hang() { hung_ = true; }

void NodeServer::recover() {
  if (crashed_) {
    // Same port: every peer captured it in set_peer_ports at cluster build.
    listener_ = TcpListener(listener_.port());
    pool_->start();
    thread_ = std::jthread(
        [this](const std::stop_token& token) { reactor_loop(token); });
  }
  crashed_ = false;
  hung_ = false;
  board_.heartbeat(config_.node_id);
}

std::chrono::milliseconds NodeServer::read_budget() const noexcept {
  return config_.header_timeout > 0ms ? config_.header_timeout
                                      : config_.io_timeout;
}

// --- The reactor loop ------------------------------------------------------

void NodeServer::reactor_loop(const std::stop_token& token) {
  // Availability is not set here: joining the pool is the heartbeat's job
  // (start()/recover() stamp the first lease, this loop's timer the rest),
  // and leaving is either stop()'s explicit announcement or — after a
  // crash — the failure detector's discovery.
  util::set_thread_log_context("node " + std::to_string(config_.node_id));
  epoller_ = std::make_unique<Epoller>();
  timers_ = TimerHeap{};
  // A zero period must not re-arm the tick at `now` forever.
  const auto heartbeat_period = std::max(config_.heartbeat_period, 1ms);
  timers_.arm(kHeartbeatTimer, 0,
              std::chrono::steady_clock::now() + heartbeat_period);
  listener_.set_nonblocking(true);
  // The listener and the wakeup stay level-triggered: a backlog left
  // behind by a transient accept error re-fires on the next wait instead
  // of starving until the next fresh connect.
  (void)epoller_->add(listener_.fd(), EPOLLIN, kListenerTag);
  (void)epoller_->add(wake_.fd(), EPOLLIN, kWakeTag);
  std::vector<Epoller::Event> events;
  events.reserve(64);
  while (!token.stop_requested()) {
    events.clear();
    epoller_->wait(events, timers_.next_delay(kLoopTick));
    if (token.stop_requested()) break;
    for (const Epoller::Event& event : events) {
      if (event.tag == kListenerTag) {
        accept_ready();
        continue;
      }
      if (event.tag == kWakeTag) {
        wake_.drain();
        for (CgiPool::Result& result : pool_->drain_results()) {
          finish_cgi(std::move(result));
        }
        continue;
      }
      const auto it = conns_.find(event.tag);
      if (it == conns_.end()) continue;  // closed before its event drained
      Conn& conn = *it->second;
      attend(conn);
      if ((event.events & (EPOLLERR | EPOLLHUP)) != 0) {
        // Force both directions live so the next syscall surfaces the
        // error instead of the state machine parking forever.
        conn.can_read = true;
        conn.can_write = true;
      }
      if ((event.events & (EPOLLIN | EPOLLRDHUP)) != 0) conn.can_read = true;
      if ((event.events & EPOLLOUT) != 0) conn.can_write = true;
      bool alive = true;
      if (conn.state == Conn::State::kReading) {
        alive = drive_read(conn);
      } else if (conn.state == Conn::State::kWriting) {
        alive = drive_write(conn);
      }
      // kCgiWait waits for its handback.
      if (alive) arm_conn_timer(conn);
    }
    TimerHeap::Entry due;
    const auto now = std::chrono::steady_clock::now();
    while (timers_.pop_due(now, due)) {
      if (due.conn_id == kHeartbeatTimer) {
        // The loadd tick: renew this node's lease and run the failure
        // detector. The lease thus attests that this loop runs. Fixed
        // delay: the next tick is one period after this one fired.
        if (!hung_) {
          board_.heartbeat(config_.node_id);
          board_.sweep_stale();
        }
        timers_.arm(kHeartbeatTimer, 0, now + heartbeat_period);
        continue;
      }
      const auto it = conns_.find(due.conn_id);
      if (it == conns_.end() || it->second->timer_gen != due.generation) {
        continue;  // stale entry: superseded, or the connection is gone
      }
      if (on_timer(*it->second)) arm_conn_timer(*it->second);
    }
    // Once per wake (at worst every kLoopTick, even idle): re-evaluate the
    // overload state machine and publish transitions to the board/gauge.
    evaluate_overload();
  }
  epoller_.reset();
  util::set_thread_log_context({});
}

void NodeServer::accept_ready() {
  // In shedding, arrivals are refused at the door regardless of the cap:
  // the node is behind on work it already holds, and the adaptive
  // Retry-After (estimated drain time) tells the herd when to come back.
  const bool shedding = overload_.state() == OverloadState::kShedding;
  for (;;) {
    auto stream = listener_.accept_nb();
    if (!stream) return;
    if (shedding) shed_accept_->inc();
    if (shedding || static_cast<int>(conns_.size()) >= connection_cap()) {
      shed(std::move(*stream));
    } else {
      admit(std::move(*stream));
    }
  }
}

void NodeServer::admit(TcpStream stream) {
  auto conn = std::make_unique<Conn>();
  Conn& c = *conn;
  c.stream = std::move(stream);
  c.id = next_conn_id_++;
  c.stream.set_faults(chaos_.admit());
  c.conn_faulted = c.stream.faulted();
  c.stream.set_nonblocking(true);
  c.parser = std::make_unique<http::RequestParser>();
  const auto now = std::chrono::steady_clock::now();
  c.accepted_at = now;
  c.phase_mark = now;
  c.read_deadline = deadline_after(read_budget());
  if (!epoller_->add(c.stream.fd(),
                     EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET, c.id)) {
    return;  // registration failed: drop the connection
  }
  conns_.emplace(c.id, std::move(conn));
  active_conns_.store(static_cast<int>(conns_.size()),
                      std::memory_order_relaxed);
  arm_conn_timer(c);
}

void NodeServer::shed(TcpStream stream) {
  shed_->inc();
  err503_->inc();
  // This connection never reaches connection_opened, so the Δ-inflation a
  // redirect placed on this (overloaded) node must be consumed here.
  board_.note_shed(config_.node_id);
  http::Response busy = http::make_error(http::Status::kServiceUnavailable,
                                         "connection limit reached");
  busy.headers.add("Server", kServerName);
  busy.headers.set("Connection", "close");
  busy.headers.set("Retry-After", std::to_string(handler_.retry_after_s()));
  // One non-blocking send from the loop: a fresh connection's send buffer
  // is empty, so the whole 503 fits. The connection was never admitted,
  // so it carries no link faults.
  const std::string wire = busy.serialize();
  const std::string_view segment = wire;
  (void)stream.write_some_v_nb(&segment, 1);
  stream.shutdown_write();
}

void NodeServer::evaluate_overload() {
  const OverloadState state =
      overload_.evaluate(board_.now_seconds(),
                         static_cast<int>(conns_.size()), connection_cap());
  if (state == published_overload_) return;
  published_overload_ = state;
  board_.set_overloaded(config_.node_id, state != OverloadState::kHealthy);
  overload_gauge_->set(static_cast<int>(state));
}

void NodeServer::force_overload(OverloadState state) {
  overload_.force_state(state, board_.now_seconds());
  board_.set_overloaded(config_.node_id, state != OverloadState::kHealthy);
  overload_gauge_->set(static_cast<int>(state));
}

void NodeServer::destroy_conn(std::uint64_t id) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn& c = *it->second;
  if (c.charge_open) {
    board_.connection_closed(config_.node_id, c.board_charge);
    c.charge_open = false;
  }
  if (c.inflight_marked) inflight_->add(-1);
  if (epoller_ != nullptr) epoller_->remove(c.stream.fd());
  conns_.erase(it);
  active_conns_.store(static_cast<int>(conns_.size()),
                      std::memory_order_relaxed);
}

void NodeServer::clear_conns() {
  for (auto& [id, conn] : conns_) {
    if (conn->charge_open) {
      board_.connection_closed(config_.node_id, conn->board_charge);
      conn->charge_open = false;
    }
    if (conn->inflight_marked) inflight_->add(-1);
  }
  conns_.clear();
  active_conns_.store(0, std::memory_order_relaxed);
}

void NodeServer::attend(Conn& c) {
  const auto now = std::chrono::steady_clock::now();
  if (c.first_attention) {
    // The accept→first-readiness gap is the reactor's queue_wait: time a
    // ready connection spent waiting for the loop's attention.
    c.first_attention = false;
    c.queue_wait_s =
        std::chrono::duration<double>(now - c.accepted_at).count();
    c.clock.add(obs::Phase::kQueueWait, c.queue_wait_s);
    // The same measurement feeds the overload controller: queue_wait
    // growing is the earliest sign the loop is falling behind arrivals.
    overload_.record_queue_delay(board_.now_seconds(), c.queue_wait_s);
    c.request_start = now;
    c.phase_mark = now;
    c.wait_phase = obs::Phase::kHeaderRead;
    return;
  }
  if (c.idle_wait) {
    // Keep-alive think time is the client's, not service — the clocks
    // restart when the next request's first byte arrives.
    c.phase_mark = now;
    return;
  }
  c.clock.add(c.wait_phase,
              std::chrono::duration<double>(now - c.phase_mark).count());
  c.phase_mark = now;
}

void NodeServer::lap(Conn& c, obs::Phase phase) {
  const auto now = std::chrono::steady_clock::now();
  c.clock.add(phase,
              std::chrono::duration<double>(now - c.phase_mark).count());
  c.phase_mark = now;
}

void NodeServer::begin_request_clock(Conn& c) {
  if (!c.idle_wait) return;
  const auto now = std::chrono::steady_clock::now();
  c.request_start = now;
  c.phase_mark = now;
  c.idle_wait = false;
}

void NodeServer::arm_conn_timer(Conn& c) {
  TimerHeap::TimePoint when;
  bool want = true;
  switch (c.state) {
    case Conn::State::kReading:
      when = c.read_deadline;
      break;
    case Conn::State::kWriting:
      if (c.has_write_deadline) {
        when = c.write_deadline;
      } else {
        want = false;
      }
      break;
    case Conn::State::kCgiWait:
      want = false;  // woken by the pool's handback, not a deadline
      break;
  }
  // A held read/send wakes when the link lets it through. Deadlines bound
  // waits on the peer, so they resume when the connection parks again —
  // injected delays never count against them.
  if (c.retry_at) {
    when = *c.retry_at;
    want = true;
  }
  if (!want) {
    ++c.timer_gen;  // invalidate whatever entry is still in the heap
    c.timer_armed = false;
    return;
  }
  if (c.timer_armed && c.timer_when == when) return;  // already armed
  ++c.timer_gen;
  c.timer_armed = true;
  c.timer_when = when;
  timers_.arm(c.id, c.timer_gen, when);
}

bool NodeServer::on_timer(Conn& c) {
  attend(c);
  c.timer_armed = false;  // this generation's entry was just consumed
  const auto now = std::chrono::steady_clock::now();
  if (c.retry_at) {
    if (now < *c.retry_at) return true;  // rounding; re-arm
    return c.state == Conn::State::kReading ? drive_read(c) : drive_write(c);
  }
  switch (c.state) {
    case Conn::State::kReading:
      if (now < c.read_deadline) return true;
      return read_timed_out(c);
    case Conn::State::kWriting:
      if (!c.has_write_deadline || now < c.write_deadline) return true;
      return write_complete(c, false);
    case Conn::State::kCgiWait:
      return true;
  }
  return true;
}

bool NodeServer::read_timed_out(Conn& c) {
  // Graceful silence for a keep-alive connection that simply went idle
  // between requests; a connection that ran out its budget mid-request (or
  // never sent its first one) is a slow client: tell it so and take the
  // slot back (the slowloris defense).
  if (c.served > 0 && !c.got_bytes) {
    destroy_conn(c.id);
    return false;
  }
  err408_->inc();
  errors_->inc();
  c.trace_id = config_.slow_log != nullptr ? next_request_id() : 0;
  return write_error(
      c, http::make_error(http::Status::kRequestTimeout,
                          "request not received within " +
                              std::to_string(read_budget().count()) + " ms"));
}

bool NodeServer::write_error(Conn& c, http::Response response) {
  response.headers.add("Server", kServerName);
  response.headers.set("Connection", "close");
  c.keep_alive = false;
  c.status = static_cast<int>(response.status);
  c.method.clear();
  c.path.clear();
  c.suppress_record = false;
  c.count_handled_on_success = false;  // counts even if the write fails
  return start_write(c, std::move(response), nullptr);
}

bool NodeServer::drive_read(Conn& c) {
  for (;;) {
    // Pipelined bytes first: a complete next request may already be here.
    if (!c.leftover.empty()) {
      begin_request_clock(c);
      c.got_bytes = true;
      std::size_t consumed = 0;
      const auto state = c.parser->feed(c.leftover, consumed);
      c.leftover.erase(0, consumed);
      lap(c, obs::Phase::kParse);
      if (state != http::ParseResult::kNeedMore) {
        return finish_parse(c, state);
      }
    }
    if (!c.can_read) return true;  // parked until the next EPOLLIN edge
    auto r = c.stream.read_nb(kReadChunk);
    if (!r.ok) {
      destroy_conn(c.id);
      return false;
    }
    c.retry_at = r.retry_at;
    if (c.retry_at) return true;  // held by the link: the timer re-drives
    if (r.would_block) {
      c.can_read = false;
      return true;
    }
    if (r.eof) {
      // Client went away between or within requests: drop silently.
      destroy_conn(c.id);
      return false;
    }
    begin_request_clock(c);
    c.got_bytes = true;
    lap(c, obs::Phase::kHeaderRead);
    std::size_t consumed = 0;
    const auto state = c.parser->feed(r.data, consumed);
    lap(c, obs::Phase::kParse);
    if (state != http::ParseResult::kNeedMore) {
      if (state == http::ParseResult::kComplete) {
        c.leftover.assign(r.data, consumed, r.data.size() - consumed);
      }
      return finish_parse(c, state);
    }
  }
}

bool NodeServer::finish_parse(Conn& c, http::ParseResult state) {
  // Resolve the request id only once the request is parsed: a redirected
  // request carries the id its origin node assigned (header or query
  // param), and reusing it is what stitches the two nodes' spans — and
  // the audit's decision/outcome — and the slow log's forensics — into
  // one logical request.
  c.trace_id = 0;
  if (tracing() || config_.audit != nullptr || config_.slow_log != nullptr) {
    if (state == http::ParseResult::kComplete) {
      const auto incoming = incoming_request_id(c.parser->message());
      c.trace_id = incoming ? *incoming : next_request_id();
    } else {
      c.trace_id = next_request_id();
    }
  }
  requests_->inc();
  inflight_->add(1);
  c.inflight_marked = true;

  if (state == http::ParseResult::kError) {
    err400_->inc();
    errors_->inc();
    return write_error(c, http::make_error(http::Status::kBadRequest,
                                           c.parser->error()));
  }

  const http::Request& request = c.parser->message();
  // HTTP/1.0: keep-alive only on explicit request (and not for the
  // headerless 0.9 simple requests).
  const auto connection_header = request.headers.get("Connection");
  const bool client_keep_alive =
      request.version_major >= 1 && connection_header.has_value() &&
      util::iequals(*connection_header, "keep-alive");
  c.keep_alive = client_keep_alive &&
                 c.served + 1 < config_.max_requests_per_connection;
  c.method = std::string(http::to_string(request.method));
  c.path = request.target;
  // Introspection polls (/sweb/status, /sweb/metrics) are excluded from
  // phase recording so a dashboard scraping every 250 ms cannot pollute
  // the latency story.
  c.suppress_record = request.target.rfind("/sweb/", 0) == 0;
  c.count_handled_on_success = true;

  const double attributed_before = c.clock.measured_sum();
  const auto process_start = std::chrono::steady_clock::now();
  ProcessOutcome out = handler_.handle(request, c.trace_id, c.clock);
  if (out.introspection == ProcessOutcome::Introspection::kStatus) {
    out.response = status_response();
  } else if (out.introspection == ProcessOutcome::Introspection::kMetrics) {
    out.response = metrics_response();
  }
  // Tile the decomposition: whatever the handler spent outside its
  // timed windows (target analysis, hop detection, completion bookkeeping,
  // error paths) lands in broker_decide — the paper's "SWEB analysis"
  // bucket — so the phase vector sums to the total.
  const double process_wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    process_start)
          .count();
  const double attributed = c.clock.measured_sum() - attributed_before;
  if (process_wall > attributed) {
    c.clock.add(obs::Phase::kBrokerDecide, process_wall - attributed);
  }
  c.phase_mark = std::chrono::steady_clock::now();

  if (out.cgi != nullptr) {
    // Offload the CPU-bound stage; the loop resumes at finish_cgi. The
    // request is copied into the job — the parser (and the connection)
    // could be gone before the handler runs.
    c.state = Conn::State::kCgiWait;
    c.wait_phase = obs::Phase::kCgiExec;
    c.board_charge = out.board_charge;
    c.charge_open = true;
    c.service_start_s = out.service_start_s;
    const auto submitted = std::chrono::steady_clock::now();
    pool_->submit(CgiPool::Job{
        c.id, [this, submitted, cgi = out.cgi, req = request,
               query = std::move(out.query)] {
          // Time on the pool's queue is queue delay every bit as much as
          // time between accept and the loop's first attention — and it is
          // the signal that keeps the controller engaged while a CGI
          // backlog drains, when the reactor-side symptoms (connection
          // pileup, accept latency) have already been relieved by the
          // brownout itself.
          overload_.record_queue_delay(
              board_.now_seconds(),
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            submitted)
                  .count());
          return (*cgi)(req, query);
        }});
    return true;
  }

  // A brownout 503 is response-scoped, not connection-scoped: a pipelined
  // keep-alive client with cheap cache-resident requests queued behind the
  // rejected one must get them served — that is the whole brownout
  // bargain. The slot itself is reclaimed by the accept-path shed once the
  // node escalates to kShedding.
  out.response.headers.add("Server", kServerName);
  out.response.headers.set("Connection",
                           c.keep_alive ? "Keep-Alive" : "close");
  c.status = static_cast<int>(out.response.status);
  return start_write(c, std::move(out.response), std::move(out.body));
}

void NodeServer::finish_cgi(CgiPool::Result result) {
  const auto it = conns_.find(result.conn_id);
  if (it == conns_.end()) return;  // connection died; its charge is closed
  Conn& c = *it->second;
  if (c.state != Conn::State::kCgiWait) return;
  attend(c);  // the async execution span lands in cgi_exec
  http::Response ok = std::move(result.response);
  handler_.complete_cgi(ok, c.trace_id, c.board_charge, c.service_start_s,
                        c.clock);
  c.charge_open = false;
  ok.headers.add("Server", kServerName);
  ok.headers.set("Connection", c.keep_alive ? "Keep-Alive" : "close");
  c.status = static_cast<int>(ok.status);
  if (start_write(c, std::move(ok), nullptr)) arm_conn_timer(c);
}

bool NodeServer::start_write(Conn& c, http::Response response,
                             std::shared_ptr<const std::string> body) {
  if (c.method == "HEAD") {
    // HEAD gets the headers the GET would have had and no body, whichever
    // path built the response (302, 404, CGI, ...): stray body bytes would
    // desync a keep-alive connection. A static HEAD arrives body-less with
    // the document's Content-Length already set.
    if (!response.body.empty()) {
      response.headers.set("Content-Length",
                           std::to_string(response.body.size()));
      response.body.clear();
    }
    body.reset();
  }
  // Zero-copy hot path: a cache-resident body is gather-written straight
  // from the DocStore's shared buffer (header block + body, one sendmsg at
  // a time) — it is never copied into the response. Everything else ships
  // as the single serialized string it always was.
  c.head = body != nullptr ? response.serialize_head() : response.serialize();
  c.body = std::move(body);
  c.written = 0;
  c.has_write_deadline = false;
  c.state = Conn::State::kWriting;
  c.wait_phase = obs::Phase::kWrite;
  c.phase_mark = std::chrono::steady_clock::now();
  return drive_write(c);
}

bool NodeServer::drive_write(Conn& c) {
  for (;;) {
    const std::size_t total =
        c.head.size() + (c.body != nullptr ? c.body->size() : 0);
    if (c.written >= total) return write_complete(c, true);
    if (!c.can_write) return true;  // parked until the next EPOLLOUT edge
    // Gather the remainder: serialized head first, then the shared body.
    std::string_view segments[2];
    std::size_t count = 0;
    if (c.written < c.head.size()) {
      segments[count++] = std::string_view(c.head).substr(c.written);
    }
    if (c.body != nullptr) {
      const std::size_t body_off =
          c.written > c.head.size() ? c.written - c.head.size() : 0;
      segments[count++] = std::string_view(*c.body).substr(body_off);
    }
    const auto w = c.stream.write_some_v_nb(segments, count);
    if (!w.ok) return write_complete(c, false);
    c.retry_at = w.retry_at;
    if (c.retry_at) return true;  // held by the link: the timer re-drives
    if (w.would_block) {
      // The deadline bounds stalls on the peer: it starts at the first.
      if (!c.has_write_deadline) {
        c.write_deadline = deadline_after(config_.io_timeout);
        c.has_write_deadline = true;
      }
      c.can_write = false;
      continue;  // loop top parks on !can_write
    }
    c.written += w.written;
  }
}

bool NodeServer::write_complete(Conn& c, bool ok) {
  lap(c, obs::Phase::kWrite);
  const double total_s =
      (c.served == 0 ? c.queue_wait_s : 0.0) +
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    c.request_start)
          .count();
  c.clock.add(obs::Phase::kTotal, total_s);
  if (!c.suppress_record) {
    record_phases(c.clock, c.trace_id, c.method, c.path, c.status,
                  c.conn_faulted);
  }
  if (ok || !c.count_handled_on_success) handled_->inc();
  // Work leaving the system: the completion rate prices drain estimates.
  overload_.record_completion(board_.now_seconds());
  if (c.inflight_marked) {
    inflight_->add(-1);
    c.inflight_marked = false;
  }
  if (!ok || !c.keep_alive) {
    if (ok) c.stream.shutdown_write();
    destroy_conn(c.id);
    return false;
  }
  reset_for_next_request(c);
  return drive_read(c);
}

void NodeServer::reset_for_next_request(Conn& c) {
  c.served += 1;
  c.parser = std::make_unique<http::RequestParser>();
  c.clock = obs::PhaseClock{};
  c.got_bytes = false;
  c.keep_alive = false;
  c.trace_id = 0;
  c.state = Conn::State::kReading;
  c.wait_phase = obs::Phase::kHeaderRead;
  c.idle_wait = true;
  c.head.clear();
  c.body.reset();
  c.written = 0;
  c.status = 0;
  c.method.clear();
  c.path.clear();
  c.has_write_deadline = false;
  c.inflight_marked = false;
  c.queue_wait_s = 0.0;
  c.read_deadline = deadline_after(read_budget());
  c.phase_mark = std::chrono::steady_clock::now();
}

void NodeServer::record_phases(const obs::PhaseClock& clock,
                               std::uint64_t trace_id,
                               const std::string& method,
                               const std::string& path, int status,
                               bool chaos_faulted) {
  for (const obs::Phase phase : obs::all_phases()) {
    if (clock.touched(phase)) {
      phase_hist_[static_cast<std::size_t>(phase)]->observe(
          clock.seconds(phase));
    }
  }
  if (tracing()) {
    // The trace speaks the phase vocabulary: one span per entered phase,
    // carrying its measured duration, laid back to back in taxonomy order
    // so the last one ends now. (total is the whole row, not a span.)
    double ts_s = config_.tracer->now_seconds() - clock.measured_sum();
    for (const obs::Phase phase : obs::all_phases()) {
      if (phase == obs::Phase::kTotal || !clock.touched(phase)) continue;
      obs::TraceSpan span;
      span.name = obs::phase_name(phase);
      span.category = "phase";
      span.ts_s = ts_s;
      span.dur_s = clock.seconds(phase);
      span.pid = config_.node_id;
      span.tid = static_cast<std::int64_t>(trace_id);
      config_.tracer->add_span(std::move(span));
      ts_s += clock.seconds(phase);
    }
  }
  if (config_.slow_log == nullptr) return;
  const double budget_s =
      std::chrono::duration<double>(config_.slow_budget).count();
  const double total_s = clock.seconds(obs::Phase::kTotal);
  const bool over_budget = budget_s > 0.0 && total_s > budget_s;
  // Only outliers pay for forensics: budget breaches, plus every request
  // that rode a chaos-faulted connection (the drill's evidence trail).
  if (!over_budget && !chaos_faulted) return;
  obs::SlowRequestRecord record;
  record.ts_s = board_.now_seconds();
  record.rid = trace_id;
  record.node = config_.node_id;
  record.method = method;
  record.path = path;
  record.status = status;
  record.redirected = status == 302;
  record.chaos_faulted = chaos_faulted;
  record.total_s = total_s;
  record.budget_s = budget_s;
  for (const obs::Phase phase : obs::all_phases()) {
    const auto i = static_cast<std::size_t>(phase);
    record.phase_s[i] = clock.touched(phase) ? clock.seconds(phase) : -1.0;
  }
  config_.slow_log->record(std::move(record));
}

std::uint64_t NodeServer::next_request_id() {
  // The shared tracer's counter keeps ids cluster-unique (it works even
  // when tracing itself is disabled); a lone node falls back to its own.
  if (config_.tracer != nullptr) return config_.tracer->next_request_id();
  return local_ids_.fetch_add(1, std::memory_order_relaxed);
}

http::Response NodeServer::metrics_response() const {
  http::Response response =
      http::make_ok(obs::prometheus_text(config_.registry->snapshot()),
                    "text/plain; version=0.0.4; charset=utf-8");
  response.headers.set("Cache-Control", "no-store");
  return response;
}

http::Response NodeServer::status_response() const {
  const double uptime =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started_at_)
          .count();
  const double board_now = board_.now_seconds();
  const std::vector<NodeLoad> loads = board_.snapshot_all();

  obs::JsonWriter w;
  w.begin_object();
  w.key("node").value(config_.node_id);
  w.key("server").value(kServerName);
  w.key("uptime_seconds").value(uptime);
  w.key("requests_handled").value(requests_handled());
  w.key("inflight").value(inflight_->value());
  w.key("workers").value(
      static_cast<std::int64_t>(std::max(1, config_.max_workers)));
  // The admission story: connections held right now, and the cap past
  // which arrivals are shed.
  w.key("connections")
      .value(static_cast<std::int64_t>(active_connections()));
  w.key("max_connections")
      .value(static_cast<std::int64_t>(connection_cap()));
  w.key("shed").value(shed_count());
  // Which kind of degradation this node is suffering, not just how much:
  // 400 = malformed input, 404 = misses, 408 = slow clients timed out,
  // 503 = load shed (cap/accept refusals plus brownout class rejections).
  // sweb-top sums these into its ERR column.
  w.key("errors_by_reason").begin_object();
  w.key("400").value(err400_->value());
  w.key("404").value(err404_->value());
  w.key("408").value(err408_->value());
  w.key("503").value(err503_->value());
  w.end_object();
  // Overload control: the admission governor's state and the signals it
  // runs on. States: "healthy" | "brownout" | "shedding"; sheds by class
  // show *why* a degraded node is refusing work (sweb-top's OVLD column
  // reads "state"; "enabled" false means the PR-9 static-cap behavior).
  w.key("overload").begin_object();
  w.key("enabled").value(overload_.enabled());
  w.key("state").value(std::string(overload_state_name(overload_.state())));
  w.key("queue_delay_estimate_s").value(overload_.queue_delay_estimate_s());
  w.key("completion_rate_rps").value(overload_.completion_rate_rps());
  w.key("estimated_drain_s").value(overload_.estimated_drain_s());
  w.key("retry_after_s")
      .value(static_cast<std::int64_t>(handler_.retry_after_s()));
  w.key("transitions").value(overload_.transitions());
  w.key("shed_cgi").value(shed_cgi_->value());
  w.key("shed_uncached").value(shed_uncached_->value());
  w.key("shed_accept").value(shed_accept_->value());
  w.end_object();
  // Chaos: whether this node's link is artificially degraded, and the
  // damage done so far (only present knobs; an inert node reports false/0).
  w.key("chaos").begin_object();
  w.key("enabled").value(chaos_.enabled());
  w.key("connections_faulted").value(chaos_.connections_faulted());
  w.key("resets_injected").value(chaos_.resets_injected());
  w.end_object();
  // Liveness: this node's own availability (as the shared board sees it)
  // and the lease parameters the failure detector runs with.
  w.key("available")
      .value(loads[static_cast<std::size_t>(config_.node_id)].available);
  w.key("heartbeat_period_s")
      .value(std::chrono::duration<double>(config_.heartbeat_period).count());
  w.key("staleness_timeout_s").value(board_.liveness().staleness_timeout_s);
  // Per-phase latency breakdown: the streaming log-bucket histograms
  // compressed to count + p50/p95/p99. All eight phases always appear
  // (count 0 when nothing recorded yet) so scrapers key on a fixed shape.
  w.key("phases").begin_object();
  for (const obs::Phase phase : obs::all_phases()) {
    const auto value = obs::histogram_value(
        *phase_hist_[static_cast<std::size_t>(phase)]);
    w.key(obs::phase_name(phase)).begin_object();
    w.key("count").value(value.count);
    w.key("p50_s").value(obs::histogram_quantile(value, 0.50));
    w.key("p95_s").value(obs::histogram_quantile(value, 0.95));
    w.key("p99_s").value(obs::histogram_quantile(value, 0.99));
    w.end_object();
  }
  w.end_object();
  // Runtime page cache: this node's residency budget and hit/miss history
  // — the zero-copy hot path's scoreboard (sweb-top's CACHE column reads
  // hits/misses; the broker's discount reads residency live).
  w.key("cache").begin_object();
  // A node without a cache reports an empty zero-budget one (fixed shape).
  static const NodeCache kNoCache(0);
  const bool cached = config_.caches != nullptr && config_.caches->enabled();
  const NodeCache& cache =
      cached ? config_.caches->node(config_.node_id) : kNoCache;
  w.key("enabled").value(cached);
  w.key("capacity_bytes").value(cache.capacity());
  w.key("used_bytes").value(cache.used());
  w.key("entries").value(cache.entries());
  w.key("hits").value(cache.hits());
  w.key("misses").value(cache.misses());
  w.key("hit_rate").value(cache.hit_rate());
  w.end_object();
  // Slow-request forensics: how many outliers the attached slow log has
  // taken cluster-wide, and the budget this node enforces.
  w.key("slow").begin_object();
  w.key("budget_s")
      .value(std::chrono::duration<double>(config_.slow_budget).count());
  if (config_.slow_log != nullptr) {
    w.key("records").value(config_.slow_log->total_recorded());
  } else {
    w.key("records").value(std::uint64_t{0});
  }
  w.end_object();
  w.key("board").begin_array();
  for (std::size_t n = 0; n < loads.size(); ++n) {
    const NodeLoad& l = loads[n];
    w.begin_object();
    w.key("node").value(static_cast<std::int64_t>(n));
    w.key("self").value(static_cast<int>(n) == config_.node_id);
    w.key("active_connections").value(l.active_connections);
    w.key("bytes_in_flight").value(l.bytes_in_flight);
    w.key("served").value(l.served);
    w.key("redirected").value(l.redirected);
    w.key("available").value(l.available);
    w.key("overloaded").value(l.overloaded);
    w.key("redirect_inflation").value(l.redirect_inflation);
    // Age of the last board update for this peer — the runtime analogue of
    // "how stale is this loadd broadcast".
    if (l.last_update_s >= 0.0) {
      w.key("age_seconds").value(board_now - l.last_update_s);
    } else {
      w.key("age_seconds").raw("null");
    }
    // Age of the liveness lease specifically — what sweep_stale compares
    // against the staleness timeout.
    if (l.last_heartbeat_s >= 0.0) {
      w.key("heartbeat_age_seconds").value(board_now - l.last_heartbeat_s);
    } else {
      w.key("heartbeat_age_seconds").raw("null");
    }
    w.end_object();
  }
  w.end_array();
  w.key("metrics").raw(config_.registry->to_json());
  w.end_object();

  http::Response response = http::make_ok(w.str(), "application/json");
  response.headers.set("Cache-Control", "no-store");
  return response;
}

}  // namespace sweb::runtime
