// One SWEB node as a real concurrent HTTP server.
//
// Each NodeServer runs the paper's per-node pipeline against live sockets:
// accept -> parse (preprocess) -> broker decision -> 302 redirect to a
// better node, or serve the document. The decision itself is the
// socket-free RequestHandler (request_handler.h); the NodeServer owns the
// connections, the loop, the timers and the CGI pool around it.
//
// Concurrency: a single reactor thread runs an edge-triggered epoll event
// loop over nonblocking sockets. Every connection is a small state machine
// (header read -> parse -> serve -> write) that resumes partial reads and
// writes on readiness, so an idle keep-alive connection costs a few hundred
// bytes of state instead of a parked thread — concurrency is bounded by
// Config::max_connections (default 48), not by a thread count. Connections
// past the cap are shed with 503 Service Unavailable, which is what makes
// the broker's effective_connections() signal meaningful. Deadlines (the
// slowloris 408 header budget, silent idle keep-alive close, write stalls),
// the retry times of reads/sends a degraded link holds (chaos.h) and the
// loadd heartbeat share one lazily invalidated min-heap of timers, due on
// the board's Clock. CGI handlers (the only CPU-bound stage) run on
// Config::max_workers pool threads, the node's only others, and hand
// results back via an eventfd. The loop body is run_once(): the reactor
// thread calls it, and a test can call it instead to step the node.
//
// Observability: each fact has one store. Counters and gauges live in the
// registry (the attached one, or one the node owns when none is attached);
// the accessors below read it. Request timing is one PhaseClock per
// request (obs/phase.h). Every node serves GET /sweb/status — a JSON
// snapshot of its loadd view (each peer's last update and age,
// Δ-inflation), its counters, and the registry — and GET /sweb/metrics,
// the same registry in Prometheus text-exposition format. With a
// SpanTracer enabled, each recorded request leaves one span per phase it
// entered, derived from its PhaseClock; the request id is propagated
// through the 302 (`sweb-rid` query param + X-SWEB-Request-Id header) so
// the origin and target nodes' spans stitch into one logical trace.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "http/message.h"
#include "http/parser.h"
#include "obs/audit.h"
#include "obs/phase.h"
#include "obs/registry.h"
#include "obs/slow_log.h"
#include "obs/trace.h"
#include "runtime/chaos.h"
#include "runtime/doc_store.h"
#include "runtime/load_board.h"
#include "runtime/node_cache.h"
#include "runtime/overload.h"
#include "runtime/reactor.h"
#include "runtime/request_handler.h"
#include "runtime/socket.h"

namespace sweb::runtime {

class NodeServer {
 public:
  struct Config {
    int node_id = 0;
    /// Off: the broker never 302s, every request is served here.
    bool enable_redirects = true;
    std::chrono::milliseconds io_timeout{2000};
    /// HTTP/1.0 keep-alive: requests served on one connection before the
    /// server closes it anyway (a fairness/robustness cap).
    int max_requests_per_connection = 32;
    /// CGI execution pool: the reactor offloads CGI handlers (the only
    /// CPU-bound stage) to up to this many threads (clamped to >= 1).
    int max_workers = 16;
    /// Hard cap on concurrently admitted connections (clamped to >= 1);
    /// arrivals past it are shed with 503.
    int max_connections = 48;
    /// Liveness lease period: how often the reactor's loadd timer stamps
    /// this node's LoadBoard entry (the paper's 2-3 s tick; sub-second in
    /// tests). Each stamp also runs the board's failure detector, so peers
    /// whose stamps aged past the staleness timeout get marked unavailable.
    std::chrono::milliseconds heartbeat_period{2000};
    /// Slowloris defense: one overall deadline for receiving a complete
    /// request (header + body) before the node answers 408 Request
    /// Timeout and reclaims the connection. Zero falls back to io_timeout.
    std::chrono::milliseconds header_timeout{0};
    /// The Retry-After hint attached to shed 503s (rounded up to whole
    /// seconds on the wire, clamped to [1, 120]; retry-capable clients
    /// honor it). With the overload controller enabled this is only the
    /// fallback — the hint becomes the controller's estimated drain time.
    std::chrono::milliseconds retry_after_hint{1000};
    /// Overload control (off by default): the reactor samples queue delay
    /// and in-flight work into an OverloadController; brownout sheds CGI
    /// and non-resident documents, shedding refuses at accept with an
    /// adaptive Retry-After, and the broker routes 302s around the node.
    OverloadParams overload{};
    /// Degraded-link fault injection applied to every connection this node
    /// admits (chaos drills); an inactive plan (the default) is free.
    FaultPlan chaos{};
    std::uint64_t chaos_seed = ChaosDirector::kDefaultSeed;
    /// This node's residency cache (typically one of the MiniCluster's;
    /// null when caching is off — every static response then takes the
    /// copy path).
    NodeCache* cache = nullptr;
    /// Optional telemetry sinks (typically the MiniCluster's; may be null —
    /// a node without a registry owns one).
    obs::Registry* registry = nullptr;
    obs::SpanTracer* tracer = nullptr;
    /// Shared decision audit: the origin node records the brokered choice,
    /// the serving node joins it with observed durations. The request id
    /// rides the 302 (`sweb-rid` query param / X-SWEB-Request-Id header)
    /// so cross-node joins land; timestamps come from the shared
    /// LoadBoard clock.
    obs::DecisionAudit* audit = nullptr;
    /// Slow-request forensics sink (typically the MiniCluster's; may be
    /// null). A request whose measured total exceeds `slow_budget` — or
    /// that rode a chaos-faulted connection — leaves one JSONL record
    /// carrying its full phase vector and request id.
    obs::SlowLog* slow_log = nullptr;
    /// The slow budget. Zero: only chaos-faulted requests are recorded.
    std::chrono::milliseconds slow_budget{0};
  };

  /// Binds an ephemeral loopback port immediately; serving starts at
  /// start() (or the first run_once()). `peer_ports` must be filled (by
  /// the MiniCluster) before then so redirects know the other nodes'
  /// addresses. Deadlines, timers and link faults run on board.clock().
  NodeServer(Config config, const DocStore& docs, LoadBoard& board);
  ~NodeServer();
  NodeServer(const NodeServer&) = delete;
  NodeServer& operator=(const NodeServer&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept {
    return listener_.port();
  }
  [[nodiscard]] int node_id() const noexcept { return config_.node_id; }

  void set_peer_ports(std::vector<std::uint16_t> ports) {
    handler_.set_peer_ports(std::move(ports));
  }

  /// Opens the loop (joining the board) and runs it on the reactor thread.
  void start();
  /// Closes the loop and announces the leave on the board.
  void stop();
  /// One turn of the loop, the reactor thread's whole body: waits up to
  /// `max_wait` for socket events, dispatches them, fires the timers due
  /// at the clock's now, and evaluates overload once. A test steps a node
  /// that was never start()ed by calling it directly (the first call opens
  /// the loop); a crashed node's turn does nothing.
  void run_once(std::chrono::milliseconds max_wait);

  // --- Fault injection (tests, benches, chaos drills) --------------------
  /// Abrupt node death: closes the listener (connects are refused), joins
  /// the reactor (its heartbeat timer dies with it) and the CGI pool —
  /// WITHOUT touching the board's availability. Peers must discover the
  /// death via the failure detector, exactly as they would a real crash.
  void crash();
  /// Zombie node: stops heartbeating only. The node still accepts and
  /// serves, but its liveness lease lapses and peers mark it unavailable.
  void hang();
  /// Undoes crash()/hang(): rebinds the same port if the node crashed
  /// (restarting the threads of a start()ed node; a stepped node's next
  /// run_once reopens its loop), and stamps the lease before returning —
  /// the board re-admits the node on that stamp (counted as a rejoin).
  void recover();

  /// The injector itself (tests read connections_faulted/resets_injected).
  [[nodiscard]] ChaosDirector& chaos() noexcept { return chaos_; }

  /// Requests answered (node.N.handled).
  [[nodiscard]] std::uint64_t requests_handled() const noexcept {
    return handled_->value();
  }
  /// Admitted connections currently held by the reactor.
  [[nodiscard]] int active_connections() const noexcept {
    return active_conns_.load(std::memory_order_relaxed);
  }
  /// The admission cap: connections at/past it are shed with 503.
  [[nodiscard]] int connection_cap() const noexcept {
    return std::max(1, config_.max_connections);
  }
  /// Connections answered 503 at accept — past the cap, or refused while
  /// shedding (node.N.shed).
  [[nodiscard]] std::uint64_t shed_count() const noexcept {
    return shed_->value();
  }
  /// Per-reason client-visible error counts (node.N.err.<code>, also in
  /// /sweb/status under "errors_by_reason").
  [[nodiscard]] std::uint64_t bad_requests() const noexcept {
    return err400_->value();
  }
  [[nodiscard]] std::uint64_t request_timeouts() const noexcept {
    return err408_->value();
  }
  [[nodiscard]] std::uint64_t not_found() const noexcept {
    return err404_->value();
  }

  // --- Overload control ---------------------------------------------------
  /// The admission governor (tests read estimates and transition counts).
  [[nodiscard]] const OverloadController& overload() const noexcept {
    return overload_;
  }
  [[nodiscard]] OverloadState overload_state() const {
    return overload_.state();
  }
  /// Test/drill hook: pin the controller's state and publish it (board
  /// flag + gauge) immediately, without waiting for the reactor's next
  /// evaluation. Pair with a large min_dwell_s (or a disabled controller)
  /// when the pin must hold against evaluate().
  void force_overload(OverloadState state);
  /// Brownout rejections by class, plus accepts refused while shedding.
  [[nodiscard]] std::uint64_t overload_shed_cgi() const noexcept {
    return shed_cgi_->value();
  }
  [[nodiscard]] std::uint64_t overload_shed_uncached() const noexcept {
    return shed_uncached_->value();
  }
  [[nodiscard]] std::uint64_t overload_shed_accept() const noexcept {
    return shed_accept_->value();
  }

 private:
  /// Per-connection state machine. Owned by the reactor loop; every field
  /// is touched from the loop thread only.
  struct Conn {
    enum class State {
      kReading,  // pumping header/body bytes into the parser
      kCgiWait,  // handler running on the CGI pool; awaiting handback
      kWriting,  // pumping the response out
    };

    TcpStream stream;
    std::uint64_t id = 0;
    State state = State::kReading;
    bool can_read = false;   // edge-triggered readiness cache
    bool can_write = true;   // a fresh socket is writable
    bool conn_faulted = false;

    // Request framing.
    std::unique_ptr<http::RequestParser> parser;
    std::string leftover;  // bytes past the parsed request (pipelining)
    int served = 0;        // requests completed on this connection
    bool got_bytes = false;
    bool keep_alive = false;

    // Deadlines, on the board's clock (enforced through the timer heap).
    Clock::TimePoint read_deadline{};
    Clock::TimePoint write_deadline{};
    bool has_write_deadline = false;  // armed at the first stall on the peer
    // Set while the stream holds the next read/send (a link fault): the
    // timer re-drives the connection then.
    std::optional<Clock::TimePoint> retry_at;
    std::uint64_t timer_gen = 0;  // lazy invalidation of heap entries
    bool timer_armed = false;
    Clock::TimePoint timer_when{};

    // Phase attribution: every gap between attentions is charged to
    // wait_phase; synchronous work laps directly.
    obs::PhaseClock clock;
    std::chrono::steady_clock::time_point accepted_at{};
    std::chrono::steady_clock::time_point request_start{};
    std::chrono::steady_clock::time_point phase_mark{};
    obs::Phase wait_phase = obs::Phase::kQueueWait;
    bool first_attention = true;
    bool idle_wait = false;  // keep-alive think time: gap not charged
    double queue_wait_s = 0.0;
    std::uint64_t trace_id = 0;
    bool inflight_marked = false;

    // Response write state.
    std::string head;  // serialized head (zero-copy) or whole response
    std::shared_ptr<const std::string> body;  // zero-copy shared body
    std::size_t written = 0;
    int status = 0;
    std::string method;
    std::string path;
    bool suppress_record = false;        // /sweb/* scrape exclusion
    bool count_handled_on_success = false;

    // CGI handback state.
    std::uint64_t board_charge = 0;
    bool charge_open = false;  // board connection_opened awaiting close
    double service_start_s = 0.0;
  };

  // --- Reactor loop -------------------------------------------------------
  void reactor_loop(const std::stop_token& token);
  /// Registers the listener and wakeup, arms the loadd tick, starts the
  /// CGI pool and stamps the first lease.
  void open_loop();
  void accept_ready();
  void admit(TcpStream stream);
  void shed(TcpStream stream);
  void destroy_conn(std::uint64_t id);
  void clear_conns();
  /// Charges the gap since the last attention to the connection's wait
  /// phase (or starts the request clocks on first/idle attention).
  void attend(Conn& conn);
  void lap(Conn& conn, obs::Phase phase);
  /// Restarts the request clocks when the first byte of a keep-alive
  /// request arrives (think time excluded).
  void begin_request_clock(Conn& conn);
  /// Pumps reads/parse until EAGAIN, a held read, or a complete request.
  /// All drive_*/finish_* helpers return false when the connection was
  /// destroyed.
  [[nodiscard]] bool drive_read(Conn& conn);
  [[nodiscard]] bool finish_parse(Conn& conn, http::ParseResult state);
  [[nodiscard]] bool start_write(Conn& conn, http::Response response,
                                 std::shared_ptr<const std::string> body);
  [[nodiscard]] bool drive_write(Conn& conn);
  [[nodiscard]] bool write_complete(Conn& conn, bool ok);
  void reset_for_next_request(Conn& conn);
  [[nodiscard]] bool on_timer(Conn& conn);
  [[nodiscard]] bool read_timed_out(Conn& conn);
  /// Answers an unparsed request (400, 408) and closes after the write.
  [[nodiscard]] bool write_error(Conn& conn, http::Response response);
  void arm_conn_timer(Conn& conn);
  void finish_cgi(CgiPool::Result result);
  /// Re-evaluates the overload state machine (once per loop wake) and, on
  /// a transition, publishes it: LoadBoard overload flag + state gauge.
  void evaluate_overload();
  [[nodiscard]] std::chrono::milliseconds read_budget() const noexcept;

  // Reactor thread, CGI pool, admitted connections; closes the loop.
  void stop_serving();

  /// Flushes a finished request's phase vector into the per-phase
  /// histograms; with tracing on, into one span per entered phase (laid
  /// back to back in taxonomy order, ending now); and, when it blew the
  /// slow budget or rode a chaos-faulted connection, into the slow log.
  void record_phases(const obs::PhaseClock& clock, std::uint64_t trace_id,
                     const std::string& method, const std::string& path,
                     int status, bool chaos_faulted);

  /// The /sweb/status introspection body: this node's view of the world.
  [[nodiscard]] http::Response status_response() const;
  /// The /sweb/metrics body: the registry in Prometheus text format.
  [[nodiscard]] http::Response metrics_response() const;

  /// Fresh cluster-unique request id (tracer-backed when one is attached,
  /// else node-local).
  [[nodiscard]] std::uint64_t next_request_id();

  [[nodiscard]] bool tracing() const noexcept {
    return config_.tracer != nullptr && config_.tracer->enabled();
  }

  /// Backs config_.registry when none was attached (declared first, so it
  /// is destroyed after everything that points into it).
  std::unique_ptr<obs::Registry> own_registry_;
  Config config_;
  LoadBoard& board_;
  const Clock& clock_;  // the board's: what is due when
  OverloadController overload_;
  /// The per-request decision (reads overload_, so declared after it).
  RequestHandler handler_;
  /// Last state pushed to the board/gauge; reactor-thread-only (forced
  /// publishes from test threads write the board directly and converge).
  OverloadState published_overload_ = OverloadState::kHealthy;
  ChaosDirector chaos_;
  TcpListener listener_;
  std::jthread thread_;  // the reactor loop, which also runs the heartbeat
  bool threaded_ = false;  // start()ed, not stepped: recover() respawns
  // Reactor state: owned and touched by the loop thread only (stop_serving
  // clears conns_ strictly after joining the thread). The loop is open
  // while epoller_ is set.
  WakeFd wake_;
  std::unique_ptr<CgiPool> pool_;
  std::unique_ptr<Epoller> epoller_;
  std::vector<Epoller::Event> events_;
  TimerHeap timers_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  std::uint64_t next_conn_id_ = 2;  // 0/1 tag the listener and the wakeup
  std::atomic<int> active_conns_{0};
  std::atomic<std::uint64_t> local_ids_{1};  // fallback id source, no tracer
  std::chrono::steady_clock::time_point started_at_{};
  bool crashed_ = false;
  // Set by hang() from a test thread; the reactor's heartbeat timer skips
  // its stamp and sweep while it holds.
  std::atomic<bool> hung_{false};

  // Cached registry instruments (never null: the registry always exists).
  obs::Counter* requests_ = nullptr;
  obs::Counter* handled_ = nullptr;
  obs::Counter* errors_ = nullptr;
  obs::Counter* shed_ = nullptr;
  // Per-reason error counters (node.N.err.400/404/408/503): which kind of
  // degradation a node is suffering, not just how much.
  obs::Counter* err400_ = nullptr;
  obs::Counter* err404_ = nullptr;
  obs::Counter* err408_ = nullptr;
  obs::Counter* err503_ = nullptr;
  // Overload sheds by class: brownout rejections (CGI, non-resident
  // documents) and accepts refused while shedding.
  obs::Counter* shed_cgi_ = nullptr;
  obs::Counter* shed_uncached_ = nullptr;
  obs::Counter* shed_accept_ = nullptr;
  obs::Gauge* inflight_ = nullptr;
  obs::Gauge* overload_gauge_ = nullptr;
  // Per-phase streaming histograms (node.N.phase.<name>, log-bucketed
  // √2 ladder).
  std::array<obs::Histogram*, obs::kPhaseCount> phase_hist_{};
};

}  // namespace sweb::runtime
