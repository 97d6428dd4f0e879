#include "runtime/request_handler.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>

#include "http/date.h"
#include "http/mime.h"
#include "http/url.h"

namespace sweb::runtime {

namespace {

// The broker's fixed coefficients. A peer must be at least this many
// connections lighter to redirect to.
constexpr double kMinConnectionAdvantage = 2.0;
// Bytes in flight that weigh as much as one active connection when the
// broker compares candidates, so a node streaming a few large documents
// stops looking idle next to one serving many small ones.
constexpr double kBytesPerConnection = 64.0 * 1024.0;

// Cost-prediction constants for the decision audit. The runtime broker
// decides on connection counts; these let it also express that decision
// in the paper's cost terms (t_redirection + t_data + t_cpu) so the audit
// can grade the prediction against observed durations. They do NOT
// influence which node is chosen.
constexpr double kRedirectRttS = 1e-3;      // loopback 302 + reconnect
constexpr double kDiskBytesPerSec = 20e6;   // per-request data bandwidth
constexpr double kRequestCpuS = 2e-4;       // parse + serve CPU per request

[[nodiscard]] std::optional<std::uint64_t> parse_u64(std::string_view text) {
  std::uint64_t value = 0;
  const auto* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value == 0) return std::nullopt;
  return value;
}

/// The value of the `key=value` parameter in `query` (no leading '?'),
/// matched as a whole parameter: "xkey=1", "a=key=1" and "key=10" are not
/// `key` = "1". The last one wins: a 302 appends its marker and request id
/// after whatever query the client sent.
[[nodiscard]] std::optional<std::string_view> query_param(
    std::string_view query, std::string_view key) {
  std::optional<std::string_view> value;
  for (;;) {
    const std::size_t amp = query.find('&');
    const std::string_view param = query.substr(0, amp);
    if (param.size() > key.size() && param.substr(0, key.size()) == key &&
        param[key.size()] == '=') {
      value = param.substr(key.size() + 1);
    }
    if (amp == std::string_view::npos) return value;
    query.remove_prefix(amp + 1);
  }
}

[[nodiscard]] double seconds_since(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t)
      .count();
}

}  // namespace

std::optional<std::uint64_t> incoming_request_id(
    const http::Request& request) {
  if (const auto header = request.headers.get("X-SWEB-Request-Id")) {
    if (const auto id = parse_u64(*header)) return id;
  }
  const std::string_view target = request.target;
  const std::size_t mark = target.find('?');
  if (mark == std::string_view::npos) return std::nullopt;
  const auto rid = query_param(target.substr(mark + 1), "sweb-rid");
  return rid ? parse_u64(*rid) : std::nullopt;
}

RequestHandler::RequestHandler(int node_id, bool enable_redirects,
                               std::chrono::milliseconds retry_after_hint,
                               const DocStore& docs, LoadBoard& board,
                               NodeCache* cache,
                               const OverloadController& overload,
                               obs::Registry& registry,
                               obs::DecisionAudit* audit,
                               obs::SpanTracer* tracer)
    : self_(node_id),
      enable_redirects_(enable_redirects),
      retry_after_hint_(retry_after_hint),
      docs_(docs),
      board_(board),
      cache_(cache),
      overload_(overload),
      audit_(audit),
      tracer_(tracer) {
  const std::string prefix = "node." + std::to_string(node_id);
  redirects_ = &registry.counter(prefix + ".redirects");
  errors_ = &registry.counter(prefix + ".errors");
  err404_ = &registry.counter(prefix + ".err.404");
  err503_ = &registry.counter(prefix + ".err.503");
  shed_cgi_ = &registry.counter(prefix + ".overload.shed_cgi");
  shed_uncached_ = &registry.counter(prefix + ".overload.shed_uncached");
}

int RequestHandler::retry_after_s() const {
  const double hint_s =
      std::chrono::duration<double>(retry_after_hint_).count();
  if (overload_.enabled()) {
    // Adaptive: the controller's estimated drain time (in-flight work over
    // the recent completion rate), so a deep backlog asks the herd to stay
    // away longer than a graze past the cap does.
    return overload_.retry_after_seconds(hint_s);
  }
  // Whole seconds on the wire (HTTP/1.0 delta-seconds), rounded up so a
  // sub-second hint never collapses to "retry immediately", and clamped so
  // a wild hint cannot park clients for minutes.
  const double whole = std::ceil(std::max(hint_s, 0.0));
  return static_cast<int>(std::clamp(whole, 1.0, 120.0));
}

int RequestHandler::choose_node(int owner,
                                const std::vector<NodeLoad>& loads) const {
  // Δ-inflation included: redirects already aimed at a node count as load
  // even before their connections arrive (the unsynchronized-herd guard).
  // Bytes in flight weigh in too, scaled to connection units, so a node
  // streaming a few large documents does not masquerade as idle.
  const auto load_of = [&](int n) {
    const NodeLoad& l = loads[static_cast<std::size_t>(n)];
    return static_cast<double>(l.effective_connections()) +
           static_cast<double>(l.bytes_in_flight) / kBytesPerConnection;
  };
  // Browned-out peers are never eligible: a node shedding by class must not
  // be handed fresh work, even its own files (its admission gate would just
  // 503 the hop).
  const auto eligible = [&](int n) {
    return n >= 0 && n < static_cast<int>(loads.size()) &&
           loads[static_cast<std::size_t>(n)].available &&
           !loads[static_cast<std::size_t>(n)].overloaded;
  };
  // File locality first: the owner serves from its "local disk" unless it
  // is clearly busier than we are.
  if (owner != self_ && eligible(owner) && load_of(owner) <= load_of(self_)) {
    return owner;
  }
  // Otherwise balance on connection-equivalent load. Self stays eligible —
  // serving locally, even degraded, beats bouncing the client into a wall.
  int best = self_;
  double best_load = load_of(self_);
  for (int n = 0; n < static_cast<int>(loads.size()); ++n) {
    if (n != self_ && eligible(n) &&
        load_of(n) + kMinConnectionAdvantage <= best_load) {
      best = n;
      best_load = load_of(n);
    }
  }
  return best;
}

ProcessOutcome RequestHandler::handle(const http::Request& request,
                                      std::uint64_t request_id,
                                      obs::PhaseClock& clock) {
  ProcessOutcome out;
  const auto finish = [&](http::Response response) {
    out.response = std::move(response);
    return std::move(out);
  };

  const bool is_post = request.method == http::Method::kPost;
  if (request.method != http::Method::kGet &&
      request.method != http::Method::kHead && !is_post) {
    return finish(http::make_error(http::Status::kNotImplemented));
  }
  const auto canonical = http::canonicalize_target(request.target);
  if (!canonical) {
    return finish(http::make_error(http::Status::kBadRequest, "bad target"));
  }

  // --- Introspection: every node answers for itself ---------------------
  if (canonical->path == "/sweb/status" ||
      canonical->path == "/sweb/metrics") {
    out.introspection = canonical->path == "/sweb/status"
                            ? ProcessOutcome::Introspection::kStatus
                            : ProcessOutcome::Introspection::kMetrics;
    return out;
  }

  const DocStore::Entry* doc = docs_.find(canonical->path);
  if (doc == nullptr) {
    err404_->inc();
    errors_->inc();
    return finish(http::make_error(http::Status::kNotFound, canonical->path));
  }
  const CgiHandler* cgi = docs_.cgi_for(canonical->path);
  if (is_post && cgi == nullptr) {
    // POST only makes sense against a dynamic endpoint.
    return finish(http::make_error(http::Status::kNotImplemented,
                                   "POST to static content"));
  }

  // --- Analyze & possibly redirect ---------------------------------------
  // The at-most-once marker must survive a standard browser following the
  // 302, so it travels in the redirect URL's query string (clients that
  // set the X-Sweb-Redirected header are honored too).
  const bool already_redirected =
      request.headers.has("X-Sweb-Redirected") ||
      query_param(canonical->query, "sweb-hop") == "1";
  const bool is_head = request.method == http::Method::kHead;
  // Conditional-GET freshness is decided up front because it changes what
  // this request costs, not just what it answers.
  bool not_modified = false;
  if (cgi == nullptr && !is_head) {
    if (const auto ims = request.headers.get("If-Modified-Since")) {
      const auto since = http::parse_http_date(*ims);
      not_modified = since.has_value() && doc->last_modified <= *since;
    }
  }
  // --- Brownout admission gate -------------------------------------------
  // Past healthy, the node keeps doing only cheap work: HEAD and 304
  // answers move headers, cache-resident documents go out zero-copy from
  // RAM. CGI — the CPU-bound class — and documents that would need the
  // copy path are rejected with 503 + Retry-After; the LoadBoard overload
  // flag published alongside the state makes every peer's broker route
  // new 302 assignments around this node while it degrades.
  if (overload_.state() != OverloadState::kHealthy && !is_head &&
      !not_modified) {
    const char* reject = nullptr;
    if (cgi != nullptr) {
      shed_cgi_->inc();
      reject = "brownout: dynamic content shed";
    } else if (cache_ != nullptr && !cache_->contains(canonical->path)) {
      shed_uncached_->inc();
      reject = "brownout: non-resident document shed";
    }
    if (reject != nullptr) {
      err503_->inc();
      errors_->inc();
      // This request never reaches connection_opened, so any Δ-inflation
      // a redirect placed here is consumed now, same as an accept-path
      // shed — a browned-out node must not stay phantom-inflated.
      board_.note_shed(self_);
      http::Response busy =
          http::make_error(http::Status::kServiceUnavailable, reject);
      busy.headers.set("Retry-After", std::to_string(retry_after_s()));
      return finish(std::move(busy));
    }
  }

  // Charge the board the body bytes this node will actually write: HEAD
  // and 304 answers move headers only, and a CGI entry's static size is
  // zero (its body is the handler's business). Charging doc->size()
  // unconditionally left phantom bytes_in_flight on every HEAD/304 —
  // skewing each peer's redirect arithmetic and the audit's t_data
  // prediction.
  const std::uint64_t expected =
      (is_head || not_modified) ? 0 : doc->size();
  board_.connection_opened(self_, expected);
  struct ConnectionGuard {
    LoadBoard& board;
    int node;
    std::uint64_t bytes;
    bool armed = true;
    ~ConnectionGuard() {
      if (armed) board.connection_closed(node, bytes);
    }
  } guard{board_, self_, expected};

  const bool audited = audit_ != nullptr && request_id != 0;
  if (!already_redirected && (enable_redirects_ || audited)) {
    const auto decide_start = std::chrono::steady_clock::now();
    // One board snapshot per brokered request: the broker decides on it
    // and the audit prices every candidate on the same state.
    const std::vector<NodeLoad> loads = board_.snapshot_all();
    const int target =
        enable_redirects_ ? choose_node(doc->owner, loads) : self_;
    if (audited) {
      record_audit_decision(request_id, target,
                            static_cast<double>(expected), loads);
    }
    clock.add(obs::Phase::kBrokerDecide, seconds_since(decide_start));
    if (target != self_ &&
        static_cast<std::size_t>(target) < peer_ports_.size()) {
      board_.note_redirected(self_, target);
      redirects_->inc();
      if (tracer_ != nullptr && tracer_->enabled()) {
        tracer_->add_instant("redirect to node " + std::to_string(target),
                             "phase", tracer_->now_seconds(), self_,
                             static_cast<std::int64_t>(request_id));
      }
      // The at-most-once marker and the request id both ride the Location
      // query string: they must survive a standard browser that follows
      // the 302 without copying any custom headers.
      std::string query = canonical->query.empty()
                              ? "sweb-hop=1"
                              : canonical->query + "&sweb-hop=1";
      if (request_id != 0) {
        query += "&sweb-rid=" + std::to_string(request_id);
      }
      const std::string location =
          "http://127.0.0.1:" +
          std::to_string(peer_ports_[static_cast<std::size_t>(target)]) +
          canonical->path + "?" + query;
      http::Response moved = http::make_redirect(location);
      if (request_id != 0) {
        moved.headers.set("X-SWEB-Request-Id", std::to_string(request_id));
      }
      return finish(std::move(moved));
    }
  }

  // --- Fulfill -------------------------------------------------------------
  // Shared-clock service start: joined with the origin node's decision
  // timestamp, this is the observed t_redirection.
  const double service_start = board_.now_seconds();
  if (cgi != nullptr) {
    // Dynamic content is the CPU-bound stage: hand back what the caller
    // needs to run the handler off the serving thread and finish through
    // complete_cgi(). The board charge stays open across the asynchronous
    // execution — ownership moves to the caller.
    out.cgi = cgi;
    out.query = canonical->query;
    out.board_charge = expected;
    out.service_start_s = service_start;
    guard.armed = false;
    return out;
  }
  const auto fulfill_start = std::chrono::steady_clock::now();
  http::Response ok;
  // Conditional GET: an If-Modified-Since at or after the document's
  // mtime earns a body-less 304 (NCSA httpd supported this in 1994).
  if (not_modified) {
    http::Response fresh;
    fresh.status = http::Status::kNotModified;
    fresh.headers.add("Last-Modified",
                      http::format_http_date(doc->last_modified));
    fresh.headers.add("X-Sweb-Node", std::to_string(self_));
    board_.note_served(self_);
    // A static request's content assembly is doc_read (the paper's t_data).
    clock.add(obs::Phase::kDocRead, seconds_since(fulfill_start));
    record_outcome(request_id, service_start, clock);
    return finish(std::move(fresh));
  }
  const std::string mime(http::mime_type_for_path(canonical->path));
  if (is_head) {
    ok = http::make_ok(std::string(), mime);
    ok.headers.set("Content-Length", std::to_string(doc->size()));
  } else if (cache_ != nullptr && cache_->lookup(canonical->path)) {
    // Hot path: the document is resident, so the response carries no
    // body of its own — the writer gather-writes the preserialized
    // header block and the DocStore's shared buffer (zero copies).
    ok.status = http::Status::kOk;
    ok.headers.add("Content-Type", mime);
    ok.headers.add("Content-Length", std::to_string(doc->size()));
    out.body = doc->content;
  } else {
    // Cold/evicted: the per-request copy stands in for the disk read
    // (this is the doc_read cost a cache hit skips), then the document
    // is admitted so the next request hits.
    ok = http::make_ok(std::string(*doc->content), mime);
    if (cache_ != nullptr) cache_->insert(canonical->path, doc->size());
  }
  ok.headers.add("Last-Modified",
                 http::format_http_date(doc->last_modified));
  clock.add(obs::Phase::kDocRead, seconds_since(fulfill_start));
  ok.headers.add("X-Sweb-Node", std::to_string(self_));
  if (request_id != 0) {
    ok.headers.set("X-SWEB-Request-Id", std::to_string(request_id));
  }
  board_.note_served(self_);
  record_outcome(request_id, service_start, clock);
  return finish(std::move(ok));
}

void RequestHandler::complete_cgi(http::Response& response,
                                  std::uint64_t request_id,
                                  std::uint64_t board_charge,
                                  double service_start_s,
                                  const obs::PhaseClock& clock) {
  response.headers.add("X-Sweb-Node", std::to_string(self_));
  if (request_id != 0) {
    response.headers.set("X-SWEB-Request-Id", std::to_string(request_id));
  }
  board_.note_served(self_);
  record_outcome(request_id, service_start_s, clock);
  board_.connection_closed(self_, board_charge);
}

void RequestHandler::record_outcome(std::uint64_t request_id,
                                    double service_start_s,
                                    const obs::PhaseClock& clock) const {
  if (audit_ == nullptr || request_id == 0) return;
  obs::Observation observation;
  observation.service_start_ts_s = service_start_s;
  observation.completion_ts_s = board_.now_seconds();
  // Join the measured phases: doc_read is the observed t_data, cgi_exec
  // the observed t_cpu. A phase the request never entered reports 0 (the
  // cost genuinely not paid), matching the predictor's cost terms.
  observation.t_data = clock.touched(obs::Phase::kDocRead)
                           ? clock.seconds(obs::Phase::kDocRead)
                           : 0.0;
  observation.t_cpu = clock.touched(obs::Phase::kCgiExec)
                          ? clock.seconds(obs::Phase::kCgiExec)
                          : 0.0;
  audit_->record_outcome(request_id, observation);
}

void RequestHandler::record_audit_decision(
    std::uint64_t request_id, int target, double size_bytes,
    const std::vector<NodeLoad>& loads) const {
  obs::Decision decision;
  decision.request_id = request_id;
  decision.origin = self_;
  decision.chosen = target;
  decision.decision_ts_s = board_.now_seconds();
  double best_other = std::numeric_limits<double>::infinity();
  for (int n = 0; n < static_cast<int>(loads.size()); ++n) {
    if (n != self_ && !loads[static_cast<std::size_t>(n)].available) {
      continue;
    }
    // The prediction degrades both the data channel and the CPU with the
    // candidate's queue — the runtime analogue of the paper's b/(1+queue)
    // and ops*run_queue scalings.
    const double queue = static_cast<double>(
        loads[static_cast<std::size_t>(n)].effective_connections());
    obs::CandidatePrediction candidate;
    candidate.node = n;
    if (n != self_) candidate.cost.t_redirection = kRedirectRttS;
    candidate.cost.t_data = size_bytes / kDiskBytesPerSec * (1.0 + queue);
    candidate.cost.t_cpu = kRequestCpuS * (1.0 + queue);
    if (n == target) {
      decision.predicted = candidate.cost;
    } else {
      best_other = std::min(best_other, candidate.cost.total());
    }
    decision.candidates.push_back(std::move(candidate));
  }
  // Connection counts decide, the cost model only narrates — so the margin
  // (and a negative one) reports how the model prices the heuristic's pick.
  decision.runner_up_margin = best_other - decision.predicted.total();
  audit_->record_decision(std::move(decision));
}

}  // namespace sweb::runtime
