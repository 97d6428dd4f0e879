// The per-request decision of one SWEB node, with no sockets and no threads:
// the paper's analysis step between parse and write (302 to a better node,
// or fulfil here), called once per parsed request by the NodeServer and
// directly by tests. Counters are looked up under the node's registry names
// (node.N.redirects, ...), so the registry stays their one store.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "http/message.h"
#include "obs/audit.h"
#include "obs/phase.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "runtime/doc_store.h"
#include "runtime/load_board.h"
#include "runtime/node_cache.h"
#include "runtime/overload.h"

namespace sweb::runtime {

/// Redirect decision logic shared by all nodes (the runtime broker): prefer
/// the owner node unless it is markedly busier than the best alternative.
/// The fixed coefficients are constants in request_handler.cpp.
struct RuntimeBrokerParams {
  bool enable_redirects = true;
  /// Cache-aware placement: connection units subtracted from a candidate's
  /// apparent load when the requested document is resident in its page
  /// cache — a warm peer serves from RAM (zero-copy), so it may be worth a
  /// redirect even against a modest connection deficit. <= 0 (the default)
  /// keeps placement purely load-based; needs a CacheDirectory attached to
  /// take effect.
  double cache_hit_discount = 0.0;
};

/// What handle() decided. An inline outcome carries the finished response
/// (and possibly a zero-copy body); a CGI outcome carries what the caller
/// needs to run the handler and finish through complete_cgi().
struct ProcessOutcome {
  http::Response response;
  /// When set, the writer gather-writes response.serialize_head() +
  /// *body (the response's own body is empty) — the zero-copy hot path.
  std::shared_ptr<const std::string> body;
  /// /sweb/status or /sweb/metrics: the caller renders the body (it reads
  /// connection state the handler does not have).
  enum class Introspection { kNone, kStatus, kMetrics };
  Introspection introspection = Introspection::kNone;
  const CgiHandler* cgi = nullptr;  // set: run it, then complete_cgi()
  std::string query;
  std::uint64_t board_charge = 0;  // open connection_opened to close later
  double service_start_s = 0.0;    // board clock at fulfill start
};

/// The request id a redirected request carries back in: the
/// X-SWEB-Request-Id header, or the `sweb-rid` query parameter (the form
/// that survives a standard browser following the 302's Location).
[[nodiscard]] std::optional<std::uint64_t> incoming_request_id(
    const http::Request& request);

class RequestHandler {
 public:
  /// `caches`, `audit` and `tracer` may be null.
  RequestHandler(int node_id, RuntimeBrokerParams broker,
                 std::chrono::milliseconds retry_after_hint,
                 const DocStore& docs, LoadBoard& board,
                 CacheDirectory* caches, const OverloadController& overload,
                 obs::Registry& registry, obs::DecisionAudit* audit,
                 obs::SpanTracer* tracer);

  void set_peer_ports(std::vector<std::uint16_t> ports) {
    peer_ports_ = std::move(ports);
  }

  /// Decides one parsed request; the caller adds the Server and Connection
  /// headers. `request_id` labels its spans and audit records (0: none).
  /// Phase durations (broker_decide, doc_read) accumulate into `clock`. A
  /// CGI request comes back with `cgi` set, un-run, and one board charge
  /// open.
  [[nodiscard]] ProcessOutcome handle(const http::Request& request,
                                      std::uint64_t request_id,
                                      obs::PhaseClock& clock);

  /// Finishes a CGI outcome once its handler ran: stamps the node headers,
  /// counts it served, joins the audit, and closes the board charge.
  void complete_cgi(http::Response& response, std::uint64_t request_id,
                    std::uint64_t board_charge, double service_start_s,
                    const obs::PhaseClock& clock);

  /// The Retry-After seconds a shed 503 carries right now: the
  /// controller's drain estimate when enabled, the configured hint
  /// otherwise — either way rounded up and clamped to [1, 120].
  [[nodiscard]] int retry_after_s() const;

 private:
  /// Chooses the serving node for `path` owned by `owner` on the board
  /// state `loads`; may be self. The path feeds the cache discount.
  [[nodiscard]] int choose_node(int owner, std::string_view path,
                                const std::vector<NodeLoad>& loads) const;
  /// Records the brokered choice with the audit, every candidate priced
  /// on the same board state the broker saw.
  void record_audit_decision(std::uint64_t request_id, int target,
                             double size_bytes,
                             const std::vector<NodeLoad>& loads) const;
  /// Joins the measured phases with the request's audited decision.
  void record_outcome(std::uint64_t request_id, double service_start_s,
                      const obs::PhaseClock& clock) const;

  int self_;
  RuntimeBrokerParams broker_;
  std::chrono::milliseconds retry_after_hint_;
  const DocStore& docs_;
  LoadBoard& board_;
  CacheDirectory* caches_;
  const OverloadController& overload_;
  obs::DecisionAudit* audit_;
  obs::SpanTracer* tracer_;
  std::vector<std::uint16_t> peer_ports_;
  obs::Counter* redirects_;
  obs::Counter* errors_;
  obs::Counter* err404_;
  obs::Counter* err503_;
  obs::Counter* shed_cgi_;
  obs::Counter* shed_uncached_;
};

}  // namespace sweb::runtime
