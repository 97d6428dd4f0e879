// The serve-path rules of one node, decided by the socket-free
// RequestHandler with fixed inputs: no sockets, no threads, no sleeps.
// Each rule keeps an end-to-end twin in the MiniCluster tests.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fs/docbase.h"
#include "http/date.h"
#include "http/message.h"
#include "obs/audit.h"
#include "obs/phase.h"
#include "obs/registry.h"
#include "runtime/doc_store.h"
#include "runtime/load_board.h"
#include "runtime/node_cache.h"
#include "runtime/overload.h"
#include "runtime/request_handler.h"

namespace sweb::runtime {
namespace {

using namespace std::chrono_literals;

/// Node 0's handler in a two-node cluster: /docs/file<i>.html (4 KiB) is
/// owned by node i % 2, both nodes are joined and idle, and node 1
/// listens on port 8001.
struct Rig {
  explicit Rig(bool enable_redirects = true,
               OverloadParams overload_params = {})
      : docs(fs::make_uniform(12, 4096, 2, fs::Placement::kRoundRobin,
                              nullptr, "/docs")),
        board(2),
        cache(1 << 20),
        overload(overload_params),
        handler(0, enable_redirects, 1000ms, docs, board, &cache, overload,
                registry, &audit, nullptr) {
    docs.register_cgi("/cgi/echo", 0,
                      [](const http::Request&, std::string_view query) {
                        return http::make_ok(std::string(query),
                                             "text/plain");
                      });
    board.heartbeat(0);
    board.heartbeat(1);
    handler.set_peer_ports({8000, 8001});
  }

  ProcessOutcome serve(http::Method method, const std::string& target,
                       std::uint64_t request_id = 0,
                       const char* header = nullptr,
                       const std::string& value = {}) {
    http::Request request;
    request.method = method;
    request.target = target;
    if (header != nullptr) request.headers.add(header, value);
    obs::PhaseClock clock;
    return handler.handle(request, request_id, clock);
  }
  ProcessOutcome get(const std::string& target, std::uint64_t id = 0) {
    return serve(http::Method::kGet, target, id);
  }

  [[nodiscard]] bool board_idle() const {
    const NodeLoad self = board.snapshot(0);
    return self.active_connections == 0 && self.bytes_in_flight == 0;
  }

  obs::Registry registry;
  DocStore docs;
  LoadBoard board;
  NodeCache cache;
  OverloadController overload;
  obs::DecisionAudit audit;
  RequestHandler handler;
};

int status_of(const ProcessOutcome& out) {
  return http::code(out.response.status);
}

std::string node_of(const ProcessOutcome& out) {
  return std::string(out.response.headers.get("X-Sweb-Node").value_or(""));
}

TEST(RequestHandler, ColdGetCopiesThenDocumentIsResident) {
  Rig rig;
  const auto out = rig.get("/docs/file0.html");
  EXPECT_EQ(status_of(out), 200);
  EXPECT_EQ(out.body, nullptr);
  EXPECT_EQ(out.response.body.size(), 4096u);
  EXPECT_TRUE(rig.cache.contains("/docs/file0.html"));
  EXPECT_TRUE(rig.board_idle());
}

TEST(RequestHandler, ResidentGetSharesTheBodyWithoutCopy) {
  Rig rig;
  (void)rig.get("/docs/file0.html");
  const auto out = rig.get("/docs/file0.html");
  EXPECT_EQ(status_of(out), 200);
  EXPECT_TRUE(out.response.body.empty());
  EXPECT_EQ(out.body, rig.docs.find("/docs/file0.html")->content);
  EXPECT_EQ(out.response.headers.get("Content-Length"), "4096");
  EXPECT_TRUE(rig.board_idle());
}

TEST(RequestHandler, HeadCarriesContentLengthAndNoBody) {
  Rig rig;
  const auto out = rig.serve(http::Method::kHead, "/docs/file0.html");
  EXPECT_EQ(status_of(out), 200);
  EXPECT_TRUE(out.response.body.empty());
  EXPECT_EQ(out.body, nullptr);
  EXPECT_EQ(out.response.headers.get("Content-Length"), "4096");
  EXPECT_TRUE(rig.board_idle());
}

TEST(RequestHandler, IfModifiedSinceGives304) {
  Rig rig;
  const auto stamp =
      http::format_http_date(rig.docs.find("/docs/file0.html")->last_modified);
  const auto out = rig.serve(http::Method::kGet, "/docs/file0.html", 0,
                             "If-Modified-Since", stamp);
  EXPECT_EQ(status_of(out), 304);
  EXPECT_TRUE(out.response.body.empty());
  EXPECT_EQ(out.body, nullptr);
  EXPECT_TRUE(rig.board_idle());
}

TEST(RequestHandler, ErrorAnswers) {
  Rig rig;
  EXPECT_EQ(status_of(rig.get("/docs/nope.html")), 404);
  EXPECT_EQ(rig.registry.counter("node.0.err.404").value(), 1u);
  EXPECT_EQ(status_of(rig.get("/../../etc/passwd")), 400);
  EXPECT_EQ(status_of(rig.serve(http::Method::kUnknown, "/docs/file0.html")),
            501);
  EXPECT_EQ(status_of(rig.serve(http::Method::kPost, "/docs/file0.html")),
            501);
  EXPECT_TRUE(rig.board_idle());
}

TEST(RequestHandler, RedirectsToIdleOwnerWithHopAndRequestId) {
  Rig rig;
  const auto out = rig.get("/docs/file1.html", 7);
  ASSERT_EQ(status_of(out), 302);
  EXPECT_EQ(out.response.headers.get("Location"),
            "http://127.0.0.1:8001/docs/file1.html?sweb-hop=1&sweb-rid=7");
  EXPECT_EQ(out.response.headers.get("X-SWEB-Request-Id"), "7");
  EXPECT_EQ(rig.board.snapshot(1).redirect_inflation, 1);
  EXPECT_EQ(rig.registry.counter("node.0.redirects").value(), 1u);
  // The audit priced the choice: the decision waits for the target's join.
  ASSERT_TRUE(rig.audit.pending(7).has_value());
  EXPECT_EQ(rig.audit.pending(7)->chosen, 1);
  EXPECT_TRUE(rig.board_idle());
}

TEST(RequestHandler, NoRedirectToOverloadedOrUnavailableOwner) {
  Rig rig;
  rig.board.set_overloaded(1, true);
  auto out = rig.get("/docs/file1.html");
  EXPECT_EQ(status_of(out), 200);
  EXPECT_EQ(node_of(out), "0");
  rig.board.set_overloaded(1, false);
  rig.board.set_available(1, false);
  out = rig.get("/docs/file1.html");
  EXPECT_EQ(status_of(out), 200);
  EXPECT_EQ(node_of(out), "0");
  EXPECT_TRUE(rig.board_idle());
}

TEST(RequestHandler, RedirectsDisabledServesLocally) {
  Rig rig(/*enable_redirects=*/false);
  const auto out = rig.get("/docs/file1.html", 3);
  EXPECT_EQ(status_of(out), 200);
  EXPECT_EQ(node_of(out), "0");
  EXPECT_EQ(rig.board.snapshot(1).redirect_inflation, 0);
  EXPECT_TRUE(rig.board_idle());
}

TEST(RequestHandler, HopMarkerMatchesWholeParametersOnly) {
  // Look-alikes of the marker are ordinary query text: still brokered, and
  // the 302's own marker then holds at the target (no second bounce).
  for (const char* query : {"?xsweb-hop=1", "?a=sweb-hop=1", "?sweb-hop=10"}) {
    Rig rig;
    const auto out = rig.get(std::string("/docs/file1.html") + query);
    ASSERT_EQ(status_of(out), 302) << query;
    const std::string location(out.response.headers.get("Location").value());
    const auto at_target = rig.get(location.substr(location.find("/docs")));
    EXPECT_EQ(status_of(at_target), 200) << location;
  }
  // The genuine marker, in the query or as the header, is never re-brokered.
  for (const char* query : {"?sweb-hop=1", "?a=b&sweb-hop=1&c=d"}) {
    Rig rig;
    const auto out = rig.get(std::string("/docs/file1.html") + query);
    EXPECT_EQ(status_of(out), 200) << query;
    EXPECT_EQ(node_of(out), "0") << query;
  }
  Rig rig;
  const auto out = rig.serve(http::Method::kGet, "/docs/file1.html", 0,
                             "X-Sweb-Redirected", "1");
  EXPECT_EQ(status_of(out), 200);
  EXPECT_EQ(node_of(out), "0");
}

TEST(RequestHandler, IncomingRequestIdMatchesWholeParameters) {
  http::Request request;
  request.target = "/docs/file1.html?sweb-hop=1&sweb-rid=42";
  EXPECT_EQ(incoming_request_id(request), 42u);
  request.target = "/docs/file1.html?sweb-rid=5&sweb-rid=42";  // last wins
  EXPECT_EQ(incoming_request_id(request), 42u);
  request.target = "/docs/file1.html?xsweb-rid=42";
  EXPECT_EQ(incoming_request_id(request), std::nullopt);
  request.target = "/docs/file1.html?sweb-rid=0";
  EXPECT_EQ(incoming_request_id(request), std::nullopt);
  request.headers.add("X-SWEB-Request-Id", "9");
  EXPECT_EQ(incoming_request_id(request), 9u);
}

TEST(RequestHandler, BrownoutShedsCgiAndUncachedButServesCheapWork) {
  OverloadParams params;
  params.enabled = true;
  Rig rig(true, params);
  rig.cache.insert("/docs/file2.html", 4096);
  rig.overload.force_state(OverloadState::kBrownout, 0.0);

  for (const char* target : {"/cgi/echo?x=1", "/docs/file0.html"}) {
    const auto out = rig.get(target);
    EXPECT_EQ(status_of(out), 503) << target;
    EXPECT_TRUE(out.response.headers.has("Retry-After")) << target;
  }
  EXPECT_EQ(rig.registry.counter("node.0.overload.shed_cgi").value(), 1u);
  EXPECT_EQ(rig.registry.counter("node.0.overload.shed_uncached").value(),
            1u);
  EXPECT_EQ(status_of(rig.get("/docs/file2.html")), 200);
  EXPECT_EQ(status_of(rig.serve(http::Method::kHead, "/docs/file0.html")),
            200);
  EXPECT_TRUE(rig.board_idle());
}

TEST(RequestHandler, CgiLeavesExactlyOneOpenChargeUntilCompleted) {
  Rig rig;
  const auto out = rig.get("/cgi/echo?x=1", 5);
  ASSERT_NE(out.cgi, nullptr);
  EXPECT_EQ(out.query, "x=1");
  EXPECT_EQ(rig.board.snapshot(0).active_connections, 1);

  http::Request request;
  http::Response response = (*out.cgi)(request, out.query);
  obs::PhaseClock clock;
  rig.handler.complete_cgi(response, 5, out.board_charge, out.service_start_s,
                           clock);
  EXPECT_EQ(response.headers.get("X-Sweb-Node"), "0");
  EXPECT_EQ(response.headers.get("X-SWEB-Request-Id"), "5");
  EXPECT_EQ(response.body, "x=1");
  EXPECT_TRUE(rig.board_idle());
  EXPECT_EQ(rig.board.snapshot(0).served, 1u);
  EXPECT_FALSE(rig.audit.pending(5).has_value());  // decision joined
}

TEST(RequestHandler, IntrospectionIsReportedNotRendered) {
  Rig rig;
  EXPECT_EQ(rig.get("/sweb/status").introspection,
            ProcessOutcome::Introspection::kStatus);
  EXPECT_EQ(rig.get("/sweb/metrics").introspection,
            ProcessOutcome::Introspection::kMetrics);
  EXPECT_TRUE(rig.board_idle());
}

// The serialized heads are the wire contract, header order included (the
// NodeServer appends only Server and Connection).
TEST(RequestHandler, SerializedHeadsArePinned) {
  Rig rig;
  const std::string modified =
      http::format_http_date(rig.docs.find("/docs/file0.html")->last_modified);
  EXPECT_EQ(modified, "Mon, 01 Jan 1996 00:00:00 GMT");
  (void)rig.get("/docs/file0.html");
  EXPECT_EQ(rig.get("/docs/file0.html", 11).response.serialize_head(),
            "HTTP/1.0 200 OK\r\n"
            "Content-Type: text/html\r\n"
            "Content-Length: 4096\r\n"
            "Last-Modified: Mon, 01 Jan 1996 00:00:00 GMT\r\n"
            "X-Sweb-Node: 0\r\n"
            "X-SWEB-Request-Id: 11\r\n"
            "\r\n");
  EXPECT_EQ(rig.serve(http::Method::kHead, "/docs/file0.html")
                .response.serialize_head(),
            "HTTP/1.0 200 OK\r\n"
            "Content-Type: text/html\r\n"
            "Content-Length: 4096\r\n"
            "Last-Modified: Mon, 01 Jan 1996 00:00:00 GMT\r\n"
            "X-Sweb-Node: 0\r\n"
            "\r\n");
  EXPECT_EQ(rig.serve(http::Method::kGet, "/docs/file0.html", 0,
                      "If-Modified-Since", modified)
                .response.serialize_head(),
            "HTTP/1.0 304 Not Modified\r\n"
            "Last-Modified: Mon, 01 Jan 1996 00:00:00 GMT\r\n"
            "X-Sweb-Node: 0\r\n"
            "\r\n");
  EXPECT_EQ(rig.get("/docs/file1.html", 12).response.serialize_head(),
            "HTTP/1.0 302 Found\r\n"
            "Location: http://127.0.0.1:8001/docs/file1.html"
            "?sweb-hop=1&sweb-rid=12\r\n"
            "Content-Type: text/html\r\n"
            "Content-Length: 121\r\n"
            "X-SWEB-Request-Id: 12\r\n"
            "\r\n");
  EXPECT_EQ(rig.get("/docs/nope.html").response.serialize_head(),
            "HTTP/1.0 404 Not Found\r\n"
            "Content-Type: text/html\r\n"
            "Content-Length: 107\r\n"
            "\r\n");
}

}  // namespace
}  // namespace sweb::runtime
