#include "http/parser.h"

#include <gtest/gtest.h>

#include <ostream>
#include <string>

namespace sweb::http {
namespace {

// ------------------------------------------------------------- requests ----

TEST(RequestParser, ParsesSimpleGet) {
  RequestParser p;
  std::size_t consumed = 0;
  const std::string wire =
      "GET /maps/goleta.gif HTTP/1.0\r\nHost: adl\r\n\r\n";
  ASSERT_EQ(p.feed(wire, consumed), ParseResult::kComplete);
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(p.message().method, Method::kGet);
  EXPECT_EQ(p.message().target, "/maps/goleta.gif");
  EXPECT_EQ(p.message().version_major, 1);
  EXPECT_EQ(p.message().version_minor, 0);
  EXPECT_EQ(p.message().headers.get("Host"), "adl");
}

TEST(RequestParser, ByteAtATime) {
  const std::string wire =
      "GET /a HTTP/1.1\r\nUser-Agent: Mosaic/2.7\r\nAccept: */*\r\n\r\n";
  RequestParser p;
  ParseResult result = ParseResult::kNeedMore;
  for (char c : wire) {
    std::size_t consumed = 0;
    result = p.feed(std::string_view(&c, 1), consumed);
    if (result == ParseResult::kComplete) break;
    ASSERT_EQ(result, ParseResult::kNeedMore);
    ASSERT_EQ(consumed, 1u);
  }
  ASSERT_EQ(result, ParseResult::kComplete);
  EXPECT_EQ(p.message().headers.get("User-Agent"), "Mosaic/2.7");
  EXPECT_EQ(p.message().version_minor, 1);
}

TEST(RequestParser, TrailingBytesBelongToNextMessage) {
  RequestParser p;
  std::size_t consumed = 0;
  const std::string two = "GET /a HTTP/1.0\r\n\r\nGET /b HTTP/1.0\r\n\r\n";
  ASSERT_EQ(p.feed(two, consumed), ParseResult::kComplete);
  EXPECT_EQ(two.substr(consumed), "GET /b HTTP/1.0\r\n\r\n");
  p.reset();
  std::size_t consumed2 = 0;
  ASSERT_EQ(p.feed(two.substr(consumed), consumed2), ParseResult::kComplete);
  EXPECT_EQ(p.message().target, "/b");
}

TEST(RequestParser, BareLfLineEndingsAccepted) {
  RequestParser p;
  std::size_t consumed = 0;
  ASSERT_EQ(p.feed("GET /a HTTP/1.0\nHost: x\n\n", consumed),
            ParseResult::kComplete);
  EXPECT_EQ(p.message().headers.get("Host"), "x");
}

TEST(RequestParser, LeadingBlankLinesTolerated) {
  RequestParser p;
  std::size_t consumed = 0;
  ASSERT_EQ(p.feed("\r\n\r\nGET /a HTTP/1.0\r\n\r\n", consumed),
            ParseResult::kComplete);
  EXPECT_EQ(p.message().target, "/a");
}

TEST(RequestParser, Http09SimpleRequest) {
  RequestParser p;
  std::size_t consumed = 0;
  ASSERT_EQ(p.feed("GET /index.html\r\n", consumed), ParseResult::kComplete);
  EXPECT_EQ(p.message().version_major, 0);
  EXPECT_EQ(p.message().version_minor, 9);
  EXPECT_EQ(p.message().target, "/index.html");
}

TEST(RequestParser, Http09OnlySupportsGet) {
  RequestParser p;
  std::size_t consumed = 0;
  EXPECT_EQ(p.feed("POST /index.html\r\n", consumed), ParseResult::kError);
}

TEST(RequestParser, PostBodyByContentLength) {
  RequestParser p;
  std::size_t consumed = 0;
  const std::string wire =
      "POST /query.cgi HTTP/1.0\r\nContent-Length: 5\r\n\r\nhello";
  ASSERT_EQ(p.feed(wire, consumed), ParseResult::kComplete);
  EXPECT_EQ(p.message().body, "hello");
}

TEST(RequestParser, BodyArrivesInPieces) {
  RequestParser p;
  std::size_t consumed = 0;
  ASSERT_EQ(
      p.feed("POST /q HTTP/1.0\r\nContent-Length: 6\r\n\r\nab", consumed),
      ParseResult::kNeedMore);
  ASSERT_EQ(p.feed("cdef", consumed), ParseResult::kComplete);
  EXPECT_EQ(p.message().body, "abcdef");
}

TEST(RequestParser, MalformedRequestLines) {
  for (const char* wire : {
           "GARBAGE\r\n\r\n",
           "GET\r\n\r\n",
           "GET /a HTTP/x.y\r\n\r\n",
           "GET /a HTTP/1.0 extra\r\n\r\n",
           "GET  HTTP/1.0\r\n\r\n",
       }) {
    RequestParser p;
    std::size_t consumed = 0;
    EXPECT_EQ(p.feed(wire, consumed), ParseResult::kError) << wire;
    EXPECT_FALSE(p.error().empty());
  }
}

TEST(RequestParser, MalformedHeaders) {
  for (const char* wire : {
           "GET /a HTTP/1.0\r\nNoColonHere\r\n\r\n",
           "GET /a HTTP/1.0\r\n: empty-name\r\n\r\n",
           "GET /a HTTP/1.0\r\nBad Name: v\r\n\r\n",
           "GET /a HTTP/1.0\r\nContent-Length: abc\r\n\r\n",
       }) {
    RequestParser p;
    std::size_t consumed = 0;
    EXPECT_EQ(p.feed(wire, consumed), ParseResult::kError) << wire;
  }
}

TEST(RequestParser, HeaderValueWhitespaceTrimmed) {
  RequestParser p;
  std::size_t consumed = 0;
  ASSERT_EQ(p.feed("GET /a HTTP/1.0\r\nHost:    spaced   \r\n\r\n", consumed),
            ParseResult::kComplete);
  EXPECT_EQ(p.message().headers.get("Host"), "spaced");
}

TEST(RequestParser, RequestLineLengthLimit) {
  ParserLimits limits;
  limits.max_request_line = 64;
  RequestParser p(limits);
  std::size_t consumed = 0;
  const std::string wire =
      "GET /" + std::string(200, 'a') + " HTTP/1.0\r\n\r\n";
  EXPECT_EQ(p.feed(wire, consumed), ParseResult::kError);
}

TEST(RequestParser, HeaderCountLimit) {
  ParserLimits limits;
  limits.max_headers = 3;
  RequestParser p(limits);
  std::string wire = "GET /a HTTP/1.0\r\n";
  for (int i = 0; i < 5; ++i) {
    wire += "H" + std::to_string(i) + ": v\r\n";
  }
  wire += "\r\n";
  std::size_t consumed = 0;
  EXPECT_EQ(p.feed(wire, consumed), ParseResult::kError);
}

TEST(RequestParser, BodyLimitEnforced) {
  ParserLimits limits;
  limits.max_body = 10;
  RequestParser p(limits);
  std::size_t consumed = 0;
  EXPECT_EQ(p.feed("POST /q HTTP/1.0\r\nContent-Length: 11\r\n\r\n", consumed),
            ParseResult::kError);
}

TEST(RequestParser, ResetAllowsReuseAfterError) {
  RequestParser p;
  std::size_t consumed = 0;
  ASSERT_EQ(p.feed("JUNK\r\n", consumed), ParseResult::kError);
  p.reset();
  ASSERT_EQ(p.feed("GET /ok HTTP/1.0\r\n\r\n", consumed),
            ParseResult::kComplete);
  EXPECT_EQ(p.message().target, "/ok");
}

TEST(RequestParser, ErrorStateSticksUntilReset) {
  RequestParser p;
  std::size_t consumed = 0;
  ASSERT_EQ(p.feed("JUNK\r\n", consumed), ParseResult::kError);
  EXPECT_EQ(p.feed("GET /ok HTTP/1.0\r\n\r\n", consumed),
            ParseResult::kError);
}

// ------------------------------------------------------------ responses ----

TEST(ResponseParser, ParsesCountedBody) {
  ResponseParser p;
  std::size_t consumed = 0;
  const std::string wire =
      "HTTP/1.0 200 OK\r\nContent-Length: 4\r\n\r\nbody";
  ASSERT_EQ(p.feed(wire, consumed), ParseResult::kComplete);
  EXPECT_EQ(code(p.message().status), 200);
  EXPECT_EQ(p.message().body, "body");
}

TEST(ResponseParser, BodyToEofFraming) {
  ResponseParser p;
  std::size_t consumed = 0;
  ASSERT_EQ(p.feed("HTTP/1.0 200 OK\r\n\r\npartial", consumed),
            ParseResult::kNeedMore);
  ASSERT_EQ(p.feed(" more", consumed), ParseResult::kNeedMore);
  ASSERT_EQ(p.finish_eof(), ParseResult::kComplete);
  EXPECT_EQ(p.message().body, "partial more");
}

TEST(ResponseParser, EofMidHeadersIsError) {
  ResponseParser p;
  std::size_t consumed = 0;
  ASSERT_EQ(p.feed("HTTP/1.0 200 OK\r\nContent-", consumed),
            ParseResult::kNeedMore);
  EXPECT_EQ(p.finish_eof(), ParseResult::kError);
}

TEST(ResponseParser, EofMidCountedBodyIsError) {
  ResponseParser p;
  std::size_t consumed = 0;
  ASSERT_EQ(p.feed("HTTP/1.0 200 OK\r\nContent-Length: 10\r\n\r\nabc",
                   consumed),
            ParseResult::kNeedMore);
  EXPECT_EQ(p.finish_eof(), ParseResult::kError);
}

TEST(ResponseParser, ReasonPhraseWithSpaces) {
  ResponseParser p;
  std::size_t consumed = 0;
  ASSERT_EQ(p.feed("HTTP/1.0 404 Not Found\r\nContent-Length: 0\r\n\r\n",
                   consumed),
            ParseResult::kComplete);
  EXPECT_EQ(code(p.message().status), 404);
}

TEST(ResponseParser, MissingReasonPhraseAccepted) {
  ResponseParser p;
  std::size_t consumed = 0;
  ASSERT_EQ(p.feed("HTTP/1.0 204\r\n\r\n", consumed), ParseResult::kComplete);
  EXPECT_EQ(code(p.message().status), 204);
}

TEST(ResponseParser, BodilessStatusesCompleteAtHeaders) {
  for (const char* line : {"HTTP/1.0 204 No Content", "HTTP/1.0 304 Same",
                           "HTTP/1.0 100 Continue"}) {
    ResponseParser p;
    std::size_t consumed = 0;
    const std::string wire = std::string(line) + "\r\n\r\n";
    EXPECT_EQ(p.feed(wire, consumed), ParseResult::kComplete) << line;
  }
}

TEST(ResponseParser, HeadModeIgnoresContentLengthForFraming) {
  ResponseParser p;
  p.expect_head_response(true);
  std::size_t consumed = 0;
  ASSERT_EQ(
      p.feed("HTTP/1.0 200 OK\r\nContent-Length: 4096\r\n\r\n", consumed),
      ParseResult::kComplete);
  EXPECT_TRUE(p.message().body.empty());
  EXPECT_EQ(p.message().headers.get("Content-Length"), "4096");
}

TEST(ResponseParser, RejectsOutOfRangeStatusCodes) {
  for (const char* wire : {"HTTP/1.0 99 Low\r\n\r\n", "HTTP/1.0 600 Hi\r\n\r\n",
                           "HTTP/1.0 abc Bad\r\n\r\n"}) {
    ResponseParser p;
    std::size_t consumed = 0;
    EXPECT_EQ(p.feed(wire, consumed), ParseResult::kError) << wire;
  }
}

TEST(ResponseParser, RedirectResponseRoundTrip) {
  // Serialize one of ours, parse it back.
  const Response out = make_redirect("http://127.0.0.1:9999/x.html");
  ResponseParser p;
  std::size_t consumed = 0;
  ASSERT_EQ(p.feed(out.serialize(), consumed), ParseResult::kComplete);
  EXPECT_TRUE(p.message().is_redirect());
  EXPECT_EQ(p.message().headers.get("Location"),
            "http://127.0.0.1:9999/x.html");
}

// Property sweep: any of our serialized requests parse back identically,
// for a grid of methods/targets/header counts.
struct RoundTripCase {
  Method method;
  const char* target;
  int headers;
  int body;
};

// Gives the case a stable printed form. CTest names value-parameterized tests
// after GetParam(); gtest's default dump of this struct would put its raw
// bytes (pointer and padding included) into the name, which then differs
// from one build to the next.
void PrintTo(const RoundTripCase& c, std::ostream* os) {
  *os << to_string(c.method) << ' ' << c.target << " headers=" << c.headers
      << " body=" << c.body;
}

class RequestRoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(RequestRoundTrip, SerializeThenParse) {
  const RoundTripCase& c = GetParam();
  Request out;
  out.method = c.method;
  out.target = c.target;
  for (int i = 0; i < c.headers; ++i) {
    out.headers.add("X-H" + std::to_string(i), "value-" + std::to_string(i));
  }
  if (c.body > 0) {
    out.body = std::string(static_cast<std::size_t>(c.body), 'b');
    out.headers.add("Content-Length", std::to_string(c.body));
  }
  RequestParser p;
  std::size_t consumed = 0;
  ASSERT_EQ(p.feed(out.serialize(), consumed), ParseResult::kComplete);
  const Request& in = p.message();
  EXPECT_EQ(in.method, out.method);
  EXPECT_EQ(in.target, out.target);
  EXPECT_EQ(in.headers.size(), out.headers.size());
  EXPECT_EQ(in.body, out.body);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RequestRoundTrip,
    ::testing::Values(RoundTripCase{Method::kGet, "/", 0, 0},
                      RoundTripCase{Method::kGet, "/a/b/c.gif?x=1&y=2", 3, 0},
                      RoundTripCase{Method::kHead, "/index.html", 1, 0},
                      RoundTripCase{Method::kPost, "/query.cgi", 2, 64},
                      RoundTripCase{Method::kPost, "/q", 10, 4096},
                      RoundTripCase{Method::kGet, "/deep/path/many/segs", 20,
                                    0}));

}  // namespace
}  // namespace sweb::http
