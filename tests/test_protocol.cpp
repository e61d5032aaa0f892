// JSONL protocol robustness: malformed, truncated, hostile, and oversized
// input must yield exactly one structured error response per line — the
// server never throws, never aborts, never goes silent.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "gen/bus.hpp"
#include "session/json.hpp"
#include "session/protocol.hpp"
#include "session/server.hpp"
#include "session/session.hpp"

namespace nw::session {
namespace {

Session make_session() {
  static const lib::Library library = lib::default_library();
  gen::BusConfig cfg;
  cfg.bits = 6;
  cfg.segments = 2;
  gen::Generated g = gen::make_bus(library, cfg);
  SessionConfig sc;
  sc.sta = g.sta_options;
  sc.noise.clock_period = g.sta_options.clock_period;
  return Session(std::move(g.design), std::move(g.para), std::move(sc));
}

/// Parse a response line and sanity-check the envelope.
Json parse_response(const std::string& line) {
  std::string err;
  const auto j = json_parse(line, &err);
  EXPECT_TRUE(j.has_value()) << err << " in: " << line;
  if (!j.has_value()) return Json{};
  EXPECT_TRUE(j->is_object());
  EXPECT_NE(j->find("id"), nullptr) << line;
  const Json* ok = j->find("ok");
  EXPECT_NE(ok, nullptr) << line;
  if (ok != nullptr && ok->is_bool() && ok->as_bool()) {
    EXPECT_NE(j->find("data"), nullptr) << line;
  } else {
    const Json* e = j->find("error");
    EXPECT_NE(e, nullptr) << line;
    if (e != nullptr) {
      EXPECT_NE(e->find("code"), nullptr) << line;
      EXPECT_NE(e->find("message"), nullptr) << line;
    }
  }
  return *j;
}

std::string error_code(const Json& resp) {
  const Json* e = resp.find("error");
  if (e == nullptr) return "";
  const Json* c = e->find("code");
  return c != nullptr && c->is_string() ? c->as_string() : "";
}

TEST(Protocol, MalformedLinesGetStructuredErrors) {
  Session s = make_session();
  Protocol p(s);
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"", "parse_error"},
      {"not json", "parse_error"},
      {"{", "parse_error"},
      {"{\"cmd\":\"hello\"", "parse_error"},
      {"\"just a string\"", "bad_request"},
      {"42", "bad_request"},
      {"[1,2,3]", "bad_request"},
      {"null", "bad_request"},
      {"{}", "bad_request"},                              // no cmd
      {"{\"cmd\":5}", "bad_request"},                     // cmd not a string
      {"{\"id\":[1],\"cmd\":\"hello\"}", "bad_request"},  // id wrong type
      {"{\"cmd\":\"definitely_not_a_command\"}", "unknown_cmd"},
      {"{\"cmd\":\"net_noise\"}", "bad_args"},            // args missing
      {"{\"cmd\":\"net_noise\",\"args\":7}", "bad_args"},
      {"{\"cmd\":\"net_noise\",\"args\":{\"net\":3}}", "bad_args"},
      {"{\"cmd\":\"net_noise\",\"args\":{\"net\":\"nope\"}}", "not_found"},
      {"{\"cmd\":\"violations\",\"args\":{\"limit\":-1}}", "bad_args"},
      {"{\"cmd\":\"violations\",\"args\":{\"limit\":1.5}}", "bad_args"},
      {"{\"cmd\":\"scale_net_parasitics\",\"args\":{\"net\":\"w1\","
       "\"cap_factor\":-2,\"res_factor\":1}}",
       "bad_args"},
      {"{\"cmd\":\"hello\"} trailing", "parse_error"},
  };
  for (const auto& [line, want_code] : cases) {
    const Json resp = parse_response(p.handle_line(line));
    const Json* ok = resp.find("ok");
    ASSERT_TRUE(ok != nullptr && ok->is_bool());
    EXPECT_FALSE(ok->as_bool()) << line;
    EXPECT_EQ(error_code(resp), want_code) << line;
  }
}

TEST(Protocol, TruncatedRequestsNeverCrash) {
  Session s = make_session();
  Protocol p(s);
  const std::string valid =
      "{\"id\": 7, \"cmd\": \"net_noise\", \"args\": {\"net\": \"w1\"}}";
  for (std::size_t n = 0; n < valid.size(); ++n) {
    const Json resp = parse_response(p.handle_line(valid.substr(0, n)));
    const Json* ok = resp.find("ok");
    ASSERT_TRUE(ok != nullptr && ok->is_bool()) << n;
    EXPECT_FALSE(ok->as_bool()) << "prefix length " << n;
  }
  // The full line works.
  const Json resp = parse_response(p.handle_line(valid));
  EXPECT_TRUE(resp.find("ok")->as_bool());
}

TEST(Protocol, HugeLinesAreRejectedNotBuffered) {
  Session s = make_session();
  Protocol p(s);
  std::string huge = "{\"cmd\":\"hello\",\"pad\":\"";
  huge.append(kMaxLineBytes + 10, 'x');
  huge += "\"}";
  const Json resp = parse_response(p.handle_line(huge));
  EXPECT_FALSE(resp.find("ok")->as_bool());
  EXPECT_EQ(error_code(resp), "bad_request");
}

TEST(Protocol, DeepNestingIsBounded) {
  Session s = make_session();
  Protocol p(s);
  std::string deep(500, '[');
  deep += std::string(500, ']');
  const Json resp = parse_response(p.handle_line(deep));
  EXPECT_FALSE(resp.find("ok")->as_bool());
  EXPECT_EQ(error_code(resp), "parse_error");
}

TEST(Protocol, DuplicateIdsEchoFaithfully) {
  Session s = make_session();
  Protocol p(s);
  for (int i = 0; i < 3; ++i) {
    const Json resp = parse_response(p.handle_line("{\"id\":42,\"cmd\":\"hello\"}"));
    ASSERT_TRUE(resp.find("id")->is_number());
    EXPECT_EQ(resp.find("id")->as_number(), 42.0);
  }
  // String ids come back as strings; absent ids come back null.
  const Json sid = parse_response(p.handle_line("{\"id\":\"abc\",\"cmd\":\"hello\"}"));
  ASSERT_TRUE(sid.find("id")->is_string());
  EXPECT_EQ(sid.find("id")->as_string(), "abc");
  const Json nid = parse_response(p.handle_line("{\"cmd\":\"hello\"}"));
  EXPECT_TRUE(nid.find("id")->is_null());
}

TEST(Protocol, ServeEmitsExactlyOneResponsePerLine) {
  Session s = make_session();
  std::istringstream in(
      "{\"id\":1,\"cmd\":\"hello\"}\n"
      "garbage\n"
      "\n"  // blank: skipped, no response
      "{\"id\":2,\"cmd\":\"violations\"}\n"
      "{\"id\":2,\"cmd\":\"violations\"}\n"  // duplicate id: still answered
      "{\"cmd\":\"unknown_thing\"}\n"
      "{\"id\":3,\"cmd\":\"undo\"}\r\n"      // CRLF client
      "[1,2]\n");
  std::ostringstream out;
  const std::size_t handled = serve(s, in, out);
  EXPECT_EQ(handled, 7u);

  std::istringstream lines(out.str());
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    (void)parse_response(line);
    ++count;
  }
  EXPECT_EQ(count, 7u);
}

TEST(Protocol, FuzzCorpusNeverAborts) {
  Session s = make_session();
  Protocol p(s);
  // Deterministic chaos: slice and splice fragments of real requests with
  // junk. Every line must produce one parsable response.
  const std::vector<std::string> fragments = {
      "{\"id\":1,", "\"cmd\":\"violations\"}", "\\u0000", "\"", "}}}}", "[[[",
      "1e999",      "-",
      "{\"cmd\":\"set_coupling_cap\",\"args\":{\"net_a\":\"w0\"",
      ",\"net_b\":\"w1\",\"cap\":1e-14}}", "\xff\xfe", "true", "nul",
      "{\"id\":null,\"cmd\":\"stats\"}",
  };
  std::size_t checked = 0;
  for (std::size_t i = 0; i < fragments.size(); ++i) {
    for (std::size_t j = 0; j < fragments.size(); ++j) {
      const std::string line = fragments[i] + fragments[j];
      (void)parse_response(p.handle_line(line));
      ++checked;
    }
  }
  EXPECT_EQ(checked, fragments.size() * fragments.size());
}

TEST(Protocol, EndToEndEditQueryUndoConversation) {
  Session s = make_session();
  Protocol p(s);
  const Json v0 = parse_response(p.handle_line("{\"id\":1,\"cmd\":\"violations\"}"));
  ASSERT_TRUE(v0.find("ok")->as_bool());
  // A limit past size_t's range saturates: the whole list, not an empty one.
  const Json all = parse_response(p.handle_line(
      "{\"id\":1,\"cmd\":\"slack\",\"args\":{\"limit\":1e300}}"));
  ASSERT_TRUE(all.find("ok")->as_bool());
  ASSERT_GT(all.find("data")->find("count")->as_number(), 0.0);
  EXPECT_EQ(static_cast<double>(all.find("data")->find("endpoints")->items().size()),
            all.find("data")->find("count")->as_number());

  const Json edit = parse_response(p.handle_line(
      "{\"id\":2,\"cmd\":\"set_coupling_cap\","
      "\"args\":{\"net_a\":\"w1\",\"net_b\":\"w2\",\"cap\":5e-14}}"));
  ASSERT_TRUE(edit.find("ok")->as_bool());
  EXPECT_EQ(edit.find("data")->find("epoch")->as_number(), 1.0);

  const Json nn = parse_response(p.handle_line(
      "{\"id\":3,\"cmd\":\"net_noise\",\"args\":{\"net\":\"w1\"}}"));
  ASSERT_TRUE(nn.find("ok")->as_bool());

  const Json undo = parse_response(p.handle_line("{\"id\":4,\"cmd\":\"undo\"}"));
  ASSERT_TRUE(undo.find("ok")->as_bool());
  EXPECT_TRUE(undo.find("data")->find("undone")->as_bool());
  EXPECT_EQ(undo.find("data")->find("epoch")->as_number(), 0.0);

  const Json stats = parse_response(p.handle_line("{\"id\":5,\"cmd\":\"stats\"}"));
  ASSERT_TRUE(stats.find("ok")->as_bool());
  const Json* counters = stats.find("data")->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->find(Session::kMetricFullAnalyses)->as_number(), 1.0);
}

TEST(Protocol, TraceOriginRepliesWithTheAnalyzerTrace) {
  Session s = make_session();
  Protocol p(s);
  std::size_t with_aggressors = 0;
  for (std::size_t i = 0; i < s.design().net_count(); ++i) {
    const std::string& name = s.design().net(NetId{i}).name;
    SCOPED_TRACE(name);
    const Json resp = parse_response(p.handle_line(
        "{\"id\":1,\"cmd\":\"trace_origin\",\"args\":{\"net\":\"" + name + "\"}}"));
    ASSERT_TRUE(resp.find("ok")->as_bool());
    const noise::NoiseTrace want = noise::trace_origin(s.result(), NetId{i});
    const auto& path = resp.find("data")->find("path")->items();
    ASSERT_EQ(path.size(), want.path.size());
    for (std::size_t k = 0; k < path.size(); ++k) {
      EXPECT_EQ(path[k].find("net")->as_string(), s.design().net(want.path[k].net).name);
      EXPECT_DOUBLE_EQ(path[k].find("peak")->as_number(), want.path[k].peak);
      EXPECT_DOUBLE_EQ(path[k].find("width")->as_number(), want.path[k].width);
    }
    const auto& aggs = resp.find("data")->find("aggressors")->items();
    ASSERT_EQ(aggs.size(), want.aggressors.size());
    for (std::size_t k = 0; k < aggs.size(); ++k) {
      EXPECT_EQ(aggs[k].as_string(), s.design().net(want.aggressors[k]).name);
    }
    with_aggressors += want.aggressors.empty() ? 0 : 1;
  }
  EXPECT_GT(with_aggressors, 0u);
  const Json unknown = parse_response(p.handle_line(
      "{\"id\":2,\"cmd\":\"trace_origin\",\"args\":{\"net\":\"nope\"}}"));
  EXPECT_FALSE(unknown.find("ok")->as_bool());
}

// ---- Json unit coverage ----------------------------------------------------

TEST(Json, RoundTripsValues) {
  const std::string src =
      R"({"s":"a\"b\\c\nd","n":-1.25e-3,"i":12345,"b":true,"x":null,)"
      R"("a":[1,"two",[false]],"o":{"k":0.1}})";
  std::string err;
  const auto j = json_parse(src, &err);
  ASSERT_TRUE(j.has_value()) << err;
  // dump -> parse -> dump must be a fixpoint.
  const std::string once = j->dump();
  const auto j2 = json_parse(once, &err);
  ASSERT_TRUE(j2.has_value()) << err;
  EXPECT_EQ(once, j2->dump());
  EXPECT_EQ(j->find("s")->as_string(), "a\"b\\c\nd");
  EXPECT_EQ(j->find("i")->as_number(), 12345.0);
  EXPECT_EQ(j->find("a")->items().size(), 3u);
}

TEST(Json, IntegersRenderWithoutExponent) {
  Json o = Json::object();
  o.set("epoch", 1234567.0);
  o.set("frac", 0.5);
  EXPECT_EQ(o.dump(), "{\"epoch\":1234567,\"frac\":0.5}");
}

TEST(Json, UnicodeEscapesDecodeToUtf8) {
  const auto j = json_parse(R"("\u00e9\u20ac")");
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(j->as_string(), "\xc3\xa9\xe2\x82\xac");
}

TEST(Json, RejectsBadDocuments) {
  for (const char* bad :
       {"", "tru", "01x", "\"unterminated", "{\"a\":}", "{\"a\" 1}", "[1,]",
        "{\"a\":1,}", "\"bad \\q escape\"", "\"\\u12g4\"", "1 2"}) {
    std::string err;
    EXPECT_FALSE(json_parse(bad, &err).has_value()) << bad;
    EXPECT_FALSE(err.empty()) << bad;
  }
}

}  // namespace
}  // namespace nw::session
