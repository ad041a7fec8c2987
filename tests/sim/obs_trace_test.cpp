#include "sim/obs/trace.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

namespace dclue::obs {
namespace {

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON parser — just enough to round-trip the
// tracer's output and check it against the Chrome trace-event schema. Kept
// local to the test so the production tree carries no JSON-reading code.
// ---------------------------------------------------------------------------

struct JsonValue;
using JsonObject = std::map<std::string, JsonValue>;
using JsonArray = std::vector<JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string,
               std::shared_ptr<JsonArray>, std::shared_ptr<JsonObject>>
      v = nullptr;

  [[nodiscard]] bool is_object() const {
    return std::holds_alternative<std::shared_ptr<JsonObject>>(v);
  }
  [[nodiscard]] bool is_array() const {
    return std::holds_alternative<std::shared_ptr<JsonArray>>(v);
  }
  [[nodiscard]] const JsonObject& object() const {
    return *std::get<std::shared_ptr<JsonObject>>(v);
  }
  [[nodiscard]] const JsonArray& array() const {
    return *std::get<std::shared_ptr<JsonArray>>(v);
  }
  [[nodiscard]] double number() const { return std::get<double>(v); }
  [[nodiscard]] const std::string& str() const {
    return std::get<std::string>(v);
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool parse(JsonValue& out) {
    skip_ws();
    if (!parse_value(out)) return false;
    skip_ws();
    return pos_ == s_.size();  // trailing garbage is a failure
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool parse_value(JsonValue& out) {
    skip_ws();
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return parse_object(out);
      case '[':
        return parse_array(out);
      case '"':
        return parse_string_value(out);
      case 't':
        return parse_literal("true", out, JsonValue{true});
      case 'f':
        return parse_literal("false", out, JsonValue{false});
      case 'n':
        return parse_literal("null", out, JsonValue{nullptr});
      default:
        return parse_number(out);
    }
  }

  bool parse_literal(const char* lit, JsonValue& out, JsonValue value) {
    const std::size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    out = std::move(value);
    return true;
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    try {
      out.v = std::stod(s_.substr(start, pos_ - start));
    } catch (...) {
      return false;
    }
    return true;
  }

  bool parse_string(std::string& out) {
    if (s_[pos_] != '"') return false;
    ++pos_;
    out.clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        if (pos_ + 1 >= s_.size()) return false;
        ++pos_;  // the tracer only ever emits \" and \\ escapes
      }
      out += s_[pos_++];
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool parse_string_value(JsonValue& out) {
    std::string str;
    if (!parse_string(str)) return false;
    out.v = std::move(str);
    return true;
  }

  bool parse_array(JsonValue& out) {
    ++pos_;  // '['
    auto arr = std::make_shared<JsonArray>();
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      out.v = arr;
      return true;
    }
    while (true) {
      JsonValue elem;
      if (!parse_value(elem)) return false;
      arr->push_back(std::move(elem));
      skip_ws();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        out.v = arr;
        return true;
      }
      return false;
    }
  }

  bool parse_object(JsonValue& out) {
    ++pos_;  // '{'
    auto obj = std::make_shared<JsonObject>();
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      out.v = obj;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (pos_ >= s_.size() || !parse_string(key)) return false;
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != ':') return false;
      ++pos_;
      JsonValue val;
      if (!parse_value(val)) return false;
      (*obj)[key] = std::move(val);
      skip_ws();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        out.v = obj;
        return true;
      }
      return false;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

/// Chrome trace-event schema checks shared by the tests: every event needs
/// ph/name/ts/pid/tid; spans carry dur, counters carry args.value, instants
/// carry a scope.
void expect_valid_chrome_event(const JsonValue& ev) {
  ASSERT_TRUE(ev.is_object());
  const JsonObject& o = ev.object();
  ASSERT_TRUE(o.count("ph"));
  ASSERT_TRUE(o.count("name"));
  ASSERT_TRUE(o.count("ts"));
  ASSERT_TRUE(o.count("pid"));
  ASSERT_TRUE(o.count("tid"));
  const std::string& ph = o.at("ph").str();
  if (ph == "X") {
    EXPECT_TRUE(o.count("dur")) << "complete event without dur";
    EXPECT_GE(o.at("dur").number(), 0.0);
  } else if (ph == "C") {
    ASSERT_TRUE(o.count("args")) << "counter event without args";
    EXPECT_TRUE(o.at("args").object().count("value"));
  } else if (ph == "i") {
    ASSERT_TRUE(o.count("s")) << "instant event without scope";
    const std::string& scope = o.at("s").str();
    EXPECT_TRUE(scope == "t" || scope == "p" || scope == "g");
  } else {
    FAIL() << "unexpected phase " << ph;
  }
}

TEST(Tracer, EmptyTraceIsValidJson) {
  Tracer t;
  JsonValue root;
  ASSERT_TRUE(JsonParser(t.to_json()).parse(root));
  ASSERT_TRUE(root.is_object());
  ASSERT_TRUE(root.object().count("traceEvents"));
  EXPECT_TRUE(root.object().at("traceEvents").array().empty());
}

TEST(Tracer, RoundTripPreservesEveryField) {
  Tracer t(/*pid=*/3);
  t.record_span("txn", "neworder", 1.0, 1.5, /*tid=*/7);
  t.record_instant("tcp", "rto", 2.0, /*tid=*/9);
  t.record_counter("tcp", "cwnd", 2.5, 8192.0, /*tid=*/9);

  JsonValue root;
  ASSERT_TRUE(JsonParser(t.to_json()).parse(root));
  const JsonArray& evs = root.object().at("traceEvents").array();
  ASSERT_EQ(evs.size(), 3u);
  for (const JsonValue& ev : evs) expect_valid_chrome_event(ev);

  const JsonObject& span = evs[0].object();
  EXPECT_EQ(span.at("ph").str(), "X");
  EXPECT_EQ(span.at("cat").str(), "txn");
  EXPECT_EQ(span.at("name").str(), "neworder");
  EXPECT_DOUBLE_EQ(span.at("ts").number(), 1.0e6);  // seconds -> microseconds
  EXPECT_DOUBLE_EQ(span.at("dur").number(), 0.5e6);
  EXPECT_DOUBLE_EQ(span.at("pid").number(), 3.0);
  EXPECT_DOUBLE_EQ(span.at("tid").number(), 7.0);

  const JsonObject& inst = evs[1].object();
  EXPECT_EQ(inst.at("ph").str(), "i");
  EXPECT_EQ(inst.at("name").str(), "rto");
  EXPECT_DOUBLE_EQ(inst.at("ts").number(), 2.0e6);

  const JsonObject& ctr = evs[2].object();
  EXPECT_EQ(ctr.at("ph").str(), "C");
  EXPECT_DOUBLE_EQ(ctr.at("args").object().at("value").number(), 8192.0);
}

TEST(Tracer, AppendKeepsSourcePid) {
  Tracer merged(/*pid=*/0);
  merged.record_instant("a", "own", 0.0);
  Tracer other(/*pid=*/5);
  other.record_instant("b", "foreign", 1.0);
  merged.append(other);
  EXPECT_EQ(merged.size(), 1u);  // size() counts own events only

  JsonValue root;
  ASSERT_TRUE(JsonParser(merged.to_json()).parse(root));
  const JsonArray& evs = root.object().at("traceEvents").array();
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_DOUBLE_EQ(evs[0].object().at("pid").number(), 0.0);
  EXPECT_DOUBLE_EQ(evs[1].object().at("pid").number(), 5.0);
}

TEST(Tracer, MacrosAreNoOpsWithoutInstalledTracer) {
  ASSERT_EQ(tracer(), nullptr);
  int evaluations = 0;
  auto now = [&evaluations] {
    ++evaluations;
    return 1.0;
  };
  // The runtime kill switch skips recording, and with it the evaluation of
  // the probe arguments.
  DCLUE_TRACE_INSTANT("cat", "name", now(), 0);
  Tracer probe;
  {
    TracerScope scope(&probe);
    DCLUE_TRACE_INSTANT("cat", "name", now(), 0);
  }
  EXPECT_EQ(probe.size(), 1u);
  DCLUE_TRACE_INSTANT("cat", "name", now(), 0);
  EXPECT_EQ(probe.size(), 1u);
  EXPECT_EQ(evaluations, 1);
}

TEST(Tracer, TracerScopeRestoresPreviousTracer) {
  Tracer outer, inner;
  TracerScope outer_scope(&outer);
  EXPECT_EQ(tracer(), &outer);
  {
    TracerScope inner_scope(&inner);
    EXPECT_EQ(tracer(), &inner);
  }
  EXPECT_EQ(tracer(), &outer);
  set_tracer(nullptr);
}

}  // namespace
}  // namespace dclue::obs
