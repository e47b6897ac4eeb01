#include "obs/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "util/check.hpp"

namespace scion::obs {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonWriter::before_value() {
  if (stack_.empty()) return;
  Frame& top = stack_.back();
  if (top.is_object) {
    SCION_CHECK(top.have_key, "JSON object value needs a preceding key()");
    top.have_key = false;
    return;  // key() already placed the comma
  }
  if (top.needs_comma) out_ += ',';
  top.needs_comma = true;
}

JsonWriter& JsonWriter::begin_object() {
  before_value();
  out_ += '{';
  stack_.push_back(Frame{false, true, false});
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  SCION_CHECK(!stack_.empty() && stack_.back().is_object,
              "end_object without matching begin_object");
  stack_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value();
  out_ += '[';
  stack_.push_back(Frame{false, false, false});
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  SCION_CHECK(!stack_.empty() && !stack_.back().is_object,
              "end_array without matching begin_array");
  stack_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  SCION_CHECK(!stack_.empty() && stack_.back().is_object,
              "key() outside an object");
  Frame& top = stack_.back();
  SCION_CHECK(!top.have_key, "two key() calls without a value");
  if (top.needs_comma) out_ += ',';
  top.needs_comma = true;
  top.have_key = true;
  out_ += '"';
  out_ += json_escape(k);
  out_ += "\":";
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  before_value();
  out_ += '"';
  out_ += json_escape(v);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  before_value();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  before_value();
  if (!std::isfinite(v)) {
    out_ += "null";  // JSON has no inf/nan
    return *this;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  before_value();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  before_value();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value_null() {
  before_value();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::value_raw(std::string_view json) {
  before_value();
  out_ += json;
  return *this;
}

// --- parser ------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_{text} {}

  std::optional<JsonValue> parse(std::string* error) {
    std::optional<JsonValue> v = parse_value();
    if (v) {
      skip_ws();
      if (pos_ != text_.size()) fail("trailing characters after document");
    }
    if (!error_.empty()) {
      if (error != nullptr) *error = error_;
      return std::nullopt;
    }
    return v;
  }

 private:
  void fail(const std::string& what) {
    if (error_.empty()) {
      error_ = what + " at offset " + std::to_string(pos_);
    }
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  std::optional<std::string> parse_string() {
    if (!consume('"')) {
      fail("expected string");
      return std::nullopt;
    }
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              fail("truncated \\u escape");
              return std::nullopt;
            }
            unsigned code = 0;
            const auto res = std::from_chars(text_.data() + pos_,
                                             text_.data() + pos_ + 4, code, 16);
            if (res.ec != std::errc{} || res.ptr != text_.data() + pos_ + 4) {
              fail("bad \\u escape");
              return std::nullopt;
            }
            pos_ += 4;
            // The writer only emits \u00xx for control characters.
            out += static_cast<char>(code & 0xFF);
            break;
          }
          default:
            fail("unknown escape");
            return std::nullopt;
        }
      } else {
        out += c;
      }
    }
    fail("unterminated string");
    return std::nullopt;
  }

  std::optional<JsonValue> parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return std::nullopt;
    }
    const char c = text_[pos_];
    if (c == '{' || c == '[') {
      if (depth_ == kMaxJsonDepth) {
        fail("nesting deeper than " + std::to_string(kMaxJsonDepth));
        return std::nullopt;
      }
      ++depth_;
      std::optional<JsonValue> v = c == '{' ? parse_object() : parse_array();
      --depth_;
      return v;
    }
    if (c == '"') {
      auto s = parse_string();
      if (!s) return std::nullopt;
      JsonValue v;
      v.v = std::move(*s);
      return v;
    }
    if (literal("true")) return JsonValue{true};
    if (literal("false")) return JsonValue{false};
    if (literal("null")) return JsonValue{nullptr};
    // number
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) {
      fail("expected value");
      return std::nullopt;
    }
    double num = 0;
    const auto res =
        std::from_chars(text_.data() + start, text_.data() + pos_, num);
    if (res.ec != std::errc{} || res.ptr != text_.data() + pos_) {
      fail("malformed number");
      return std::nullopt;
    }
    return JsonValue{num};
  }

  std::optional<JsonValue> parse_object() {
    consume('{');
    JsonValue::Object obj;
    skip_ws();
    if (consume('}')) return JsonValue{std::move(obj)};
    while (true) {
      skip_ws();
      auto k = parse_string();
      if (!k) return std::nullopt;
      if (!consume(':')) {
        fail("expected ':' in object");
        return std::nullopt;
      }
      auto v = parse_value();
      if (!v) return std::nullopt;
      obj.emplace(std::move(*k), std::move(*v));
      if (consume(',')) continue;
      if (consume('}')) return JsonValue{std::move(obj)};
      fail("expected ',' or '}' in object");
      return std::nullopt;
    }
  }

  std::optional<JsonValue> parse_array() {
    consume('[');
    JsonValue::Array arr;
    skip_ws();
    if (consume(']')) return JsonValue{std::move(arr)};
    while (true) {
      auto v = parse_value();
      if (!v) return std::nullopt;
      arr.push_back(std::move(*v));
      if (consume(',')) continue;
      if (consume(']')) return JsonValue{std::move(arr)};
      fail("expected ',' or ']' in array");
      return std::nullopt;
    }
  }

  std::string_view text_;
  std::size_t pos_{0};
  std::size_t depth_{0};  // open objects/arrays enclosing pos_
  std::string error_;
};

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  const Object& obj = as_object();
  const auto it = obj.find(std::string{key});
  return it == obj.end() ? nullptr : &it->second;
}

std::optional<JsonValue> parse_json(std::string_view text, std::string* error) {
  return Parser{text}.parse(error);
}

}  // namespace scion::obs
