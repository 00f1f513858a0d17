#include "obs/json.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace fbt::obs {

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

/// Recursive-descent parser over the raw text. Position-based so error
/// messages can name the byte offset.
class Parser {
 public:
  Parser(const std::string& text, std::string& error)
      : text_(text), error_(error) {}

  bool parse(JsonValue& out) {
    skip_ws();
    if (!parse_value(out, 0)) return false;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing characters");
    return true;
  }

 private:
  static constexpr int kMaxDepth = 64;

  bool fail(const char* what) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "JSON parse error at byte %zu: %s", pos_,
                  what);
    error_ = buf;
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool parse_value(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{': return parse_object(out, depth);
      case '[': return parse_array(out, depth);
      case '"': out.kind = JsonValue::Kind::kString;
                return parse_string(out.string);
      case 't':
        if (text_.compare(pos_, 4, "true") != 0) return fail("bad literal");
        pos_ += 4;
        out.kind = JsonValue::Kind::kBool;
        out.boolean = true;
        return true;
      case 'f':
        if (text_.compare(pos_, 5, "false") != 0) return fail("bad literal");
        pos_ += 5;
        out.kind = JsonValue::Kind::kBool;
        out.boolean = false;
        return true;
      case 'n':
        if (text_.compare(pos_, 4, "null") != 0) return fail("bad literal");
        pos_ += 4;
        out.kind = JsonValue::Kind::kNull;
        return true;
      default: return parse_number(out);
    }
  }

  bool parse_object(JsonValue& out, int depth) {
    out.kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return fail("expected object key");
      }
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') return fail("expected :");
      ++pos_;
      skip_ws();
      JsonValue value;
      if (!parse_value(value, depth + 1)) return false;
      out.object.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected , or }");
    }
  }

  bool parse_array(JsonValue& out, int depth) {
    out.kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      JsonValue value;
      if (!parse_value(value, depth + 1)) return false;
      out.array.push_back(std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected , or ]");
    }
  }

  bool parse_string(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return fail("bad escape");
        switch (text_[pos_]) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 >= text_.size()) return fail("bad \\u escape");
            char hex[5] = {text_[pos_ + 1], text_[pos_ + 2], text_[pos_ + 3],
                           text_[pos_ + 4], '\0'};
            char* end = nullptr;
            const long code = std::strtol(hex, &end, 16);
            if (end != hex + 4) return fail("bad \\u escape");
            // Reports only escape control characters; anything wider than
            // ASCII decodes to '?' rather than UTF-8.
            out += code < 0x80 ? static_cast<char>(code) : '?';
            pos_ += 4;
            break;
          }
          default: return fail("bad escape");
        }
        ++pos_;
        continue;
      }
      out += c;
      ++pos_;
    }
    return fail("unterminated string");
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return fail("expected value");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return fail("bad number");
    out.kind = JsonValue::Kind::kNumber;
    out.number = v;
    return true;
  }

  const std::string& text_;
  std::string& error_;
  std::size_t pos_ = 0;
};

}  // namespace

bool json_parse(const std::string& text, JsonValue& out, std::string& error) {
  out = JsonValue{};
  error.clear();
  return Parser(text, error).parse(out);
}

}  // namespace fbt::obs
