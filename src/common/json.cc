#include "common/json.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace safespec::json {

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value parse() {
    Value value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("JSON error at offset " +
                                std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of document");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* literal) {
    const std::size_t len = std::strlen(literal);
    if (text_.compare(pos_, len, literal) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          default: fail("unsupported escape sequence");
        }
      }
      out += c;
    }
    if (pos_ >= text_.size()) fail("unterminated string");
    ++pos_;  // closing quote
    return out;
  }

  Value parse_value() {
    const char c = peek();
    Value value;
    if (c == '{') {
      value.kind = Value::Kind::kObject;
      ++pos_;
      if (peek() == '}') {
        ++pos_;
        return value;
      }
      for (;;) {
        std::string key = parse_string();
        expect(':');
        value.object.emplace_back(std::move(key), parse_value());
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect('}');
        return value;
      }
    }
    if (c == '[') {
      value.kind = Value::Kind::kArray;
      ++pos_;
      if (peek() == ']') {
        ++pos_;
        return value;
      }
      for (;;) {
        value.array.push_back(parse_value());
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect(']');
        return value;
      }
    }
    if (c == '"') {
      value.kind = Value::Kind::kString;
      value.text = parse_string();
      return value;
    }
    if (consume_literal("true")) {
      value.kind = Value::Kind::kBool;
      value.boolean = true;
      return value;
    }
    if (consume_literal("false")) {
      value.kind = Value::Kind::kBool;
      value.boolean = false;
      return value;
    }
    if (consume_literal("null")) return value;
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      value.kind = Value::Kind::kNumber;
      const std::size_t start = pos_;
      if (text_[pos_] == '-') ++pos_;
      while (pos_ < text_.size() &&
             (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '.' || text_[pos_] == 'e' ||
              text_[pos_] == 'E' || text_[pos_] == '+' ||
              text_[pos_] == '-')) {
        ++pos_;
      }
      value.text = text_.substr(start, pos_ - start);
      return value;
    }
    fail("unexpected character");
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

Value parse(const std::string& text) { return Parser(text).parse(); }

std::string read_file(const std::string& path, const char* what) {
  std::ifstream in(path);
  if (!in) {
    throw std::invalid_argument(std::string("cannot read ") + what +
                                " file: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

Value parse_file(const std::string& path) {
  return parse(read_file(path));
}

// ---- typed field readers ----------------------------------------------------

std::uint64_t parse_u64(const std::string& token, const std::string& where) {
  char* end = nullptr;
  const int base = token.compare(0, 2, "0x") == 0 ? 16 : 10;
  errno = 0;
  const std::uint64_t value = std::strtoull(token.c_str(), &end, base);
  // strtoull silently wraps "-5" to 2^64-5; every field here is a size,
  // count or latency, so a sign is always a mistake worth diagnosing.
  if (end == token.c_str() || *end != '\0' || token[0] == '-' ||
      errno == ERANGE) {
    throw std::invalid_argument("expected a non-negative integer for \"" +
                                where + "\", got \"" + token + "\"");
  }
  return value;
}

int parse_int(const std::string& token, const std::string& where) {
  const std::uint64_t value = parse_u64(token, where);
  constexpr auto kMax = std::numeric_limits<int>::max();
  if (value > static_cast<std::uint64_t>(kMax)) {
    throw std::invalid_argument("\"" + where + "\" is out of range: \"" +
                                token + "\" exceeds " +
                                std::to_string(kMax));
  }
  return static_cast<int>(value);
}

namespace {
/// The text of a number (or numeric string) value; throws otherwise.
const std::string& number_text(const Value& v, const std::string& where) {
  if (v.kind != Value::Kind::kNumber && v.kind != Value::Kind::kString) {
    throw std::invalid_argument("expected a number for \"" + where + "\"");
  }
  return v.text;
}
}  // namespace

std::uint64_t as_u64(const Value& v, const std::string& where) {
  return parse_u64(number_text(v, where), where);
}

int as_int(const Value& v, const std::string& where) {
  return parse_int(number_text(v, where), where);
}

double as_double(const Value& v, const std::string& where) {
  if (v.kind != Value::Kind::kNumber) {
    throw std::invalid_argument("expected a number for \"" + where + "\"");
  }
  char* end = nullptr;
  const double value = std::strtod(v.text.c_str(), &end);
  if (end == v.text.c_str() || *end != '\0') {
    throw std::invalid_argument("malformed number for \"" + where +
                                "\": \"" + v.text + "\"");
  }
  return value;
}

void read_u64(const Value& obj, const char* key, std::uint64_t& out) {
  if (const Value* v = obj.find(key)) out = as_u64(*v, key);
}

void read_int(const Value& obj, const char* key, int& out) {
  if (const Value* v = obj.find(key)) out = as_int(*v, key);
}

void read_double(const Value& obj, const char* key, double& out) {
  if (const Value* v = obj.find(key)) out = as_double(*v, key);
}

void read_bool(const Value& obj, const char* key, bool& out) {
  if (const Value* v = obj.find(key)) {
    if (v->kind != Value::Kind::kBool) {
      throw std::invalid_argument(std::string("expected true/false for \"") +
                                  key + "\"");
    }
    out = v->boolean;
  }
}

void read_string(const Value& obj, const char* key, std::string& out) {
  if (const Value* v = obj.find(key)) {
    if (v->kind != Value::Kind::kString) {
      throw std::invalid_argument(std::string("expected a string for \"") +
                                  key + "\"");
    }
    out = v->text;
  }
}

// ---- writing ----------------------------------------------------------------

void Writer::field(const char* key, std::uint64_t value) {
  item(key, std::to_string(value));
}

void Writer::field(const char* key, int value) {
  item(key, std::to_string(value));
}

void Writer::field(const char* key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  // %.17g prints integral doubles without a decimal point; keep the token
  // unambiguously a number either way (JSON accepts both forms).
  item(key, buf);
}

void Writer::field(const char* key, bool value) {
  item(key, value ? "true" : "false");
}

void Writer::field(const char* key, const std::string& value) {
  std::string escaped = "\"";
  for (char c : value) {
    if (c == '"' || c == '\\') escaped += '\\';
    escaped += c;
  }
  escaped += '"';
  item(key, escaped);
}

void Writer::open_scope(const char* key, char bracket) {
  begin_item();
  if (key != nullptr) out_ += std::string("\"") + key + "\": ";
  out_ += bracket;
  ++depth_;
  fresh_scope_ = true;
}

void Writer::close_scope(char bracket) {
  --depth_;
  if (!fresh_scope_) {
    out_ += '\n';
    indent();
  }
  out_ += bracket;
  fresh_scope_ = false;
}

void Writer::item(const char* key, const std::string& rendered) {
  begin_item();
  if (key != nullptr) out_ += std::string("\"") + key + "\": ";
  out_ += rendered;
}

void Writer::begin_item() {
  if (depth_ > 0) {
    if (!fresh_scope_) out_ += ',';
    out_ += '\n';
    indent();
  }
  fresh_scope_ = false;
}

}  // namespace safespec::json
