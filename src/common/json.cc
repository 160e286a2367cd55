#include "common/json.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace cwdb {
namespace {

class JsonCursor {
 public:
  explicit JsonCursor(std::string_view text) : text_(text) {}

  void SkipWs() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }
  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }
  char Take() { return text_[pos_++]; }
  bool Consume(char c) {
    if (AtEnd() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }
  bool ConsumeWord(std::string_view w) {
    if (text_.substr(pos_, w.size()) != w) return false;
    pos_ += w.size();
    return true;
  }
  size_t pos() const { return pos_; }
  std::string_view Slice(size_t begin) const {
    return text_.substr(begin, pos_ - begin);
  }

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : cur_(text) {}

  Result<JsonValue> Parse() {
    cur_.SkipWs();
    JsonValue v;
    Status s = ParseValue(&v, 0);
    if (!s.ok()) return s;
    cur_.SkipWs();
    if (!cur_.AtEnd()) return Fail("trailing characters after document");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Fail(const char* what) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "json parse error at byte %zu: %s",
                  cur_.pos(), what);
    return Status::InvalidArgument(buf);
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    cur_.SkipWs();
    if (cur_.AtEnd()) return Fail("unexpected end of input");
    char c = cur_.Peek();
    switch (c) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out->type_ = JsonValue::Type::kString;
        return ParseString(&out->str_);
      case 't':
        if (!cur_.ConsumeWord("true")) return Fail("bad literal");
        out->type_ = JsonValue::Type::kBool;
        out->bool_ = true;
        return Status::OK();
      case 'f':
        if (!cur_.ConsumeWord("false")) return Fail("bad literal");
        out->type_ = JsonValue::Type::kBool;
        out->bool_ = false;
        return Status::OK();
      case 'n':
        if (!cur_.ConsumeWord("null")) return Fail("bad literal");
        out->type_ = JsonValue::Type::kNull;
        return Status::OK();
      default:
        return ParseNumber(out);
    }
  }

  Status ParseObject(JsonValue* out, int depth) {
    cur_.Take();  // '{'
    out->type_ = JsonValue::Type::kObject;
    cur_.SkipWs();
    if (cur_.Consume('}')) return Status::OK();
    while (true) {
      cur_.SkipWs();
      if (cur_.AtEnd() || cur_.Peek() != '"') return Fail("expected key");
      std::string key;
      Status s = ParseString(&key);
      if (!s.ok()) return s;
      cur_.SkipWs();
      if (!cur_.Consume(':')) return Fail("expected ':'");
      JsonValue v;
      s = ParseValue(&v, depth + 1);
      if (!s.ok()) return s;
      out->obj_.emplace_back(std::move(key), std::move(v));
      cur_.SkipWs();
      if (cur_.Consume(',')) continue;
      if (cur_.Consume('}')) return Status::OK();
      return Fail("expected ',' or '}'");
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    cur_.Take();  // '['
    out->type_ = JsonValue::Type::kArray;
    cur_.SkipWs();
    if (cur_.Consume(']')) return Status::OK();
    while (true) {
      JsonValue v;
      Status s = ParseValue(&v, depth + 1);
      if (!s.ok()) return s;
      out->arr_.push_back(std::move(v));
      cur_.SkipWs();
      if (cur_.Consume(',')) continue;
      if (cur_.Consume(']')) return Status::OK();
      return Fail("expected ',' or ']'");
    }
  }

  Status ParseString(std::string* out) {
    cur_.Take();  // '"'
    out->clear();
    while (true) {
      if (cur_.AtEnd()) return Fail("unterminated string");
      char c = cur_.Take();
      if (c == '"') return Status::OK();
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (cur_.AtEnd()) return Fail("unterminated escape");
      char e = cur_.Take();
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          // The engine only ever escapes control bytes as \u00XX; decode
          // those and reject anything wider rather than mis-handle it.
          unsigned v = 0;
          for (int i = 0; i < 4; ++i) {
            if (cur_.AtEnd()) return Fail("truncated \\u escape");
            char h = cur_.Take();
            v <<= 4;
            if (h >= '0' && h <= '9') v |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') v |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') v |= static_cast<unsigned>(h - 'A' + 10);
            else return Fail("bad \\u escape");
          }
          if (v > 0x7F) return Fail("non-ASCII \\u escape unsupported");
          out->push_back(static_cast<char>(v));
          break;
        }
        default:
          return Fail("bad escape");
      }
    }
  }

  Status ParseNumber(JsonValue* out) {
    size_t begin = cur_.pos();
    cur_.Consume('-');
    bool any = false;
    while (!cur_.AtEnd()) {
      char c = cur_.Peek();
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        cur_.Take();
        any = true;
      } else {
        break;
      }
    }
    if (!any) return Fail("expected value");
    out->type_ = JsonValue::Type::kNumber;
    out->str_ = std::string(cur_.Slice(begin));
    return Status::OK();
  }

  JsonCursor cur_;
};

uint64_t JsonValue::AsU64() const {
  if (type_ != Type::kNumber) return 0;
  return std::strtoull(str_.c_str(), nullptr, 10);
}

int64_t JsonValue::AsI64() const {
  if (type_ != Type::kNumber) return 0;
  return std::strtoll(str_.c_str(), nullptr, 10);
}

double JsonValue::AsDouble() const {
  if (type_ != Type::kNumber) return 0.0;
  return std::strtod(str_.c_str(), nullptr);
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

uint64_t JsonValue::U64(std::string_view key, uint64_t fallback) const {
  const JsonValue* v = Find(key);
  return v ? v->AsU64() : fallback;
}

std::string JsonValue::Str(std::string_view key) const {
  const JsonValue* v = Find(key);
  return v && v->is_string() ? v->string_value() : std::string();
}

Result<JsonValue> ParseJson(std::string_view text) {
  return JsonParser(text).Parse();
}

void JsonAppendEscaped(std::string* out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\n': out->append("\\n"); break;
      case '\r': out->append("\\r"); break;
      case '\t': out->append("\\t"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
}

void Appendf(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  if (n > 0) {
    out->append(buf, std::min(static_cast<size_t>(n), sizeof(buf) - 1));
  }
}

std::string JsonQuote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  JsonAppendEscaped(&out, s);
  out.push_back('"');
  return out;
}

}  // namespace cwdb
