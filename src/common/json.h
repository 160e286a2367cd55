#ifndef CWDB_COMMON_JSON_H_
#define CWDB_COMMON_JSON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace cwdb {

/// Minimal JSON document model for the engine's own machine-readable
/// artifacts (metrics.json, incidents.jsonl, recovery_provenance.json).
/// It exists so offline tools (`cwdb_ctl trace|incidents|explain-recovery`)
/// can decode what the engine wrote without an external dependency; it is
/// not a general-purpose JSON library (no \uXXXX surrogate pairs, numbers
/// are kept as their source token so 64-bit nanosecond timestamps survive
/// without a double round-trip).
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  Type type() const { return type_; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_number() const { return type_ == Type::kNumber; }

  bool bool_value() const { return bool_; }
  /// Unescaped string contents.
  const std::string& string_value() const { return str_; }
  /// The raw number token (e.g. "18446744073709551615").
  const std::string& number_token() const { return str_; }
  uint64_t AsU64() const;
  int64_t AsI64() const;
  double AsDouble() const;

  const std::vector<JsonValue>& array() const { return arr_; }
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return obj_;
  }

  /// First member named `key`; nullptr if absent or not an object.
  const JsonValue* Find(std::string_view key) const;
  /// Find + AsU64, with `fallback` when the member is absent.
  uint64_t U64(std::string_view key, uint64_t fallback = 0) const;
  /// Find + string_value, empty when absent.
  std::string Str(std::string_view key) const;

 private:
  friend class JsonParser;

  Type type_ = Type::kNull;
  bool bool_ = false;
  std::string str_;  ///< String contents or raw number token.
  std::vector<JsonValue> arr_;
  std::vector<std::pair<std::string, JsonValue>> obj_;
};

/// Parses one JSON document (trailing whitespace allowed, nothing else).
Result<JsonValue> ParseJson(std::string_view text);

/// Appends `s` JSON-escaped (quotes not included).
void JsonAppendEscaped(std::string* out, std::string_view s);
/// `"s"` with escaping.
std::string JsonQuote(std::string_view s);

/// Appends printf-formatted text — the renderers' building block. One
/// call renders at most 511 bytes; anything past that is cut off.
void Appendf(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

}  // namespace cwdb

#endif  // CWDB_COMMON_JSON_H_
