// Minimal JSON reading/writing shared by every config surface.
//
// A self-contained value type + recursive-descent parser covering the
// subset the project's config documents use (objects, arrays, strings,
// numbers, booleans, null), plus an indenting writer with stable key
// order so emitted documents round-trip. Numbers keep their raw token so
// 64-bit addresses survive exactly; quoted "0x..." strings are accepted
// wherever an integer is expected, so memory maps can be written in hex.
//
// Grown out of sim/machine.cc (MachineSpec JSON) when the fuzzing
// subsystem needed the same machinery for FuzzSpec documents.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace safespec::json {

/// One parsed JSON value.
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  std::string text;  ///< raw number token or string contents
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  /// First member with the given key; nullptr when absent (or not an
  /// object).
  const Value* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

/// Parses one complete document. Throws std::invalid_argument with the
/// byte offset on malformed input.
Value parse(const std::string& text);

/// Reads a whole file into a string ("<what> file" names it in the
/// error). Throws std::invalid_argument when the file cannot be read —
/// the shared front half of every from_json_file.
std::string read_file(const std::string& path, const char* what = "JSON");

/// Reads and parses a whole file. Throws std::invalid_argument when the
/// file cannot be read or does not parse.
Value parse_file(const std::string& path);

// ---- typed field readers ----------------------------------------------------
// The read_* helpers are tolerant of absent keys (the out-param keeps its
// value), so a config document only needs the deltas it cares about;
// present-but-mistyped values throw.

/// "123" or "0x7b" -> 123. Rejects signs, garbage and overflow; `where`
/// names the field in the error message.
std::uint64_t parse_u64(const std::string& token, const std::string& where);
/// parse_u64 narrowed to int: anything above INT_MAX is rejected, naming
/// `where` and the token as given, instead of wrapping (4294967298 would
/// otherwise read as 2).
int parse_int(const std::string& token, const std::string& where);

std::uint64_t as_u64(const Value& v, const std::string& where);
int as_int(const Value& v, const std::string& where);
double as_double(const Value& v, const std::string& where);

void read_u64(const Value& obj, const char* key, std::uint64_t& out);
void read_int(const Value& obj, const char* key, int& out);
void read_double(const Value& obj, const char* key, double& out);
void read_bool(const Value& obj, const char* key, bool& out);
void read_string(const Value& obj, const char* key, std::string& out);

// ---- writing ----------------------------------------------------------------

/// Streaming writer producing the pretty-printed two-space-indented
/// layout every to_json() in the project emits.
class Writer {
 public:
  std::string take() { return std::move(out_); }

  void open(const char* key = nullptr) { open_scope(key, '{'); }
  void open_array(const char* key) { open_scope(key, '['); }
  void close() { close_scope('}'); }
  void close_array() { close_scope(']'); }

  void field(const char* key, std::uint64_t value);
  void field(const char* key, int value);
  void field(const char* key, double value);
  void field(const char* key, bool value);
  void field(const char* key, const std::string& value);
  void field(const char* key, const char* value) {
    field(key, std::string(value));
  }

 private:
  void open_scope(const char* key, char bracket);
  void close_scope(char bracket);
  void item(const char* key, const std::string& rendered);
  void begin_item();
  void indent() { out_.append(static_cast<std::size_t>(depth_) * 2, ' '); }

  std::string out_;
  int depth_ = 0;
  bool fresh_scope_ = false;
};

}  // namespace safespec::json
