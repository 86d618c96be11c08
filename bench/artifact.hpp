// Section merge for the BENCH JSON artifact.
//
// BENCH_spmm.json is one JSON object whose top-level members are
// sections written by different benches: bench_resident writes the
// file, then bench_model, bench_decode and bench_serving_open each merge
// their own section into it (--merge). merge_section() replaces only the
// named member's value, or appends the member when it is new, and keeps
// every other member's text verbatim and in order:
//
//   if (!bench::merge_section("BENCH_fresh.json", "model", json)) ...
//
// The file is parsed, not searched: a malformed artifact or section
// value is refused and the file is left untouched.
#pragma once

#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace nmspmm::bench {

namespace artifact_detail {

inline void skip_ws(std::string_view s, std::size_t& i) {
  while (i < s.size() &&
         (s[i] == ' ' || s[i] == '\t' || s[i] == '\r' || s[i] == '\n')) {
    ++i;
  }
}

inline bool skip_string(std::string_view s, std::size_t& i) {
  if (i >= s.size() || s[i] != '"') return false;
  for (++i; i < s.size(); ++i) {
    if (s[i] == '\\') {
      ++i;
    } else if (s[i] == '"') {
      ++i;
      return true;
    } else if (static_cast<unsigned char>(s[i]) < 0x20) {
      return false;
    }
  }
  return false;
}

inline bool skip_digits(std::string_view s, std::size_t& i) {
  const std::size_t start = i;
  while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i;
  return i > start;
}

inline bool skip_number(std::string_view s, std::size_t& i) {
  if (i < s.size() && s[i] == '-') ++i;
  if (!skip_digits(s, i)) return false;
  if (i < s.size() && s[i] == '.' && !skip_digits(s, ++i)) return false;
  if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
    ++i;
    if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
    if (!skip_digits(s, i)) return false;
  }
  return true;
}

/// Advances @p i past one JSON value; false when the text is malformed.
inline bool skip_value(std::string_view s, std::size_t& i) {
  skip_ws(s, i);
  if (i >= s.size()) return false;
  const char open = s[i];
  if (open == '"') return skip_string(s, i);
  if (open != '{' && open != '[') {
    for (const std::string_view lit : {"true", "false", "null"}) {
      if (s.substr(i, lit.size()) == lit) {
        i += lit.size();
        return true;
      }
    }
    return skip_number(s, i);
  }
  const char close = open == '{' ? '}' : ']';
  ++i;
  skip_ws(s, i);
  if (i < s.size() && s[i] == close) {
    ++i;
    return true;
  }
  while (true) {
    if (open == '{') {
      skip_ws(s, i);
      if (!skip_string(s, i)) return false;
      skip_ws(s, i);
      if (i >= s.size() || s[i++] != ':') return false;
    }
    if (!skip_value(s, i)) return false;
    skip_ws(s, i);
    if (i >= s.size()) return false;
    if (s[i] == close) {
      ++i;
      return true;
    }
    if (s[i++] != ',') return false;
  }
}

}  // namespace artifact_detail

/// True when @p json is exactly one well-formed JSON value.
inline bool is_valid_json(std::string_view json) {
  std::size_t i = 0;
  if (!artifact_detail::skip_value(json, i)) return false;
  artifact_detail::skip_ws(json, i);
  return i == json.size();
}

/// A JSON object's top-level members: (key, the value's raw text).
using Members = std::vector<std::pair<std::string, std::string>>;

/// The members of the JSON object @p json, values verbatim; nullopt
/// when @p json is not one well-formed object.
inline std::optional<Members> parse_members(std::string_view json) {
  using namespace artifact_detail;
  if (!is_valid_json(json)) return std::nullopt;
  std::size_t i = 0;
  skip_ws(json, i);
  if (json[i++] != '{') return std::nullopt;
  Members members;
  skip_ws(json, i);
  if (json[i] == '}') return members;
  while (true) {
    skip_ws(json, i);
    const std::size_t key_start = i;
    skip_string(json, i);
    std::string key(json.substr(key_start + 1, i - key_start - 2));
    skip_ws(json, i);
    ++i;  // ':'
    skip_ws(json, i);
    const std::size_t value_start = i;
    skip_value(json, i);
    members.emplace_back(
        std::move(key), std::string(json.substr(value_start, i - value_start)));
    skip_ws(json, i);
    if (json[i++] == '}') return members;
  }
}

/// The artifact layout: one member per line, two-space indent.
inline std::string format_members(const Members& members) {
  std::string out = "{";
  for (std::size_t m = 0; m < members.size(); ++m) {
    out += m == 0 ? "\n  \"" : ",\n  \"";
    out += members[m].first + "\": " + members[m].second;
  }
  return out + "\n}\n";
}

/// Sets section @p name of the artifact at @p path to @p value_json.
/// False (file untouched) when the file cannot be read, either side is
/// malformed JSON, or the file cannot be written.
inline bool merge_section(const std::string& path, const std::string& name,
                          const std::string& value_json) {
  if (!is_valid_json(value_json)) return false;
  std::ifstream is(path);
  if (!is) return false;
  std::stringstream buffer;
  buffer << is.rdbuf();
  std::optional<Members> members = parse_members(buffer.str());
  if (!members) return false;
  bool replaced = false;
  for (auto& [key, value] : *members) {
    if (key == name) {
      value = value_json;
      replaced = true;
    }
  }
  if (!replaced) members->emplace_back(name, value_json);
  std::ofstream os(path);
  if (!os) return false;
  os << format_members(*members);
  return static_cast<bool>(os);
}

}  // namespace nmspmm::bench
