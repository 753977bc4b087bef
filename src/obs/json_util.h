// Tiny JSON emission helpers shared by every obs-layer writer (metrics
// report, Chrome-trace file, timeline JSONL). The obs layer sits below
// src/report in the link order, so it cannot use report/json.h; these mirror
// that header's escaping/number contract and a test pins the two together.
#pragma once

#include <cstdint>
#include <string>

namespace vlacnn::obs {

/// Append `s` to `out` as a quoted JSON string. Escapes '"', '\\', the
/// common control shorthands (\n, \r, \t) and every other byte < 0x20 as
/// \u00xx; bytes >= 0x20 (including UTF-8 multibyte sequences) pass through
/// unchanged. The result is always parseable JSON, whatever the input.
void json_append_escaped(std::string& out, const std::string& s);

/// `s` as a standalone quoted JSON string.
std::string json_escaped(const std::string& s);

/// Append `v` rendered %.17g (round-trip exact for doubles); non-finite
/// values become `null` — inf/NaN are not valid JSON literals.
void json_append_number(std::string& out, double v);

/// Append `,"key":value` to a one-line JSON object the caller has opened:
/// numbers as json_append_number / decimal integers, strings escaped.
void json_append_kv(std::string& out, const char* key, double v);
void json_append_kv(std::string& out, const char* key, std::uint64_t v);
void json_append_kv(std::string& out, const char* key, int v);
void json_append_kv(std::string& out, const char* key, bool v);
void json_append_kv(std::string& out, const char* key, const std::string& v);

}  // namespace vlacnn::obs
