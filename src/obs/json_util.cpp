#include "obs/json_util.h"

#include <cmath>
#include <cstdio>

namespace vlacnn::obs {

void json_append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

std::string json_escaped(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  json_append_escaped(out, s);
  return out;
}

void json_append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

namespace {

void append_key(std::string& out, const char* key) {
  out += ",\"";
  out += key;
  out += "\":";
}

}  // namespace

void json_append_kv(std::string& out, const char* key, double v) {
  append_key(out, key);
  json_append_number(out, v);
}

void json_append_kv(std::string& out, const char* key, std::uint64_t v) {
  append_key(out, key);
  out += std::to_string(v);
}

void json_append_kv(std::string& out, const char* key, int v) {
  append_key(out, key);
  out += std::to_string(v);
}

void json_append_kv(std::string& out, const char* key, bool v) {
  append_key(out, key);
  out += v ? "true" : "false";
}

void json_append_kv(std::string& out, const char* key, const std::string& v) {
  append_key(out, key);
  json_append_escaped(out, v);
}

}  // namespace vlacnn::obs
