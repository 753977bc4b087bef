#include "spans.h"

#include <cstdio>
#include <functional>
#include <thread>

namespace perfbench {

namespace {

/// Ids of the spans open on this thread, innermost last.
thread_local std::vector<int> t_open;

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

double SpanLog::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0_)
      .count();
}

int SpanLog::thread_index() {
  const std::uint64_t key =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  for (std::size_t i = 0; i < thread_keys_.size(); ++i) {
    if (thread_keys_[i] == key) return static_cast<int>(i);
  }
  thread_keys_.push_back(key);
  return static_cast<int>(thread_keys_.size() - 1);
}

int SpanLog::open(const std::string& name, const std::string& layer,
                  std::int64_t query, int parent) {
  if (parent < 0 && !t_open.empty()) parent = t_open.back();
  std::lock_guard<std::mutex> lk(mu_);
  SpanRecord r;
  r.id = static_cast<int>(spans_.size());
  r.parent = parent;
  r.name = name;
  r.layer = layer;
  r.query = query;
  r.thread = thread_index();
  spans_.push_back(std::move(r));
  t_open.push_back(spans_.back().id);
  // Stamp last, so the bookkeeping above is outside the span.
  spans_.back().start_us = now_us();
  return spans_.back().id;
}

void SpanLog::close(int id) {
  const double t = now_us();
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
  std::lock_guard<std::mutex> lk(mu_);
  spans_[static_cast<std::size_t>(id)].end_us = t;
}

std::string SpanLog::to_jsonl() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::string out;
  char buf[160];
  for (const SpanRecord& r : spans_) {
    out += "{\"id\": " + std::to_string(r.id) +
           ", \"parent\": " + std::to_string(r.parent) +
           ", \"name\": " + quoted(r.name) + ", \"layer\": " + quoted(r.layer) +
           ", \"query\": " + std::to_string(r.query) +
           ", \"thread\": " + std::to_string(r.thread);
    std::snprintf(buf, sizeof buf, ", \"start_us\": %.3f, \"end_us\": %.3f}\n",
                  r.start_us, r.end_us);
    out += buf;
  }
  return out;
}

}  // namespace perfbench
