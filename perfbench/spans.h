// In-memory span log for the benchmark's traced run.
//
// Spans are recorded only from the benchmark's own files, around each call
// into a library layer, so the library needs no instrumentation of its own.
// Each span carries the src/ module it calls into (`layer`), the span that
// caused it (`parent`, -1 for a root) and the query it belongs to (sweep
// point, serving phase or planning query). The log is kept in memory and
// written as JSON lines when the benchmark ends; run.py turns it into self
// time per layer.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  int id = 0;
  int parent = -1;
  std::string name;
  std::string layer;
  std::int64_t query = -1;
  int thread = 0;
  double start_us = 0;
  double end_us = 0;
};

class SpanLog {
 public:
  /// Open a span and return its id. `parent` < 0 means "the innermost span
  /// open on this thread", or a root when there is none.
  int open(const std::string& name, const std::string& layer,
           std::int64_t query, int parent = -1);
  void close(int id);

  /// Every span as one JSON object per line, in id order.
  std::string to_jsonl() const;

 private:
  double now_us() const;
  int thread_index();

  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::vector<std::uint64_t> thread_keys_;
  std::chrono::steady_clock::time_point t0_ = std::chrono::steady_clock::now();
};

/// RAII span over one call. A null log records nothing, so the same code
/// path serves the untraced run.
class Span {
 public:
  Span(SpanLog* log, const std::string& name, const std::string& layer,
       std::int64_t query = -1, int parent = -1)
      : log_(log), id_(log ? log->open(name, layer, query, parent) : -1) {}
  ~Span() {
    if (log_) log_->close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

}  // namespace perfbench
