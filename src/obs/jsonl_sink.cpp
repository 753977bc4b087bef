#include "obs/jsonl_sink.h"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/json_util.h"

namespace vlacnn::obs {

namespace {

/// Every sink that has recorded a block, written by one atexit hook. Never
/// destroyed (like the sinks themselves), so the hook is safe whatever order
/// the other statics are torn down in.
struct ExitList {
  std::mutex mu;
  std::vector<LabeledJsonlSink*> sinks;
};

ExitList& exit_list() {
  static ExitList* list = new ExitList;
  return *list;
}

void write_all_at_exit() {
  ExitList& list = exit_list();
  std::lock_guard<std::mutex> lk(list.mu);
  for (LabeledJsonlSink* sink : list.sinks) {
    if (sink->block_count() == 0 || !sink->enabled()) continue;
    try {
      sink->write_file();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "vlacnn: %s\n", e.what());
    }
  }
}

}  // namespace

LabeledJsonlSink::LabeledJsonlSink(std::string kind, std::string knob,
                                   const char* env_path)
    : kind_(std::move(kind)), knob_(std::move(knob)) {
  set_path(env_path == nullptr ? "" : env_path);
}

std::string LabeledJsonlSink::path() const {
  std::lock_guard<std::mutex> lk(mu_);
  return path_;
}

void LabeledJsonlSink::set_path(const std::string& path) {
  std::lock_guard<std::mutex> lk(mu_);
  path_ = path;
  enabled_.store(!path.empty(), std::memory_order_relaxed);
}

void LabeledJsonlSink::record(const std::string& label, std::string jsonl) {
  std::call_once(exit_armed_, [this] {
    ExitList& list = exit_list();
    std::lock_guard<std::mutex> lk(list.mu);
    if (list.sinks.empty()) std::atexit(write_all_at_exit);
    list.sinks.push_back(this);
  });
  std::lock_guard<std::mutex> lk(mu_);
  blocks_[label] = std::move(jsonl);
}

std::string LabeledJsonlSink::next_auto_label() {
  std::lock_guard<std::mutex> lk(mu_);
  char buf[24];
  std::snprintf(buf, sizeof buf, "run%06llu",
                static_cast<unsigned long long>(++auto_seq_));
  return buf;
}

std::string LabeledJsonlSink::write_file() {
  std::string out;
  std::string path;
  {
    std::lock_guard<std::mutex> lk(mu_);
    path = path_;
    if (path.empty()) {
      throw std::runtime_error(kind_ + " sink: no output path (set " + knob_ +
                               ")");
    }
    for (const auto& [label, block] : blocks_) {
      out += "{\"type\":\"run\",\"label\":";
      json_append_escaped(out, label);
      out += "}\n";
      out += block;
    }
  }
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    throw std::runtime_error(kind_ + " sink: cannot open " + path);
  }
  const std::size_t written = std::fwrite(out.data(), 1, out.size(), f);
  const bool ok = written == out.size() && std::fclose(f) == 0;
  if (!ok) {
    throw std::runtime_error(kind_ + " sink: short write to " + path);
  }
  return path;
}

std::size_t LabeledJsonlSink::block_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return blocks_.size();
}

void LabeledJsonlSink::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  blocks_.clear();
  auto_seq_ = 0;
}

IntervalKnob::IntervalKnob(const char* knob, const char* (*read_env)())
    : knob_(knob), read_env_(read_env) {}

void IntervalKnob::parse_locked() {
  if (parsed_) return;
  const char* v = read_env_();
  if (v != nullptr && *v != '\0') {
    char* end = nullptr;
    const double d = std::strtod(v, &end);
    if (end == v || *end != '\0' || !std::isfinite(d) || !(d > 0)) {
      throw std::runtime_error(std::string(knob_) +
                               ": expected a positive cycle count, got '" +
                               v + "'");
    }
    cycles_ = d;
    overridden_ = true;
  }
  parsed_ = true;
}

double IntervalKnob::cycles() {
  std::lock_guard<std::mutex> lk(mu_);
  parse_locked();
  return cycles_;
}

bool IntervalKnob::overridden() {
  std::lock_guard<std::mutex> lk(mu_);
  parse_locked();
  return overridden_;
}

void IntervalKnob::set(double cycles) {
  if (!std::isfinite(cycles) || !(cycles > 0)) {
    throw std::invalid_argument(std::string(knob_) +
                                ": interval must be positive and finite");
  }
  std::lock_guard<std::mutex> lk(mu_);
  cycles_ = cycles;
  parsed_ = true;
  overridden_ = true;
}

}  // namespace vlacnn::obs
