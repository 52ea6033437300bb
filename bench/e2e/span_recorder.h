// In-memory span recorder for the end-to-end benchmark's traced runs.
//
// The benchmark wraps each call into a library layer in a Scope; the
// recorder keeps every span (name, start, end, parent, request id) in a
// vector and writes them as a Chrome trace_event file when asked. Spans are
// recorded from the benchmark's own thread only: work the library fans out
// to pool workers shows up inside the span of the call that spawned it.
//
// A span's self time is its duration minus the time its direct children
// cover. Children of one parent never overlap (calls are sequential on one
// thread), so the covered time is the sum of the children's durations.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace alchemist::e2e {

class SpanRecorder {
 public:
  struct Span {
    const char* name;  // string literal; layer prefix before the first '.'
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;  // index into spans(), -1 for a root
    std::uint32_t request;
  };

  // Opens a span on construction and closes it on destruction. A Scope on a
  // disabled recorder costs one branch.
  class Scope {
   public:
    Scope(SpanRecorder& rec, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& rec_;
    std::int32_t index_ = -1;
  };

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  void set_request(std::uint32_t id) { request_ = id; }

  std::size_t size() const { return spans_.size(); }

  struct NameStats {
    double total_ns = 0;  // summed durations
    double self_ns = 0;   // summed durations minus their children's
    std::size_t count = 0;
  };
  // Per span name, over spans [first, size()).
  std::map<std::string, NameStats> stats_by_name(std::size_t first) const;

  // Chrome trace_event JSON ("X" slices on one track, args carry the request
  // id and parent index). Returns false if the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::int64_t now_ns() const;

  bool enabled_ = false;
  std::uint32_t request_ = 0;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;  // stack of open span indices
  std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
};

}  // namespace alchemist::e2e
