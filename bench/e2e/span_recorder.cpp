#include "span_recorder.h"

#include <cstdio>

#include "obs/json.h"

namespace alchemist::e2e {

SpanRecorder::Scope::Scope(SpanRecorder& rec, const char* name) : rec_(rec) {
  if (!rec_.enabled_) return;
  index_ = static_cast<std::int32_t>(rec_.spans_.size());
  const std::int32_t parent = rec_.open_.empty() ? -1 : rec_.open_.back();
  rec_.spans_.push_back({name, rec_.now_ns(), 0, parent, rec_.request_});
  rec_.open_.push_back(index_);
}

SpanRecorder::Scope::~Scope() {
  if (index_ < 0) return;
  rec_.spans_[static_cast<std::size_t>(index_)].end_ns = rec_.now_ns();
  rec_.open_.pop_back();
}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::map<std::string, SpanRecorder::NameStats> SpanRecorder::stats_by_name(
    std::size_t first) const {
  std::vector<double> child_ns(spans_.size() - first, 0.0);
  for (std::size_t i = first; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent >= static_cast<std::int32_t>(first)) {
      child_ns[static_cast<std::size_t>(s.parent) - first] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, NameStats> out;
  for (std::size_t i = first; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    NameStats& st = out[s.name];
    st.total_ns += dur;
    st.self_ns += dur - child_ns[i - first];
    ++st.count;
  }
  return out;
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  std::fprintf(f,
               "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\","
               "\"args\":{\"name\":\"e2e_bench client\"}}");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string name = s.name;
    const std::string cat = name.substr(0, name.find('.'));
    std::fprintf(f,
                 ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":%s,\"cat\":%s,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%u,\"span\":%zu,"
                 "\"parent\":%d}}",
                 obs::json_string(name).c_str(), obs::json_string(cat).c_str(),
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.request, i,
                 s.parent);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace alchemist::e2e
