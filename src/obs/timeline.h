// Per-op event timeline recorder with Chrome trace_event export.
//
// Both simulators feed one record per scheduled operation (plus HBM-channel
// and transpose records) into a Timeline; the result loads directly in
// Perfetto / chrome://tracing. Timestamps and durations are in *machine
// cycles* (the simulators' native unit, deterministic integers); the viewer
// displays them as microseconds, so 1 displayed "us" = 1 cycle. Wall time in
// real microseconds is carried in each event's numeric args.
//
// Recording is zero-overhead when disabled: the simulators build no record
// unless they are handed an enabled Timeline, and a disabled Timeline drops
// records at the door. Tracks are Chrome "threads" (tid) inside one
// simulator "process" (pid); name them with set_track_name so Perfetto shows
// "unit-group/ntt", "hbm", "transpose", ... instead of bare ids.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace alchemist::obs {

struct TraceEvent {
  std::string name;  // op label, e.g. "NTT#12"
  std::string cat;   // category: op class, "hbm", "transpose", "stall"
  std::uint32_t tid = 0;
  double ts = 0;   // start, cycles
  double dur = 0;  // duration, cycles
  std::vector<std::pair<std::string, double>> num_args;
  std::vector<std::pair<std::string, std::string>> str_args;
};

// Sampled counter track ("C" phase): Perfetto renders each series as a
// stacked area chart on its own track. The UnitProfiler emits one of these
// per unit per level so occupancy is scrubbing-visible next to the op rows.
struct CounterEvent {
  std::string name;  // counter track label, e.g. "unit0-util"
  std::uint32_t tid = 0;
  double ts = 0;  // sample time, cycles
  std::vector<std::pair<std::string, double>> series;
};

// Flow arrow ("s"/"t"/"f" phases): Perfetto draws an arrow through the events
// sharing (cat, id), binding each to the slice enclosing (tid, ts). The
// serving layer uses one flow per job — id = trace id — to link the submit
// instant to the run slice on whichever worker picked the job up.
struct FlowEvent {
  std::string name;  // shared flow label, e.g. "job"
  std::string cat;   // shared flow category, e.g. "svc.flow"
  std::uint64_t id = 0;
  std::uint32_t tid = 0;
  double ts = 0;
  char phase = 's';  // 's' start, 't' step, 'f' finish
};

class Timeline {
 public:
  explicit Timeline(bool enabled = true) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  void set_process_name(std::string name) { process_name_ = std::move(name); }
  void set_track_name(std::uint32_t tid, std::string name) {
    if (enabled_) track_names_[tid] = std::move(name);
  }

  void record(TraceEvent ev) {
    if (enabled_) events_.push_back(std::move(ev));
  }
  void record_counter(CounterEvent ev) {
    if (enabled_) counter_events_.push_back(std::move(ev));
  }
  void record_flow(FlowEvent ev) {
    if (enabled_) flow_events_.push_back(std::move(ev));
  }

  const std::vector<TraceEvent>& events() const { return events_; }
  const std::vector<CounterEvent>& counter_events() const {
    return counter_events_;
  }
  const std::vector<FlowEvent>& flow_events() const { return flow_events_; }
  const std::map<std::uint32_t, std::string>& track_names() const {
    return track_names_;
  }
  void clear() {
    events_.clear();
    counter_events_.clear();
    flow_events_.clear();
    track_names_.clear();
  }

  // Chrome trace_event JSON object: metadata (process/thread names) followed
  // by complete ("X") and counter ("C") events sorted by (ts, tid). Loads in
  // Perfetto and chrome://tracing as-is.
  void write_chrome_trace(std::ostream& out) const;
  std::string chrome_trace_json() const;

 private:
  bool enabled_;
  std::string process_name_ = "alchemist-sim";
  std::map<std::uint32_t, std::string> track_names_;
  std::vector<TraceEvent> events_;
  std::vector<CounterEvent> counter_events_;
  std::vector<FlowEvent> flow_events_;
};

}  // namespace alchemist::obs
