// Observability-layer tests: counter registry semantics, Chrome trace export
// schema, metrics report schema, and the observer-effect-zero guarantee
// (telemetry on/off yields bit-identical SimResults).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "arch/config.h"
#include "common/thread_pool.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "obs/histogram.h"
#include "obs/json.h"
#include "obs/prometheus.h"
#include "obs/registry.h"
#include "obs/report.h"
#include "obs/timeline.h"
#include "sim/alchemist_sim.h"
#include "sim/event_sim.h"
#include "sim/sim_control.h"
#include "sim/unit_profiler.h"
#include "workloads/ckks_workloads.h"
#include "paper_inputs.h"

namespace alchemist {
namespace {

using metaop::HighOp;
using metaop::OpGraph;
using metaop::OpKind;

std::size_t add_op(OpGraph& g, OpKind kind, std::size_t n, std::size_t channels,
                   metaop::IndexList deps = {}, std::uint64_t hbm = 0) {
  return g.add({.kind = kind, .n = n, .channels = channels, .hbm_bytes = hbm}, deps);
}

// The tiny fixed graph used by the trace-schema tests: an NTT feeding a
// pointwise multiply, with some key traffic.
OpGraph tiny_graph() {
  OpGraph g;
  g.name = "tiny";
  const std::size_t a = add_op(g, OpKind::Ntt, 16384, 2);
  add_op(g, OpKind::PointwiseMult, 16384, 2, {a}, /*hbm=*/1 << 20);
  return g;
}

// --- Registry -------------------------------------------------------------

TEST(ObsRegistry, CanonicalKeysAndAccumulation) {
  obs::Registry reg;
  reg.add("sim.cycles", 10);
  reg.add("sim.cycles", 5);
  EXPECT_EQ(reg.counter("sim.cycles"), 15u);

  // Tag order at the call site doesn't matter: keys canonicalize sorted.
  reg.add("sim.stall", 7, {{"cause", "hbm"}, {"level", "3"}});
  reg.add("sim.stall", 1, {{"level", "3"}, {"cause", "hbm"}});
  EXPECT_EQ(reg.counter("sim.stall", {{"cause", "hbm"}, {"level", "3"}}), 8u);
  EXPECT_EQ(reg.counter_by_key("sim.stall{cause=hbm,level=3}"), 8u);

  // Absent metrics read as zero.
  EXPECT_EQ(reg.counter("sim.nothing"), 0u);
  EXPECT_EQ(reg.gauge("sim.nothing"), 0.0);

  reg.set_gauge("sim.utilization", 0.5);
  reg.set_gauge("sim.utilization", 0.75);  // last write wins
  EXPECT_EQ(reg.gauge("sim.utilization"), 0.75);
}

TEST(ObsRegistry, MergeAndTagTotals) {
  obs::Registry a, b;
  a.add("sim.cycles", 100, {{"class", "ntt"}});
  b.add("sim.cycles", 50, {{"class", "ntt"}});
  b.add("sim.cycles", 30, {{"class", "bconv"}});
  b.set_gauge("sim.time_us", 1.5);
  a.merge(b);
  EXPECT_EQ(a.counter("sim.cycles", {{"class", "ntt"}}), 150u);
  EXPECT_EQ(a.counter("sim.cycles", {{"class", "bconv"}}), 30u);
  EXPECT_EQ(a.gauge("sim.time_us"), 1.5);
  EXPECT_EQ(a.total_over_tags("sim.cycles{class="), 180u);
}

// --- Trace schema ---------------------------------------------------------

// Minimal structural JSON scan: quotes/braces/brackets balance outside
// strings. Enough to catch malformed emission without a JSON dependency.
void expect_balanced_json(const std::string& s) {
  int depth_obj = 0, depth_arr = 0;
  bool in_string = false, escaped = false;
  for (char c : s) {
    if (in_string) {
      if (escaped) escaped = false;
      else if (c == '\\') escaped = true;
      else if (c == '"') in_string = false;
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': ++depth_obj; break;
      case '}': --depth_obj; break;
      case '[': ++depth_arr; break;
      case ']': --depth_arr; break;
      default: break;
    }
    ASSERT_GE(depth_obj, 0);
    ASSERT_GE(depth_arr, 0);
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(depth_obj, 0);
  EXPECT_EQ(depth_arr, 0);
}

// Extract the values following every `"key":` occurrence (numbers only).
std::vector<double> scan_numeric_field(const std::string& json,
                                       const std::string& key) {
  std::vector<double> out;
  const std::string needle = "\"" + key + "\":";
  std::size_t pos = 0;
  while ((pos = json.find(needle, pos)) != std::string::npos) {
    pos += needle.size();
    out.push_back(std::stod(json.substr(pos)));
  }
  return out;
}

TEST(ObsTrace, LevelSimEmitsSchemaValidChromeTrace) {
  const arch::ArchConfig cfg = arch::ArchConfig::alchemist();
  obs::Timeline timeline;
  const auto r = sim::simulate_alchemist(tiny_graph(), cfg, &timeline);
  ASSERT_FALSE(timeline.events().empty());

  const std::string json = timeline.chrome_trace_json();
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Only metadata (M) and complete (X) events — no unmatched B/E pairs.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_EQ(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_EQ(json.find("\"ph\":\"E\""), std::string::npos);
  // The two ops, the transpose and the HBM stream all appear.
  EXPECT_NE(json.find("\"name\":\"NTT#0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"PointwiseMult#1\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"transpose\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"hbm\""), std::string::npos);

  // Timestamps are emitted sorted and non-negative; durations non-negative.
  const auto ts = scan_numeric_field(json, "ts");
  ASSERT_FALSE(ts.empty());
  for (std::size_t i = 1; i < ts.size(); ++i) EXPECT_LE(ts[i - 1], ts[i]);
  for (double t : ts) EXPECT_GE(t, 0.0);
  for (double d : scan_numeric_field(json, "dur")) EXPECT_GE(d, 0.0);

  // Trace is consistent with the aggregate result: the last slice ends at or
  // before the reported cycle count.
  double max_end = 0;
  for (const auto& ev : timeline.events()) {
    max_end = std::max(max_end, ev.ts + ev.dur);
  }
  EXPECT_LE(max_end, static_cast<double>(r.cycles) + 1.0);
}

TEST(ObsTrace, EventSimEmitsPerOpSlices) {
  const arch::ArchConfig cfg = arch::ArchConfig::alchemist();
  obs::Timeline timeline;
  const OpGraph g = tiny_graph();
  const auto r = sim::simulate_alchemist_events(g, cfg, &timeline);

  // One compute slice per op plus one HBM slice for the keyed op.
  std::size_t compute = 0, hbm = 0;
  for (const auto& ev : timeline.events()) {
    if (ev.cat == "hbm") ++hbm;
    else ++compute;
    EXPECT_GE(ev.dur, 0.0);
    EXPECT_LE(ev.ts + ev.dur, static_cast<double>(r.cycles) + 1.0);
  }
  EXPECT_EQ(compute, g.ops().size());
  EXPECT_EQ(hbm, 1u);
  expect_balanced_json(timeline.chrome_trace_json());
}

TEST(ObsTrace, DisabledTelemetryRecordsNothing) {
  // A disabled sink drops every record.
  const arch::ArchConfig cfg = arch::ArchConfig::alchemist();
  obs::Timeline off(/*enabled=*/false);
  sim::simulate_alchemist(tiny_graph(), cfg, &off);
  sim::simulate_alchemist_events(tiny_graph(), cfg, &off);
  EXPECT_TRUE(off.events().empty());
}

// --- Observer effect = 0 --------------------------------------------------

void expect_identical_results(const sim::SimResult& a, const sim::SimResult& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.time_us, b.time_us);  // bit-identical doubles, not NEAR
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.mem_stall_cycles, b.mem_stall_cycles);
  EXPECT_EQ(a.transpose_cycles, b.transpose_cycles);
  EXPECT_EQ(a.total_mults, b.total_mults);
  for (std::size_t c = 0; c < metaop::kNumOpClasses; ++c) {
    EXPECT_EQ(a.util_by_class[c], b.util_by_class[c]);
    EXPECT_EQ(a.cycles_by_class[c], b.cycles_by_class[c]);
  }
  EXPECT_EQ(a.registry.counters(), b.registry.counters());
  EXPECT_EQ(a.registry.gauges(), b.registry.gauges());
}

using SimFn = sim::SimResult (*)(const OpGraph&, const arch::ArchConfig&, obs::Timeline*,
                                  const fault::FaultModel*, sim::SimControl*,
                                  sim::UnitProfiler*, sim::MemProfiler*);

// Runs `engine` on `own` and paper_inputs(), each fault-free and under
// retry_faults(), and checks that `observe` (a run with an observer attached)
// and a run whose SimControl carries only a cancel token both match the
// plain run's whole result.
template <typename Observe>
void expect_observer_inert(SimFn engine, const OpGraph& own, const Observe& observe) {
  const arch::ArchConfig cfg = arch::ArchConfig::alchemist();
  const fault::FaultModel faults = retry_faults(cfg);
  std::vector<const OpGraph*> inputs = {&own};
  for (const OpGraph& g : paper_inputs()) inputs.push_back(&g);
  for (const OpGraph* g : inputs) {
    for (const fault::FaultModel* fm : {static_cast<const fault::FaultModel*>(nullptr), &faults}) {
      SCOPED_TRACE(g->name + (fm ? " +faults" : ""));
      const sim::SimResult plain = engine(*g, cfg, nullptr, fm, nullptr, nullptr, nullptr);
      if (fm && g != &own) {
        EXPECT_GT(plain.registry.counter(fault::metrics::kRetries), 0u);
      }
      expect_identical_results(plain, observe(*g, cfg, fm));
      sim::CancelToken token;
      sim::SimControl ctl;
      ctl.cancel = &token;
      expect_identical_results(plain, engine(*g, cfg, nullptr, fm, &ctl, nullptr, nullptr));
    }
  }
}

TEST(ObsObserverEffect, TelemetryDoesNotPerturbLevelSim) {
  const workloads::CkksWl w = workloads::CkksWl::paper(44);
  expect_observer_inert(
      sim::simulate_alchemist, workloads::build_keyswitch(w),
      [](const OpGraph& g, const arch::ArchConfig& cfg, const fault::FaultModel* fm) {
        obs::Timeline timeline;
        const sim::SimResult r = sim::simulate_alchemist(g, cfg, &timeline, fm);
        EXPECT_FALSE(timeline.events().empty());
        return r;
      });
}

TEST(ObsObserverEffect, TelemetryDoesNotPerturbEventSim) {
  const workloads::CkksWl w = workloads::CkksWl::paper(24);
  expect_observer_inert(
      sim::simulate_alchemist_events, workloads::build_cmult(w),
      [](const OpGraph& g, const arch::ArchConfig& cfg, const fault::FaultModel* fm) {
        obs::Timeline timeline;
        const sim::SimResult r = sim::simulate_alchemist_events(g, cfg, &timeline, fm);
        EXPECT_FALSE(timeline.events().empty());
        return r;
      });
}

// --- SimResult-on-registry ------------------------------------------------

TEST(ObsResult, AggregateFieldsMatchRegistry) {
  const workloads::CkksWl w = workloads::CkksWl::paper(44);
  const auto r = sim::simulate_alchemist(workloads::build_keyswitch(w),
                                         arch::ArchConfig::alchemist());
  using sim::metrics::kCycles;
  EXPECT_EQ(r.cycles, r.registry.counter(kCycles));
  EXPECT_EQ(r.mem_stall_cycles, r.registry.counter("sim.stall", {{"cause", "hbm"}}));
  EXPECT_EQ(r.total_mults, r.registry.counter("sim.mults", {{"lazy", "true"}}));
  EXPECT_EQ(r.time_us, r.registry.gauge("sim.time_us"));
  // Per-class wall cycles land under sim.cycles{class=...} and sum over the
  // classes derived from the (single-source-of-truth) OpClass enum.
  std::uint64_t class_sum = 0;
  for (std::size_t c = 0; c < metaop::kNumOpClasses; ++c) {
    class_sum += r.registry.counter(
        kCycles, {{"class", metaop::class_tag(static_cast<metaop::OpClass>(c))}});
  }
  EXPECT_EQ(class_sum, r.registry.total_over_tags("sim.cycles{class="));
  EXPECT_GT(class_sum, 0u);
}

// --- Metrics report -------------------------------------------------------

TEST(ObsReport, StableSchemaAndContent) {
  const workloads::CkksWl w = workloads::CkksWl::paper(24);
  const auto r = sim::simulate_alchemist(workloads::build_cmult(w),
                                         arch::ArchConfig::alchemist());
  obs::MetricsReport report("test_obs");
  report.add(r);
  const std::string json = report.json();
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"schema\": \"alchemist.metrics.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"tool\": \"test_obs\""), std::string::npos);
  EXPECT_NE(json.find("\"workload\": \"Cmult\""), std::string::npos);
  EXPECT_NE(json.find("\"sim.cycles\""), std::string::npos);
  EXPECT_NE(json.find("\"sim.utilization\""), std::string::npos);
  // Two identical adds produce two runs (reports never dedupe).
  report.add(r);
  EXPECT_EQ(report.runs().size(), 2u);
}

TEST(ObsReport, EmptyReportIsValidJson) {
  obs::MetricsReport report("empty");
  expect_balanced_json(report.json());
  EXPECT_NE(report.json().find("\"runs\": []"), std::string::npos);
}

// --- Histogram ------------------------------------------------------------

TEST(ObsHistogram, BucketBoundariesTileTheTickRange) {
  using obs::Histogram;
  // Unit buckets below the first octave split.
  for (std::uint64_t t = 0; t < 8; ++t) {
    EXPECT_EQ(Histogram::bucket_index(t), t);
    EXPECT_EQ(Histogram::bucket_lower(t), t);
    EXPECT_EQ(Histogram::bucket_upper(t), t + 1);
  }
  // Every bucket half-open, contiguous, and consistent with bucket_index at
  // both edges (boundary value belongs to the bucket it lower-bounds).
  for (std::size_t i = 0; i + 1 < Histogram::kNumBuckets; ++i) {
    const std::uint64_t lo = Histogram::bucket_lower(i);
    const std::uint64_t hi = Histogram::bucket_upper(i);
    ASSERT_LT(lo, hi) << "bucket " << i;
    EXPECT_EQ(Histogram::bucket_lower(i + 1), hi) << "gap after bucket " << i;
    EXPECT_EQ(Histogram::bucket_index(lo), i);
    EXPECT_EQ(Histogram::bucket_index(hi - 1), i);
    EXPECT_EQ(Histogram::bucket_index(hi), i + 1);
  }
  // Powers of two start a fresh sub-bucket; value-1 stays one bucket lower.
  for (int k = 3; k < 63; ++k) {
    const std::uint64_t v = 1ull << k;
    EXPECT_EQ(Histogram::bucket_lower(Histogram::bucket_index(v)), v);
    EXPECT_EQ(Histogram::bucket_index(v - 1) + 1, Histogram::bucket_index(v));
  }
}

TEST(ObsHistogram, MergeIsExactAssociativeAndOrderIndependent) {
  const double values[] = {0,    1,    7,     8,     9,      100.7, 1e3,
                           4096, 5000, 123e6, 7.5e9, 3.2e12, 1e18};
  obs::Histogram all;
  for (double v : values) all.record(v);

  // Same multiset recorded in reverse into shards, merged in two different
  // association orders: every variant is bit-identical to the single-threaded
  // histogram.
  obs::Histogram s1, s2, s3;
  std::size_t i = 0;
  for (auto it = std::rbegin(values); it != std::rend(values); ++it, ++i) {
    (i % 3 == 0 ? s1 : i % 3 == 1 ? s2 : s3).record(*it);
  }
  obs::Histogram left = s1;
  left.merge(s2);
  left.merge(s3);
  obs::Histogram right = s2;
  right.merge(s3);
  obs::Histogram outer = s1;
  outer.merge(right);
  EXPECT_TRUE(left == all);
  EXPECT_TRUE(outer == all);
}

TEST(ObsHistogram, PercentileEdges) {
  obs::Histogram h;
  EXPECT_EQ(h.percentile(50), 0.0);  // empty
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);

  h.record(42);
  for (double p : {0.0, 50.0, 100.0}) EXPECT_EQ(h.percentile(p), 42.0);

  obs::Histogram two;
  two.record(10);
  two.record(1000);
  EXPECT_EQ(two.percentile(0), 10.0);
  EXPECT_EQ(two.percentile(100), 1000.0);
  const double p50 = two.percentile(50);
  EXPECT_GE(p50, 10.0);
  EXPECT_LE(p50, 1000.0);

  // Quantiles are monotone in p and clamped to [min, max] even at the
  // interpolation edges of the hit bucket.
  obs::Histogram many;
  for (int v = 100; v < 200; ++v) many.record(v);
  double prev = -1;
  for (double p = 0; p <= 100.0; p += 2.5) {
    const double q = many.percentile(p);
    EXPECT_GE(q, many.min());
    EXPECT_LE(q, many.max());
    EXPECT_GE(q, prev);
    prev = q;
  }
  EXPECT_NEAR(many.percentile(50), 150.0, 16.0);  // ~12% bucket resolution

  // Hostile inputs: NaN and negatives clamp to tick 0, huge values saturate.
  obs::Histogram hostile;
  hostile.record(std::nan(""));
  hostile.record(-5.0);
  hostile.record(1e30);
  EXPECT_EQ(hostile.count(), 3u);
  EXPECT_EQ(hostile.buckets()[0], 2u);
  EXPECT_EQ(hostile.percentile(100), hostile.max());
}

TEST(ObsHistogram, RegistryObserveSnapshotAndMerge) {
  obs::Registry reg;
  reg.observe("svc.latency.total_us", 100.0, {{"class", "a"}});
  reg.observe("svc.latency.total_us", 300.0, {{"class", "a"}});
  reg.observe("svc.latency.total_us", 700.0);
  EXPECT_EQ(reg.histogram("svc.latency.total_us", {{"class", "a"}}).count(), 2u);
  EXPECT_EQ(reg.histogram("svc.latency.total_us").count(), 1u);
  EXPECT_EQ(reg.histogram("svc.latency.absent").count(), 0u);

  obs::Registry other;
  other.observe("svc.latency.total_us", 500.0, {{"class", "a"}});
  reg.merge(other);
  EXPECT_EQ(reg.histogram("svc.latency.total_us", {{"class", "a"}}).count(), 3u);
  EXPECT_EQ(reg.histogram("svc.latency.total_us", {{"class", "a"}}).sum_ticks(),
            900u);
  EXPECT_FALSE(reg.empty());
  reg.clear();
  EXPECT_TRUE(reg.empty());
}

// --- JSON non-finite handling ---------------------------------------------

TEST(ObsJson, NonFiniteNumbersEmitNullAndCount) {
  std::uint64_t dropped = 0;
  EXPECT_EQ(obs::json_number(1.5, dropped), "1.5");
  EXPECT_EQ(dropped, 0u);
  EXPECT_EQ(obs::json_number(std::nan(""), dropped), "null");
  EXPECT_EQ(obs::json_number(HUGE_VAL, dropped), "null");
  EXPECT_EQ(obs::json_number(-HUGE_VAL, dropped), "null");
  EXPECT_EQ(dropped, 3u);
}

TEST(ObsReport, NonFiniteGaugeBecomesNullPlusDroppedCounter) {
  obs::Registry reg;
  reg.set_gauge("sim.bad", std::nan(""));
  reg.set_gauge("sim.good", 2.5);
  obs::MetricsReport report("test_obs");
  report.add("w", "a", reg);
  const std::string json = report.json();
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"sim.bad\": null"), std::string::npos);
  EXPECT_NE(json.find("\"report.dropped_nonfinite\": 1"), std::string::npos);

  // Clean reports must NOT grow the synthetic counter (baselines unchanged).
  obs::MetricsReport clean("test_obs");
  obs::Registry ok;
  ok.set_gauge("sim.good", 1.0);
  clean.add("w", "a", ok);
  EXPECT_EQ(clean.json().find("report.dropped_nonfinite"), std::string::npos);
}

// --- Unit profiler --------------------------------------------------------

void expect_profile_invariants(const sim::SimResult& r,
                               std::size_t expect_units) {
  const obs::UtilizationProfile& p = r.profile;
  ASSERT_TRUE(p.enabled());
  ASSERT_EQ(p.units.size(), expect_units);
  EXPECT_EQ(p.total_cycles, r.cycles);
  for (std::size_t u = 0; u < p.units.size(); ++u) {
    // THE invariant: the five buckets partition every simulated cycle.
    ASSERT_EQ(p.units[u].total(), p.total_cycles) << "unit " << u;
    // Class attribution partitions the occupied cycles the same way.
    std::uint64_t class_sum = 0;
    for (const auto& [cls, cycles] : p.units[u].class_occupied) class_sum += cycles;
    EXPECT_EQ(class_sum, p.units[u].occupied()) << "unit " << u;
  }
  // The aggregate view reconciles with the simulator's own utilization.
  EXPECT_NEAR(p.occupancy(), r.utilization, 0.02);
}

TEST(ObsProfiler, LevelEngineBucketsPartitionEveryCycle) {
  const workloads::CkksWl w = workloads::CkksWl::paper(44);
  const arch::ArchConfig cfg = arch::ArchConfig::alchemist();
  for (const OpGraph& g : {workloads::build_keyswitch(w),
                           workloads::build_bootstrapping(w, true)}) {
    sim::UnitProfiler prof;
    const auto r = sim::simulate_alchemist(g, cfg, nullptr, nullptr, nullptr, &prof);
    expect_profile_invariants(r, cfg.num_units);
  }
}

TEST(ObsProfiler, EventEngineBucketsPartitionEveryCycle) {
  const workloads::CkksWl w = workloads::CkksWl::paper(24);
  const arch::ArchConfig cfg = arch::ArchConfig::alchemist();
  for (const OpGraph& g :
       {workloads::build_cmult(w), workloads::build_rotation(w)}) {
    sim::UnitProfiler prof;
    const auto r =
        sim::simulate_alchemist_events(g, cfg, nullptr, nullptr, nullptr, &prof);
    expect_profile_invariants(r, cfg.num_units);
  }
}

TEST(ObsProfiler, ProfiledRunIsBitIdentical) {
  const workloads::CkksWl w = workloads::CkksWl::paper(24);
  const OpGraph g = workloads::build_keyswitch(w);
  for (SimFn engine : {SimFn{sim::simulate_alchemist}, SimFn{sim::simulate_alchemist_events}}) {
    expect_observer_inert(
        engine, g,
        [engine](const OpGraph& in, const arch::ArchConfig& cfg, const fault::FaultModel* fm) {
          sim::UnitProfiler prof;
          const sim::SimResult r = engine(in, cfg, nullptr, fm, nullptr, &prof, nullptr);
          EXPECT_TRUE(r.profile.enabled());
          return r;
        });
  }
  EXPECT_FALSE(sim::simulate_alchemist(g, arch::ArchConfig::alchemist()).profile.enabled());
}

TEST(ObsProfiler, ResumedRunComesBackUnprofiled) {
  const workloads::CkksWl w = workloads::CkksWl::paper(24);
  const OpGraph g = workloads::build_keyswitch(w);
  const arch::ArchConfig cfg = arch::ArchConfig::alchemist();

  // Interrupt a run, then resume it with a profiler attached: the cycles
  // before the cut were never observed, so the engine must hand back an
  // empty profile rather than a partial one.
  sim::Checkpoint cp;
  sim::SimControl stop;
  stop.max_steps = 2;
  stop.checkpoint_interval = 1;
  stop.checkpoint = &cp;
  EXPECT_THROW(sim::simulate_alchemist(g, cfg, nullptr, nullptr, &stop),
               sim::CancelledError);
  ASSERT_TRUE(cp.valid());
  sim::SimControl resume;
  resume.checkpoint = &cp;
  sim::UnitProfiler prof;
  const auto resumed =
      sim::simulate_alchemist(g, cfg, nullptr, nullptr, &resume, &prof);
  EXPECT_EQ(resumed.cycles, sim::simulate_alchemist(g, cfg).cycles);
  EXPECT_FALSE(resumed.profile.enabled());
}

TEST(ObsProfiler, ReportGainsUtilizationSection) {
  const workloads::CkksWl w = workloads::CkksWl::paper(24);
  const arch::ArchConfig cfg = arch::ArchConfig::alchemist();
  sim::UnitProfiler prof;
  const auto r = sim::simulate_alchemist(workloads::build_cmult(w), cfg, nullptr,
                                         nullptr, nullptr, &prof);
  obs::MetricsReport report("test_obs");
  report.add(r);
  const std::string json = report.json();
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"utilization\""), std::string::npos);
  EXPECT_NE(json.find("\"schema\": \"utilization.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"stall_scratchpad\""), std::string::npos);

  // Unprofiled runs keep the report section-free (committed baselines).
  obs::MetricsReport plain("test_obs");
  plain.add(sim::simulate_alchemist(workloads::build_cmult(w), cfg));
  EXPECT_EQ(plain.json().find("\"utilization\""), std::string::npos);
}

TEST(ObsProfiler, TraceGainsPerUnitCounterTracks) {
  const workloads::CkksWl w = workloads::CkksWl::paper(24);
  const arch::ArchConfig cfg = arch::ArchConfig::alchemist();
  obs::Timeline timeline;
  sim::UnitProfiler prof;
  const auto r = sim::simulate_alchemist(workloads::build_keyswitch(w), cfg,
                                         &timeline, nullptr, nullptr, &prof);
  ASSERT_TRUE(r.profile.enabled());
  EXPECT_FALSE(timeline.counter_events().empty());
  std::ostringstream out;
  timeline.write_chrome_trace(out);
  const std::string json = out.str();
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("util/unit000"), std::string::npos);
  EXPECT_NE(json.find("util/unit127"), std::string::npos);
  EXPECT_NE(json.find("\"busy\""), std::string::npos);
}

// --- Prometheus exposition ------------------------------------------------

TEST(ObsPrometheus, NameManglingAndEscaping) {
  EXPECT_EQ(obs::prometheus_name("svc.latency.total_us"), "svc_latency_total_us");
  EXPECT_EQ(obs::prometheus_name("sim.cycles"), "sim_cycles");
  EXPECT_EQ(obs::prometheus_name("a-b c"), "a_b_c");

  obs::Registry reg;
  reg.add("svc.completed", 3, {{"class", "key\"switch\nx\\y"}});
  const std::string text = obs::prometheus_exposition(reg);
  EXPECT_NE(text.find("# TYPE svc_completed counter"), std::string::npos);
  EXPECT_NE(text.find("svc_completed{class=\"key\\\"switch\\nx\\\\y\"} 3"),
            std::string::npos);
}

TEST(ObsPrometheus, HistogramRendersCumulativeBuckets) {
  obs::Registry reg;
  reg.observe("svc.latency.run_us", 5.0);
  reg.observe("svc.latency.run_us", 9.0);
  reg.observe("svc.latency.run_us", 1e6);
  const std::string text = obs::prometheus_exposition(reg);
  EXPECT_NE(text.find("# TYPE svc_latency_run_us histogram"), std::string::npos);
  EXPECT_NE(text.find("svc_latency_run_us_bucket{le=\"6\"} 1"), std::string::npos);
  EXPECT_NE(text.find("svc_latency_run_us_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("svc_latency_run_us_count 3"), std::string::npos);
  EXPECT_NE(text.find("svc_latency_run_us_sum 1000014"), std::string::npos);
  // Zero buckets are skipped: the exposition stays proportional to the data.
  EXPECT_EQ(text.find("le=\"1\"} 0"), std::string::npos);
}

TEST(ObsPrometheus, NonFiniteGaugesUseCanonicalSpelling) {
  obs::Registry reg;
  reg.set_gauge("sim.a", std::nan(""));
  reg.set_gauge("sim.b", HUGE_VAL);
  reg.set_gauge("sim.c", -HUGE_VAL);
  const std::string text = obs::prometheus_exposition(reg);
  EXPECT_NE(text.find("sim_a NaN"), std::string::npos);
  EXPECT_NE(text.find("sim_b +Inf"), std::string::npos);
  EXPECT_NE(text.find("sim_c -Inf"), std::string::npos);
}

// --- Distributed tracing / flight recorder --------------------------------

obs::SpanRecord make_span(std::uint64_t trace, std::uint64_t span,
                          std::uint64_t parent, const char* name,
                          double ts = 0, double dur = 1) {
  obs::SpanRecord s;
  s.trace_id = trace;
  s.span_id = span;
  s.parent_span = parent;
  s.name = name;
  s.kind = "svc";
  s.track = "svc/test";
  s.ts = ts;
  s.dur = dur;
  return s;
}

TEST(ObsSpan, IdMintingIsDeterministicAndNonzero) {
  EXPECT_EQ(obs::mint_trace_id(7), obs::mint_trace_id(7));
  EXPECT_NE(obs::mint_trace_id(7), obs::mint_trace_id(8));
  EXPECT_NE(obs::mint_trace_id(0), 0u);

  const std::uint64_t t = obs::mint_trace_id(1);
  EXPECT_EQ(obs::mint_span_id(t, 0, "job", 0), obs::mint_span_id(t, 0, "job", 0));
  EXPECT_NE(obs::mint_span_id(t, 0, "job", 0), obs::mint_span_id(t, 0, "job", 1));
  EXPECT_NE(obs::mint_span_id(t, 0, "job", 0), obs::mint_span_id(t, 0, "queue", 0));

  obs::TraceContext root;
  root.trace_id = t;
  root.span_id = obs::mint_span_id(t, 0, "job", 0);
  const obs::TraceContext child = obs::child_context(root, "attempt", 1);
  EXPECT_EQ(child.trace_id, t);
  EXPECT_EQ(child.parent_span, root.span_id);
  EXPECT_EQ(child.span_id, obs::mint_span_id(t, root.span_id, "attempt", 1));
  EXPECT_TRUE(child.valid());
  EXPECT_FALSE(obs::TraceContext{}.valid());
}

TEST(ObsSpan, SinkRingEvictsOldestAndCountsDrops) {
  obs::TraceSink sink(4);
  for (int i = 0; i < 6; ++i) {
    sink.record(make_span(1, 10 + i, 0, "s", /*ts=*/i));
  }
  EXPECT_EQ(sink.recorded(), 6u);
  EXPECT_EQ(sink.dropped(), 2u);
  const std::vector<obs::SpanRecord> spans = sink.snapshot();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans.front().span_id, 12u);  // oldest two evicted
  EXPECT_EQ(spans.back().span_id, 15u);
  sink.clear();
  EXPECT_EQ(sink.recorded(), 0u);
  EXPECT_TRUE(sink.snapshot().empty());
}

TEST(ObsSpan, RecordBatchDrainsUnderOneLockAndKeepsCapacity) {
  obs::TraceSink sink;
  std::vector<obs::SpanRecord> batch;
  for (int i = 0; i < 100; ++i) batch.push_back(make_span(1, 1 + i, 0, "s"));
  const std::size_t cap = batch.capacity();
  sink.record_batch(batch);
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.capacity(), cap);
  EXPECT_EQ(sink.recorded(), 100u);
  sink.record_batch(batch);  // empty batch is a no-op
  EXPECT_EQ(sink.recorded(), 100u);
}

TEST(ObsSpan, VirtualClockMakesTimestampsDeterministic) {
  obs::TraceSink sink;
  double now = 1000.0;
  sink.set_clock([&now] { return now; });
  EXPECT_EQ(sink.now_us(), 1000.0);
  now = 2500.0;
  EXPECT_EQ(sink.now_us(), 2500.0);
}

TEST(ObsSpan, ThreadPoolFanOutAdoptsAmbientContext) {
  obs::TraceSink sink;
  obs::TraceContext ctx;
  ctx.trace_id = obs::mint_trace_id(42);
  ctx.span_id = obs::mint_span_id(ctx.trace_id, 0, "attempt", 1);

  std::atomic<std::size_t> sum{0};
  {
    obs::ScopedTraceContext scope(&sink, ctx);
    parallel_for(1024, 1, [&](std::size_t b, std::size_t e) {
      sum.fetch_add(e - b, std::memory_order_relaxed);
    });
    parallel_for(1024, 1, [&](std::size_t b, std::size_t e) {
      sum.fetch_add(e - b, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(sum.load(), 2048u);
  const std::vector<obs::SpanRecord> spans = sink.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  for (const obs::SpanRecord& s : spans) {
    EXPECT_EQ(s.name, "parallel_for");
    EXPECT_EQ(s.kind, "pool");
    EXPECT_EQ(s.trace_id, ctx.trace_id);
    EXPECT_EQ(s.parent_span, ctx.span_id);
  }
  // Sequential fan-outs under one scope take consecutive ordinals.
  EXPECT_EQ(spans[0].span_id,
            obs::mint_span_id(ctx.trace_id, ctx.span_id, "parallel_for", 0));
  EXPECT_EQ(spans[1].span_id,
            obs::mint_span_id(ctx.trace_id, ctx.span_id, "parallel_for", 1));

  // Outside a scope the pool records nothing: the zero-overhead no-op path.
  parallel_for(1024, 1, [&](std::size_t b, std::size_t e) {
    sum.fetch_add(e - b, std::memory_order_relaxed);
  });
  EXPECT_EQ(sink.recorded(), 2u);
}

TEST(ObsSpan, SpansJsonHasStableSchema) {
  obs::SpanRecord s = make_span(0xabcull, 0x123ull, 0, "job", 5.0, 10.0);
  s.attrs = {{"class", "Pmult"}};
  s.num_attrs = {{"seq", 3.0}};
  const std::string doc = obs::spans_json({s}, /*recorded=*/1, /*dropped=*/0, "test");
  EXPECT_NE(doc.find("\"schema\":\"spans.v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"tool\":\"test\""), std::string::npos);
  EXPECT_NE(doc.find("\"trace\":\"0x0000000000000abc\""), std::string::npos);
  EXPECT_NE(doc.find("\"span\":\"0x0000000000000123\""), std::string::npos);
  EXPECT_NE(doc.find("\"parent\":\"0x0000000000000000\""), std::string::npos);
  EXPECT_NE(doc.find("\"clock\":\"us\""), std::string::npos);
  EXPECT_NE(doc.find("\"class\":\"Pmult\""), std::string::npos);
  EXPECT_NE(doc.find("\"seq\":3"), std::string::npos);
}

TEST(ObsSpan, TracezListsRecentAndSlowestPerClass) {
  obs::TraceSink sink;
  obs::SpanRecord fast = make_span(1, 11, 0, "job", 0, 10);
  fast.attrs = {{"class", "Pmult"}};
  obs::SpanRecord slow = make_span(2, 21, 0, "job", 0, 99);
  slow.attrs = {{"class", "Pmult"}};
  obs::SpanRecord other = make_span(3, 31, 0, "job", 0, 50);
  other.attrs = {{"class", "Rotation"}};
  sink.record(fast);
  sink.record(slow);
  sink.record(other);

  const std::string doc = obs::tracez_json(sink, /*recent_n=*/10, /*slowest_n=*/1);
  EXPECT_NE(doc.find("\"recorded\":3"), std::string::npos);
  // Slowest-1 for Pmult is the dur=99 root; the dur=10 one is trimmed.
  const std::size_t slowest = doc.find("\"slowest\"");
  ASSERT_NE(slowest, std::string::npos);
  EXPECT_NE(doc.find("\"Pmult\":[", slowest), std::string::npos);
  EXPECT_NE(doc.find("\"Rotation\":[", slowest), std::string::npos);
  EXPECT_NE(doc.find("\"dur\":99", slowest), std::string::npos);
  EXPECT_EQ(doc.find("\"dur\":10", slowest), std::string::npos);

  // Class filter narrows both sections.
  const std::string filtered = obs::tracez_json(sink, 10, 1, "Rotation");
  EXPECT_EQ(filtered.find("\"Pmult\""), std::string::npos);
  EXPECT_NE(filtered.find("\"Rotation\""), std::string::npos);
}

TEST(ObsSpan, MergeIntoTimelineEmitsSlicesAndFlows) {
  const std::uint64_t trace = obs::mint_trace_id(5);
  obs::SpanRecord queue = make_span(trace, 2, 1, "queue", 0, 10);
  queue.track = "svc/queue";
  obs::SpanRecord attempt = make_span(trace, 3, 1, "attempt", 10, 20);
  attempt.track = "svc/worker0";

  obs::Timeline timeline(true);
  obs::merge_spans_into_timeline({queue, attempt}, timeline, /*tid_base=*/500);
  ASSERT_EQ(timeline.events().size(), 2u);
  for (const obs::TraceEvent& ev : timeline.events()) {
    EXPECT_GE(ev.tid, 500u);
  }
  // One queue->attempt flow arrow: a start/finish pair sharing the trace id.
  ASSERT_EQ(timeline.flow_events().size(), 2u);
  EXPECT_EQ(timeline.flow_events()[0].phase, 's');
  EXPECT_EQ(timeline.flow_events()[1].phase, 'f');
  EXPECT_EQ(timeline.flow_events()[0].id, trace);
  EXPECT_EQ(timeline.flow_events()[1].id, trace);

  const std::string json = timeline.chrome_trace_json();
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("span/svc/queue"), std::string::npos);
}

TEST(ObsLog, RingFiltersBySeverityNewestFirst) {
  obs::EventLog log;
  double now = 100.0;
  log.set_clock([&now] { return now; });
  for (int i = 0; i < 5; ++i) {
    obs::LogEvent ev;
    ev.severity = (i % 2 == 0) ? obs::Severity::Debug : obs::Severity::Warn;
    ev.component = "test";
    ev.message = "e" + std::to_string(i);
    log.record(std::move(ev));
    now += 1.0;
  }
  EXPECT_EQ(log.recorded(), 5u);

  // Newest n surviving the severity floor, returned oldest first.
  const std::vector<obs::LogEvent> warns = log.tail(10, obs::Severity::Warn);
  ASSERT_EQ(warns.size(), 2u);
  EXPECT_EQ(warns[0].message, "e1");
  EXPECT_EQ(warns[1].message, "e3");
  EXPECT_EQ(warns[0].ts_us, 101.0);  // virtual clock stamped at record time

  const std::vector<obs::LogEvent> last2 = log.tail(2, obs::Severity::Debug);
  ASSERT_EQ(last2.size(), 2u);
  EXPECT_EQ(last2[0].message, "e3");
  EXPECT_EQ(last2[1].message, "e4");

  const std::string jsonl = obs::log_jsonl(warns);
  EXPECT_NE(jsonl.find("\"sev\":\"warn\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"msg\":\"e3\""), std::string::npos);
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'),
            static_cast<std::ptrdiff_t>(warns.size()));
}

TEST(ObsLog, SeverityParsingRoundTrips) {
  EXPECT_EQ(obs::parse_severity("warn", obs::Severity::Debug), obs::Severity::Warn);
  EXPECT_EQ(obs::parse_severity("error", obs::Severity::Debug), obs::Severity::Error);
  EXPECT_EQ(obs::parse_severity("bogus", obs::Severity::Info), obs::Severity::Info);
  EXPECT_STREQ(obs::to_string(obs::Severity::Error), "error");
}

TEST(ObsSpan, LevelEngineChainsNarrowLevelsAtPhasesDetail) {
  // A long single-op chain into one wide fan-out level: Phases detail must
  // coalesce the chain and keep one "level" span for the wide level.
  OpGraph g;
  g.name = "chainy";
  std::size_t prev = add_op(g, OpKind::Ntt, 4096, 2);
  for (int i = 0; i < 9; ++i) {
    prev = add_op(g, OpKind::PointwiseMult, 4096, 2, {prev});
  }
  std::vector<std::size_t> wide;
  for (int i = 0; i < 8; ++i) {
    wide.push_back(add_op(g, OpKind::PointwiseMult, 4096, 2, {prev}));
  }
  add_op(g, OpKind::PointwiseAdd, 4096, 2, wide);

  obs::TraceSink sink;
  sim::SimControl ctl;
  ctl.trace = &sink;
  ctl.trace_ctx.trace_id = obs::mint_trace_id(9);
  ctl.trace_ctx.span_id = obs::mint_span_id(ctl.trace_ctx.trace_id, 0, "attempt", 1);
  ctl.trace_detail = obs::TraceDetail::Phases;

  const sim::SimResult ref = sim::simulate_alchemist(g, arch::ArchConfig::alchemist());
  const sim::SimResult traced = sim::simulate_alchemist(
      g, arch::ArchConfig::alchemist(), nullptr, nullptr, &ctl);
  EXPECT_EQ(traced.cycles, ref.cycles);
  EXPECT_EQ(traced.registry.counters(), ref.registry.counters());

  std::size_t chains = 0, levels = 0, sims = 0;
  double chain_levels = 0;
  for (const obs::SpanRecord& s : sink.snapshot()) {
    EXPECT_EQ(s.trace_id, ctl.trace_ctx.trace_id);
    if (s.name == "chain") {
      ++chains;
      for (const auto& [k, v] : s.num_attrs) {
        if (k == "levels") chain_levels += v;
      }
      EXPECT_EQ(s.clock, obs::SpanClock::Cycles);
    } else if (s.name == "level") {
      ++levels;
    } else if (s.name == "sim") {
      ++sims;
    }
  }
  // 12 scheduling levels: 10-deep chain + final add chain around one wide
  // 8-op level, which alone earns a per-level span.
  EXPECT_EQ(sims, 1u);
  EXPECT_EQ(levels, 1u);
  EXPECT_GE(chains, 1u);
  EXPECT_EQ(chain_levels, 11.0);
}

TEST(ObsObserverEffect, OpTracingDoesNotPerturbEventSim) {
  const OpGraph g = tiny_graph();
  const sim::SimResult ref =
      sim::simulate_alchemist_events(g, arch::ArchConfig::alchemist());

  obs::TraceSink sink;
  sim::SimControl ctl;
  ctl.trace = &sink;
  ctl.trace_ctx.trace_id = obs::mint_trace_id(11);
  ctl.trace_ctx.span_id = obs::mint_span_id(ctl.trace_ctx.trace_id, 0, "attempt", 1);
  ctl.trace_detail = obs::TraceDetail::Ops;
  const sim::SimResult traced = sim::simulate_alchemist_events(
      g, arch::ArchConfig::alchemist(), nullptr, nullptr, &ctl);

  EXPECT_EQ(traced.cycles, ref.cycles);
  EXPECT_EQ(traced.time_us, ref.time_us);
  EXPECT_EQ(traced.registry.counters(), ref.registry.counters());
  std::size_t op_spans = 0;
  for (const obs::SpanRecord& s : sink.snapshot()) {
    if (s.track == "sim/ops") ++op_spans;
  }
  EXPECT_EQ(op_spans, g.ops().size());
}

}  // namespace
}  // namespace alchemist
