// Deterministic soak of the resilient simulation service (src/svc).
//
// One run per worker count pushes a fixed, seeded mix of >200 jobs through
// the JobRunner with everything hostile turned on at once:
//
//   * queue capacity below the submission burst  -> deterministic shedding
//     (workers start paused, so the burst hits a full queue);
//   * tight deterministic step budgets            -> DeadlineExpired with a
//     checkpoint captured, later resumed to completion and checked
//     bit-identical against an uninterrupted reference run;
//   * injected transient faults + retry budgets   -> retried / failed jobs;
//   * cooperative cancellation of queued jobs;
//   * a poison workload class (fault rate 1.0)    -> circuit breaker opens,
//     subsequent submissions fast-fail with CircuitOpen.
//
// The soak asserts, for every worker count, that each job handle lands in
// exactly one terminal state, that the svc.* terminal-state counters
// partition svc.submitted, and that the handle tally equals the counters.
// Exit status is non-zero on any violation, so this doubles as a ctest.
//
// Modes:
//   --quick            one worker count (4) instead of {1,2,4,8}
//   --smoke            overhead gates: the same deterministic job set runs
//                      (a) with and without JobSpec::profile, (b) with and
//                      without JobSpec::mem_profile (memory.v1 attribution;
//                      every attributed byte must equal the run's
//                      sim.hbm.bytes) and (c) with and without distributed
//                      tracing (TraceSink + EventLog at phase detail);
//                      results must be bit-identical in every comparison and
//                      each instrumented wall-clock (best of 3) within 10%
//                      of the plain one
//   --metrics-out F    write the final run's svc.* registry (latency
//                      histograms included) as a metrics.v1 JSON report;
//                      traced runs graft their spans in as a spans.v1 section
//   --trace-out F      write the traced run's spans as a standalone spans.v1
//                      document (CI feeds this to tools/check_trace_spans.py)
//   --overload         adversarial multi-tenant isolation scenarios (bursty
//                      flood, slow-job poisoning, quota probing, overload
//                      degrade ladder, tenancy-defaults identity); all
//                      admission verdicts deterministic
//   --fairness-out F   write the --overload per-tenant stats as a fairness.v1
//                      JSON report (CI gates it with tools/check_fairness.py)
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "obs/log.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "sim/alchemist_sim.h"
#include "sim/event_sim.h"
#include "svc/job_runner.h"
#include "workloads/ckks_workloads.h"

namespace {

using namespace alchemist;
using GraphPtr = std::shared_ptr<const metaop::OpGraph>;

constexpr std::size_t kJobs = 260;       // submission burst (wave 1)
constexpr std::size_t kQueueCap = 224;   // < kJobs: the tail is shed
constexpr std::size_t kPoisonJobs = 8;   // wave 2: breaker exercise
constexpr std::size_t kBreakerThreshold = 4;
constexpr u64 kSeed = 0x50a1'c0deull;

#define SOAK_CHECK(cond, msg)                                      \
  do {                                                             \
    if (!(cond)) {                                                 \
      std::fprintf(stderr, "svc_soak FAILED: %s (line %d)\n", msg, \
                   __LINE__);                                      \
      return false;                                                \
    }                                                              \
  } while (0)

struct SoakStats {
  u64 submitted = 0, completed = 0, retried_ok = 0, failed = 0, cancelled = 0,
      expired = 0, shed = 0, circuit_open = 0, retries = 0, resumed = 0;
  double wall_ms = 0.0, p99_ms = 0.0, throughput = 0.0;
  obs::Registry reg;  // final snapshot (latency histograms for reporting)
};

// Per-class latency quantiles from the svc.latency.total_us{class=} histograms.
void print_class_latency(const obs::Registry& reg) {
  const std::string prefix = std::string(svc::metrics::kLatencyTotalUs) + "{class=";
  for (const auto& [key, hist] : reg.histograms()) {
    if (key.rfind(prefix, 0) != 0 || hist.count() == 0) continue;
    std::printf("  %-40s p50/p95/p99 = %8.2f / %8.2f / %8.2f ms  (n=%llu)\n",
                key.c_str(), hist.percentile(50.0) / 1000.0,
                hist.percentile(95.0) / 1000.0, hist.percentile(99.0) / 1000.0,
                static_cast<unsigned long long>(hist.count()));
  }
}

// Uninterrupted reference runs, indexed [graph][engine]; resumed jobs are
// fault-free, so their results must be bit-identical to these.
std::vector<std::array<sim::SimResult, 2>> make_references(
    const std::vector<GraphPtr>& graphs, const arch::ArchConfig& cfg) {
  std::vector<std::array<sim::SimResult, 2>> refs;
  refs.reserve(graphs.size());
  for (const GraphPtr& g : graphs) {
    refs.push_back({sim::simulate_alchemist(*g, cfg),
                    sim::simulate_alchemist_events(*g, cfg)});
  }
  return refs;
}

bool run_soak(std::size_t workers, const std::vector<GraphPtr>& graphs,
              const std::vector<std::array<sim::SimResult, 2>>& refs,
              SoakStats& out, obs::TraceSink* trace = nullptr,
              obs::EventLog* log = nullptr) {
  if (trace != nullptr) trace->clear();
  if (log != nullptr) log->clear();
  svc::RunnerOptions opts;
  opts.workers = workers;
  opts.queue_capacity = kQueueCap;
  opts.breaker_threshold = kBreakerThreshold;
  opts.breaker_cooldown = std::chrono::seconds(600);  // stays open for the run
  opts.backoff.base_us = 50;
  opts.backoff.cap_us = 1000;
  opts.start_paused = true;  // deterministic queue pressure + cancellation
  opts.trace = trace;
  opts.log = log;
  svc::JobRunner runner(opts);

  // Wave 1: seeded mixed burst against parked workers.
  Rng rng(kSeed);
  std::vector<svc::JobPtr> handles;
  std::vector<bool> budgeted(kJobs, false);
  std::vector<std::size_t> graph_of(kJobs, 0), engine_of(kJobs, 0);
  handles.reserve(kJobs);
  for (std::size_t i = 0; i < kJobs; ++i) {
    svc::JobSpec spec;
    spec.name = "soak-" + std::to_string(i);
    graph_of[i] = rng.uniform(graphs.size());
    engine_of[i] = rng.uniform(2);
    spec.graph = graphs[graph_of[i]];
    spec.engine = engine_of[i] == 0 ? svc::Engine::Level : svc::Engine::Event;
    spec.checkpoint_interval = 2;
    const u64 r = rng.uniform(100);
    if (r < 20) {
      // Tight deterministic deadline; fault-free so a resumed run can be
      // compared bit-for-bit against the uninterrupted reference.
      budgeted[i] = true;
      spec.max_steps = 1 + rng.uniform(2);
    } else if (r < 50) {
      spec.fault_enabled = true;
      spec.fault.seed = rng.next();
      const double rate = 1e-9 * static_cast<double>(1 + rng.uniform(20));
      spec.fault.compute_fault_rate = spec.fault.sram_fault_rate =
          spec.fault.hbm_fault_rate = rate;
      spec.max_attempts = 3;
    }
    handles.push_back(runner.submit(std::move(spec)));
  }
  // Cancel a slice of the queued jobs before anything runs.
  for (std::size_t i = 7; i < kJobs; i += 29) handles[i]->cancel();

  const auto t0 = std::chrono::steady_clock::now();
  runner.set_paused(false);
  runner.drain();
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();

  // Wave 2: a workload class that always corrupts its output. Draining after
  // each submission makes the failure order deterministic: the breaker trips
  // after kBreakerThreshold failures and the rest are rejected CircuitOpen.
  std::vector<svc::JobPtr> poison;
  for (std::size_t i = 0; i < kPoisonJobs; ++i) {
    svc::JobSpec spec;
    spec.name = "poison-" + std::to_string(i);
    spec.workload_class = "poison";
    spec.graph = graphs[0];
    spec.fault_enabled = true;
    spec.fault.seed = kSeed + i;
    spec.fault.compute_fault_rate = 1.0;
    poison.push_back(runner.submit(std::move(spec)));
    runner.drain();
  }
  for (std::size_t i = 0; i < kPoisonJobs; ++i) {
    const svc::JobState expect = i < kBreakerThreshold
                                     ? svc::JobState::Failed
                                     : svc::JobState::CircuitOpen;
    SOAK_CHECK(poison[i]->state() == expect, "poison job state mismatch");
  }

  // Wave 3: resume every deadline-expired job from its checkpoint and verify
  // the completed result is bit-identical to the uninterrupted reference.
  std::vector<std::pair<std::size_t, svc::JobPtr>> resumes;
  for (std::size_t i = 0; i < kJobs; ++i) {
    if (handles[i]->state() != svc::JobState::DeadlineExpired) continue;
    SOAK_CHECK(budgeted[i], "non-budgeted job expired");
    const sim::Checkpoint cp = handles[i]->checkpoint();
    SOAK_CHECK(cp.valid(), "expired job has no checkpoint");
    svc::JobSpec spec;
    spec.name = handles[i]->spec().name + "-resume";
    spec.workload_class = "resume";  // wave-1 failures may have opened class breakers
    spec.graph = graphs[graph_of[i]];
    spec.engine = engine_of[i] == 0 ? svc::Engine::Level : svc::Engine::Event;
    spec.resume_from = cp;
    // Continue the interrupted job's trace: both halves of the run share one
    // trace id, with the resume's root span parented under the original.
    spec.trace = handles[i]->trace_context();
    resumes.emplace_back(i, runner.submit(std::move(spec)));
  }
  runner.drain();
  for (const auto& [i, job] : resumes) {
    SOAK_CHECK(job->state() == svc::JobState::Completed, "resume did not complete");
    const sim::SimResult& ref = refs[graph_of[i]][engine_of[i]];
    const sim::SimResult got = job->result();
    SOAK_CHECK(got.cycles == ref.cycles, "resumed cycles differ from reference");
    SOAK_CHECK(got.time_us == ref.time_us, "resumed time differs from reference");
    SOAK_CHECK(got.registry.counters() == ref.registry.counters(),
               "resumed registry differs from reference");
  }

  // Global invariants: every handle terminal, in a defined state, and the
  // svc.* terminal counters partition svc.submitted exactly.
  const obs::Registry reg = runner.snapshot();
  out.submitted = reg.counter(svc::metrics::kSubmitted);
  out.completed = reg.counter(svc::metrics::kCompleted);
  out.retried_ok = reg.counter(svc::metrics::kCompleted, {{"retried", "true"}});
  out.failed = reg.counter(svc::metrics::kFailed);
  out.cancelled = reg.counter(svc::metrics::kCancelled);
  out.expired = reg.counter(svc::metrics::kDeadlineExpired);
  out.shed = reg.counter(svc::metrics::kRejected, {{"reason", "queue_full"}}) +
             reg.counter(svc::metrics::kRejected, {{"reason", "shutdown"}});
  out.circuit_open = reg.counter(svc::metrics::kRejected, {{"reason", "circuit_open"}});
  out.retries = reg.counter(svc::metrics::kRetries);
  out.resumed = reg.counter(svc::metrics::kResumed);
  out.p99_ms = reg.gauge(svc::metrics::kLatencyUs, {{"p", "99"}}) / 1000.0;
  out.throughput = static_cast<double>(kJobs - out.shed) * 1000.0 / out.wall_ms;
  out.reg = reg;

  const u64 total_handles = kJobs + kPoisonJobs + resumes.size();
  SOAK_CHECK(out.submitted == total_handles, "submitted != handles");
  SOAK_CHECK(out.completed + out.failed + out.cancelled + out.expired + out.shed +
                     out.circuit_open == out.submitted,
             "terminal-state counters do not partition submitted");
  SOAK_CHECK(out.shed == kJobs - kQueueCap, "unexpected shed count");
  SOAK_CHECK(out.resumed == resumes.size(), "svc.resumed mismatch");

  std::map<svc::JobState, u64> tally;
  auto count = [&](const std::vector<svc::JobPtr>& v) {
    for (const svc::JobPtr& h : v) {
      SOAK_CHECK(h->terminal(), "job not terminal at end of soak");
      ++tally[h->state()];
    }
    return true;
  };
  if (!count(handles) || !count(poison)) return false;
  for (const auto& [i, job] : resumes) {
    (void)i;
    ++tally[job->state()];
  }
  SOAK_CHECK(tally[svc::JobState::Completed] == out.completed, "completed tally");
  SOAK_CHECK(tally[svc::JobState::Failed] == out.failed, "failed tally");
  SOAK_CHECK(tally[svc::JobState::Cancelled] == out.cancelled, "cancelled tally");
  SOAK_CHECK(tally[svc::JobState::DeadlineExpired] == out.expired, "expired tally");
  SOAK_CHECK(tally[svc::JobState::Shed] == out.shed, "shed tally");
  SOAK_CHECK(tally[svc::JobState::CircuitOpen] == out.circuit_open, "breaker tally");
  return true;
}

// Instrumentation-overhead gates: a deterministic fault-free job set through
// a 4-worker runner, once plain, once with JobSpec::profile, and once under
// distributed tracing (TraceSink + EventLog, phase detail). Each instrumented
// configuration must reproduce the plain simulated outcome bit for bit and
// land within kMaxOverhead of the plain wall-clock. A pass takes a few ms, so
// the four configurations alternate pass by pass over kRounds rounds (drift
// on a shared host lands on all of them alike), and each is timed by the
// median of its passes.
bool run_smoke(const std::string& trace_out) {
  constexpr std::size_t kSmokeJobs = 16;
  constexpr int kRounds = 31;
  constexpr double kMaxOverhead = 0.10;

  // Heavyweight jobs — the overhead gate is about instrumenting realistic
  // runs, not amortizing fixed per-job cost over microsecond-long toy graphs.
  std::vector<GraphPtr> graphs;
  graphs.push_back(std::make_shared<metaop::OpGraph>(
      workloads::build_bootstrapping(workloads::CkksWl::paper(44), true)));
  graphs.push_back(std::make_shared<metaop::OpGraph>(
      workloads::build_helr_iteration(workloads::CkksWl::paper(30))));

  // The bootstrap graphs emit ~90k phase spans per run; size the ring so the
  // --trace-out document keeps every span (parents included) for the checker.
  obs::TraceSink sink(1 << 17);
  obs::EventLog log;
  svc::TraceSummary slowest{};
  auto run = [&](bool profile, bool mem, bool traced,
                 std::vector<sim::SimResult>& results,
                 obs::Registry* reg_out) {
    svc::RunnerOptions opts;
    opts.workers = 4;
    opts.queue_capacity = kSmokeJobs;
    if (traced) {
      sink.clear();
      log.clear();
      opts.trace = &sink;
      opts.log = &log;
      opts.trace_detail = obs::TraceDetail::Phases;
    }
    svc::JobRunner runner(opts);
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<svc::JobPtr> handles;
    handles.reserve(kSmokeJobs);
    for (std::size_t i = 0; i < kSmokeJobs; ++i) {
      svc::JobSpec spec;
      spec.name = "smoke-" + std::to_string(i);
      spec.graph = graphs[i % graphs.size()];
      spec.engine = (i % 2 == 0) ? svc::Engine::Level : svc::Engine::Event;
      spec.profile = profile;
      spec.mem_profile = mem;
      handles.push_back(runner.submit(std::move(spec)));
    }
    runner.drain();
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    results.clear();
    for (const svc::JobPtr& h : handles) {
      if (h->state() != svc::JobState::Completed) return -1.0;
      results.push_back(h->result());
      if (traced) {
        const svc::TraceSummary s = h->trace_summary();
        if (s.total_us > slowest.total_us) slowest = s;
      }
    }
    if (reg_out != nullptr) *reg_out = runner.snapshot();
    return wall_ms;
  };

  struct Config {
    const char* what;
    bool profile, mem, traced;
    obs::Registry* reg;
    std::vector<sim::SimResult> first;  // results of the first pass
    std::vector<double> ms;
  };
  obs::Registry last_reg, mem_reg;
  Config configs[] = {{"plain", false, false, false, nullptr, {}, {}},
                      {"profiled", true, false, false, &last_reg, {}, {}},
                      {"mem-profiled", false, true, false, &mem_reg, {}, {}},
                      {"traced", false, false, true, nullptr, {}, {}}};
  std::vector<sim::SimResult> scratch;
  for (int round = 0; round < kRounds; ++round) {
    for (Config& c : configs) {
      const double ms = run(c.profile, c.mem, c.traced, scratch, c.reg);
      if (ms < 0) {
        std::fprintf(stderr, "smoke: %s job failed\n", c.what);
        return false;
      }
      c.ms.push_back(ms);
      if (round == 0) c.first = scratch;
    }
  }
  auto median = [](std::vector<double> v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  const double wall_off = median(configs[0].ms), wall_profiled = median(configs[1].ms),
               wall_mem = median(configs[2].ms), wall_traced = median(configs[3].ms);
  const std::vector<sim::SimResult>& base = configs[0].first;
  const std::vector<sim::SimResult>& profiled = configs[1].first;
  const std::vector<sim::SimResult>& memed = configs[2].first;
  const std::vector<sim::SimResult>& traced = configs[3].first;
  std::printf("svc_soak --smoke: per-class latency of the last profiled run:\n");
  print_class_latency(last_reg);

  auto identical = [&](const std::vector<sim::SimResult>& other,
                       const char* what) {
    for (std::size_t i = 0; i < base.size(); ++i) {
      const sim::SimResult& a = base[i];
      const sim::SimResult& b = other[i];
      if (a.cycles != b.cycles || a.time_us != b.time_us ||
          a.registry.counters() != b.registry.counters()) {
        std::fprintf(stderr, "smoke: %s result of job %zu not bit-identical\n",
                     what, i);
        return false;
      }
    }
    return true;
  };
  if (!identical(profiled, "profiled") || !identical(memed, "mem-profiled") ||
      !identical(traced, "traced")) {
    return false;
  }
  // memory.v1 checks: the profile is present exactly when requested, every
  // streamed byte is attributed (conservation against sim.hbm.bytes), and the
  // folded sim.mem.bytes counter in the runner snapshot agrees with the sum
  // over the completed jobs.
  u64 mem_bytes_sum = 0;
  for (std::size_t i = 0; i < base.size(); ++i) {
    const sim::SimResult& a = base[i];
    const sim::SimResult& b = memed[i];
    if (a.mem_profile.enabled() || !b.mem_profile.enabled()) {
      std::fprintf(stderr, "smoke: memory profile presence wrong for job %zu\n", i);
      return false;
    }
    if (b.mem_profile.attributed_total() != b.mem_profile.total_bytes ||
        b.mem_profile.total_bytes !=
            b.registry.counter(sim::metrics::kHbmBytes)) {
      std::fprintf(stderr,
                   "smoke: job %zu memory attribution does not conserve "
                   "sim.hbm.bytes\n",
                   i);
      return false;
    }
    mem_bytes_sum += b.mem_profile.total_bytes;
  }
  if (mem_reg.counter(sim::metrics::kMemBytes) != mem_bytes_sum) {
    std::fprintf(stderr, "smoke: folded sim.mem.bytes disagrees with job sum\n");
    return false;
  }
  for (std::size_t i = 0; i < base.size(); ++i) {
    const sim::SimResult& a = base[i];
    const sim::SimResult& b = profiled[i];
    if (a.profile.enabled() || !b.profile.enabled()) {
      std::fprintf(stderr, "smoke: profile presence wrong for job %zu\n", i);
      return false;
    }
    for (const obs::UnitCycles& u : b.profile.units) {
      if (u.total() != b.profile.total_cycles) {
        std::fprintf(stderr, "smoke: unit buckets of job %zu do not sum to total\n", i);
        return false;
      }
    }
  }
  bool ok = true;
  for (const auto& [label, wall] :
       {std::pair<const char*, double>{"profiler", wall_profiled},
        {"mem-profiler", wall_mem},
        {"tracing", wall_traced}}) {
    const double overhead = (wall - wall_off) / wall_off;
    std::printf("svc_soak --smoke: wall %0.2f ms off / %0.2f ms %s -> overhead "
                "%+.1f%% (gate <%.0f%%), results bit-identical\n",
                wall_off, wall, label, 100.0 * overhead, 100.0 * kMaxOverhead);
    if (overhead >= kMaxOverhead) {
      std::fprintf(stderr, "svc_soak FAILED: %s overhead %.1f%% exceeds gate\n",
                   label, 100.0 * overhead);
      ok = false;
    }
  }
  std::printf("svc_soak --smoke: %llu spans, %llu log events; slowest trace "
              "0x%016llx queue %.2f ms run %.2f ms sim %.2f ms\n",
              static_cast<unsigned long long>(sink.recorded()),
              static_cast<unsigned long long>(log.recorded()),
              static_cast<unsigned long long>(slowest.trace_id),
              slowest.queue_us / 1000.0, slowest.run_us / 1000.0,
              slowest.sim_us / 1000.0);
  if (!trace_out.empty()) {
    if (!obs::write_spans_file(trace_out, sink, "svc_soak")) {
      std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
      return false;
    }
    std::printf("trace: %s (spans.v1)\n", trace_out.c_str());
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Adversarial multi-tenant overload soak (--overload).
//
// Deterministic isolation scenarios: every admission verdict is decided
// against parked workers with non-replenishing (rate 0) token buckets, so the
// admitted/rejected split is bit-reproducible; only the latency percentiles
// are wall-clock, and those gate in CI via tools/check_fairness.py against
// the solo baseline, never in-binary.
//
//   solo         the well-behaved tenant alone: the p99 baseline
//   bursty       adversary floods 10x its rate quota; victim shares the pool
//   slowjob      adversary holds heavyweight jobs under a concurrency cap
//   quota_probe  adversary hammers past its burst budget probing for leaks
//   degrade      overload ladder: degradable jobs run Reduced, then shed
//   identity     tenancy defaults leave untenanted runs bit-identical
// ---------------------------------------------------------------------------

constexpr const char* kVictim = "victim";
constexpr const char* kAdversary = "adversary";

struct TenantStats {
  u64 submitted = 0, admitted = 0, completed = 0, quota_exceeded = 0, shed = 0,
      degraded = 0;
  u64 quota = 0;  // expected admitted under the scenario's contract (0 = n/a)
  double p50_us = 0, p95_us = 0, p99_us = 0;
};

TenantStats tenant_stats(const obs::Registry& reg, const std::string& t) {
  TenantStats s;
  s.submitted = reg.counter(svc::metrics::kTenantSubmitted, {{"tenant", t}});
  s.admitted = reg.counter(svc::metrics::kTenantAdmitted, {{"tenant", t}});
  s.completed = reg.counter(svc::metrics::kTenantTerminal,
                            {{"state", "completed"}, {"tenant", t}});
  s.quota_exceeded =
      reg.counter(svc::metrics::kTenantRejected,
                  {{"reason", "quota_rate"}, {"tenant", t}}) +
      reg.counter(svc::metrics::kTenantRejected,
                  {{"reason", "quota_concurrency"}, {"tenant", t}});
  for (const char* reason : {"queue_full", "tenant_queue_full", "shutdown", "overload"}) {
    s.shed += reg.counter(svc::metrics::kTenantRejected,
                          {{"reason", reason}, {"tenant", t}});
  }
  s.degraded = reg.counter(svc::metrics::kTenantDegraded, {{"tenant", t}});
  const obs::Histogram& h =
      reg.histogram(svc::metrics::kLatencyTotalUs, {{"tenant", t}});
  if (h.count() > 0) {
    s.p50_us = h.percentile(50.0);
    s.p95_us = h.percentile(95.0);
    s.p99_us = h.percentile(99.0);
  }
  return s;
}

svc::JobSpec tenant_job(const char* tenant, const GraphPtr& g, std::size_t i,
                        bool degradable = false) {
  svc::JobSpec spec;
  spec.name = std::string(tenant) + "-" + std::to_string(i);
  spec.workload_class = tenant;
  spec.tenant = tenant;
  spec.graph = g;
  spec.engine = (i % 2 == 0) ? svc::Engine::Level : svc::Engine::Event;
  spec.degradable = degradable;
  return spec;
}

bool all_completed(const std::vector<svc::JobPtr>& handles, const char* what) {
  for (const svc::JobPtr& h : handles) {
    SOAK_CHECK(h->state() == svc::JobState::Completed, what);
  }
  return true;
}

// The well-behaved tenant alone: same 24-job load it submits in every
// contended scenario, no adversary. Its p99 is the isolation baseline.
bool scenario_solo(const std::vector<GraphPtr>& graphs, TenantStats& victim) {
  svc::RunnerOptions opts;
  opts.workers = 2;
  opts.start_paused = true;
  svc::TenantPolicy vp;
  vp.weight = 3;
  opts.tenants.policies[kVictim] = vp;
  svc::JobRunner runner(opts);
  std::vector<svc::JobPtr> handles;
  for (std::size_t i = 0; i < 24; ++i) {
    handles.push_back(runner.submit(tenant_job(kVictim, graphs[i % graphs.size()], i)));
  }
  runner.set_paused(false);
  runner.drain();
  if (!all_completed(handles, "solo: victim job not completed")) return false;
  victim = tenant_stats(runner.snapshot(), kVictim);
  SOAK_CHECK(victim.admitted == 24 && victim.completed == 24, "solo accounting");
  return true;
}

// Bursty adversary: floods 240 submissions against a 24-token burst budget
// (10x its quota). The budget caps what it can occupy; DRR weight 3:1 keeps
// the victim's queue share. All verdicts land against parked workers.
bool scenario_bursty(const std::vector<GraphPtr>& graphs, TenantStats& victim,
                     TenantStats& adversary) {
  svc::RunnerOptions opts;
  opts.workers = 2;
  opts.start_paused = true;
  svc::TenantPolicy vp;
  vp.weight = 3;
  opts.tenants.policies[kVictim] = vp;
  svc::TenantPolicy ap;
  ap.burst = 24;        // quota: at most 24 jobs of this burst admitted
  ap.rate_per_sec = 0;  // non-replenishing -> deterministic verdicts
  ap.weight = 1;
  opts.tenants.policies[kAdversary] = ap;
  svc::JobRunner runner(opts);
  std::vector<svc::JobPtr> vjobs, ajobs;
  for (std::size_t i = 0, v = 0; i < 240; ++i) {
    ajobs.push_back(runner.submit(tenant_job(kAdversary, graphs[i % graphs.size()], i)));
    if (i % 10 == 0) {
      vjobs.push_back(runner.submit(tenant_job(kVictim, graphs[v % graphs.size()], v)));
      ++v;
    }
  }
  runner.set_paused(false);
  runner.drain();
  if (!all_completed(vjobs, "bursty: victim job not completed")) return false;
  const obs::Registry reg = runner.snapshot();
  victim = tenant_stats(reg, kVictim);
  adversary = tenant_stats(reg, kAdversary);
  adversary.quota = 24;
  SOAK_CHECK(victim.submitted == 24 && victim.admitted == 24, "bursty victim admission");
  SOAK_CHECK(adversary.submitted == 240, "bursty adversary submitted");
  SOAK_CHECK(adversary.admitted == adversary.quota, "bursty adversary quota not enforced");
  SOAK_CHECK(adversary.quota_exceeded == 216, "bursty adversary rejections");
  SOAK_CHECK(adversary.completed == adversary.admitted, "bursty adversary completions");
  // Typed verdict: quota rejections are QuotaExceeded, not Shed.
  u64 quota_handles = 0;
  for (const svc::JobPtr& h : ajobs) {
    if (h->state() == svc::JobState::QuotaExceeded) ++quota_handles;
  }
  SOAK_CHECK(quota_handles == adversary.quota_exceeded, "bursty QuotaExceeded tally");
  return true;
}

// Slow-job poisoning: the adversary parks heavyweight jobs; a concurrency
// quota (max_in_flight 4) bounds how much of the pool it can hold at once,
// and the slot frees on terminal, so the next wave admits 4 again.
bool scenario_slowjob(const std::vector<GraphPtr>& graphs, TenantStats& victim,
                      TenantStats& adversary) {
  svc::RunnerOptions opts;
  opts.workers = 4;
  opts.start_paused = true;
  svc::TenantPolicy vp;
  vp.weight = 3;
  opts.tenants.policies[kVictim] = vp;
  svc::TenantPolicy ap;
  ap.max_in_flight = 4;
  ap.weight = 1;
  opts.tenants.policies[kAdversary] = ap;
  svc::JobRunner runner(opts);
  const GraphPtr& heavy = graphs.back();  // keyswitch: the heaviest of the mix
  std::vector<svc::JobPtr> vjobs, ajobs;
  for (int phase = 0; phase < 2; ++phase) {
    for (std::size_t i = 0; i < 10; ++i) {
      ajobs.push_back(runner.submit(
          tenant_job(kAdversary, heavy, static_cast<std::size_t>(phase) * 10 + i)));
    }
    for (std::size_t i = 0; i < 8; ++i) {
      vjobs.push_back(runner.submit(
          tenant_job(kVictim, graphs[i % graphs.size()],
                     static_cast<std::size_t>(phase) * 8 + i)));
    }
    runner.set_paused(false);
    runner.drain();
    runner.set_paused(true);  // park again for the next deterministic wave
  }
  runner.set_paused(false);
  if (!all_completed(vjobs, "slowjob: victim job not completed")) return false;
  const obs::Registry reg = runner.snapshot();
  victim = tenant_stats(reg, kVictim);
  adversary = tenant_stats(reg, kAdversary);
  adversary.quota = 8;  // 4 in-flight slots x 2 waves
  SOAK_CHECK(victim.completed == 16, "slowjob victim completions");
  SOAK_CHECK(adversary.admitted == 8, "slowjob concurrency quota not enforced");
  SOAK_CHECK(adversary.quota_exceeded == 12, "slowjob concurrency rejections");
  return true;
}

// Quota probing: rapid-fire submissions hunting for a token leak. Refunds on
// rollback paths must not mint tokens: exactly `burst` jobs get through.
bool scenario_quota_probe(const std::vector<GraphPtr>& graphs,
                          TenantStats& victim, TenantStats& adversary) {
  svc::RunnerOptions opts;
  opts.workers = 2;
  opts.start_paused = true;
  opts.tenants.policies[kVictim] = svc::TenantPolicy{};
  svc::TenantPolicy ap;
  ap.burst = 8;
  ap.rate_per_sec = 0;
  opts.tenants.policies[kAdversary] = ap;
  svc::JobRunner runner(opts);
  std::vector<svc::JobPtr> vjobs, ajobs;
  for (std::size_t i = 0; i < 8; ++i) {
    vjobs.push_back(runner.submit(tenant_job(kVictim, graphs[i % graphs.size()], i)));
  }
  for (std::size_t i = 0; i < 100; ++i) {
    ajobs.push_back(runner.submit(tenant_job(kAdversary, graphs[i % graphs.size()], i)));
  }
  for (std::size_t i = 8; i < 16; ++i) {
    vjobs.push_back(runner.submit(tenant_job(kVictim, graphs[i % graphs.size()], i)));
  }
  runner.set_paused(false);
  runner.drain();
  if (!all_completed(vjobs, "quota_probe: victim job not completed")) return false;
  const obs::Registry reg = runner.snapshot();
  victim = tenant_stats(reg, kVictim);
  adversary = tenant_stats(reg, kAdversary);
  adversary.quota = 8;
  SOAK_CHECK(adversary.admitted == 8, "quota_probe burst budget not enforced");
  SOAK_CHECK(adversary.quota_exceeded == 92, "quota_probe rejections");
  SOAK_CHECK(adversary.submitted ==
                 adversary.admitted + adversary.quota_exceeded,
             "quota_probe admission does not partition submissions");
  for (std::size_t i = 8; i < ajobs.size(); ++i) {
    SOAK_CHECK(ajobs[i]->state() == svc::JobState::QuotaExceeded,
               "quota_probe verdict not QuotaExceeded");
  }
  SOAK_CHECK(victim.completed == 16, "quota_probe victim completions");
  return true;
}

// Overload ladder. Part 1: target 0 + interval 0 + huge shed factor means the
// second dequeue escalates to Degrade — with one worker the first job runs
// full-fidelity and every later degradable job runs Reduced, bit-identically.
// Part 2: shed factor 0 escalates straight to Shed; arrivals during the
// standing backlog are typed-shed "overload", queued work still drains
// (never dropped), and once the queue is empty admission recovers.
bool scenario_degrade(const std::vector<GraphPtr>& graphs,
                      const std::vector<std::array<sim::SimResult, 2>>& refs,
                      TenantStats& victim, u64& degraded_out) {
  svc::RunnerOptions opts;
  opts.workers = 1;
  opts.start_paused = true;
  opts.overload.enabled = true;
  opts.overload.target = std::chrono::microseconds(0);
  opts.overload.interval = std::chrono::microseconds(0);
  opts.overload.shed_factor = 1e18;  // never reach Shed in part 1
  opts.tenants.policies[kVictim] = svc::TenantPolicy{};
  svc::JobRunner runner(opts);
  std::vector<svc::JobPtr> handles;
  constexpr std::size_t kDegradeJobs = 12;
  for (std::size_t i = 0; i < kDegradeJobs; ++i) {
    handles.push_back(runner.submit(
        tenant_job(kVictim, graphs[i % graphs.size()], i, /*degradable=*/true)));
  }
  runner.set_paused(false);
  runner.drain();
  if (!all_completed(handles, "degrade: job not completed")) return false;
  SOAK_CHECK(!handles[0]->degraded(), "degrade: first job should run full-fidelity");
  for (std::size_t i = 1; i < kDegradeJobs; ++i) {
    SOAK_CHECK(handles[i]->degraded(), "degrade: job not degraded");
    SOAK_CHECK(handles[i]->trace_summary().degraded, "degrade: summary flag unset");
    SOAK_CHECK(handles[i]->attempts() == 1, "degrade: retry budget not trimmed");
  }
  // Reduced detail must not change the simulated outcome.
  for (std::size_t i = 0; i < kDegradeJobs; ++i) {
    const sim::SimResult& ref = refs[i % graphs.size()][i % 2 == 0 ? 0 : 1];
    const sim::SimResult got = handles[i]->result();
    SOAK_CHECK(got.cycles == ref.cycles && got.time_us == ref.time_us,
               "degrade: degraded result not bit-identical");
    SOAK_CHECK(got.registry.counters() == ref.registry.counters(),
               "degrade: degraded registry not bit-identical");
  }
  const obs::Registry reg = runner.snapshot();
  victim = tenant_stats(reg, kVictim);
  degraded_out = reg.counter(svc::metrics::kDegraded);
  SOAK_CHECK(degraded_out == kDegradeJobs - 1, "degrade: svc.degraded count");
  SOAK_CHECK(victim.degraded == kDegradeJobs - 1, "degrade: tenant degraded count");

  // Part 2: escalate to Shed while the backlog stands, verify arrivals shed,
  // then verify admission recovers once the queue drains.
  //
  // The storm must hit a *standing* backlog, so each queued job is pinned to
  // a guaranteed minimum runtime: permanent fault corruption forces three
  // attempts with two jitter-free 50ms backoff sleeps in between
  // (sleep_for's lower bound is hard), giving >= 100ms per job. Waiting for
  // job 2 and re-parking the worker therefore freezes the runner with the
  // ladder at Shed (at least two above-target dequeue sojourns observed) and
  // jobs still queued, with ~100ms of margin against scheduler hiccups.
  svc::RunnerOptions sopts;
  sopts.workers = 1;
  sopts.start_paused = true;
  sopts.breaker_threshold = 0;  // six straight Failed must not trip a breaker
  sopts.backoff.base_us = 50'000;
  sopts.backoff.multiplier = 1.0;
  sopts.backoff.cap_us = 50'000;
  sopts.backoff.jitter = 0.0;
  sopts.overload.enabled = true;
  sopts.overload.target = std::chrono::microseconds(0);
  sopts.overload.interval = std::chrono::microseconds(0);
  sopts.overload.shed_factor = 0.0;  // any standing delay sheds
  svc::JobRunner shedder(sopts);
  std::vector<svc::JobPtr> queued;
  for (std::size_t i = 0; i < 6; ++i) {
    svc::JobSpec spec = tenant_job(kVictim, graphs[0], i);
    spec.fault_enabled = true;
    spec.fault.compute_fault_rate = 1.0;  // every attempt corrupts
    spec.max_attempts = 3;
    queued.push_back(shedder.submit(std::move(spec)));
  }
  shedder.set_paused(false);
  queued[2]->wait();
  shedder.set_paused(true);
  SOAK_CHECK(shedder.overload_level() == svc::OverloadController::Level::Shed,
             "degrade: ladder did not reach shed");
  // Arrivals that find the standing backlog at Shed are typed-shed.
  for (std::size_t i = 0; i < 3; ++i) {
    const svc::JobPtr h = shedder.submit(tenant_job(kVictim, graphs[0], 100 + i));
    SOAK_CHECK(h->state() == svc::JobState::Shed, "degrade: arrival not shed");
  }
  shedder.set_paused(false);
  shedder.drain();
  // Queued work is never dropped by the ladder: every job ran its full retry
  // budget to the deterministic Failed verdict rather than being discarded.
  for (const svc::JobPtr& h : queued) {
    SOAK_CHECK(h->state() == svc::JobState::Failed,
               "degrade: queued job dropped under shed");
    SOAK_CHECK(h->attempts() == 3, "degrade: queued job lost its retry budget");
  }
  const obs::Registry sreg = shedder.snapshot();
  SOAK_CHECK(sreg.counter(svc::metrics::kRejected, {{"reason", "overload"}}) == 3,
             "degrade: overload shed counter");
  // Shed never outlives the backlog: the first post-drain arrival finds an
  // empty queue — a zero standing delay — which resets the ladder, so it is
  // admitted rather than locked out forever.
  const svc::JobPtr recovered =
      shedder.submit(tenant_job(kVictim, graphs[0], 200));
  SOAK_CHECK(recovered->state() != svc::JobState::Shed,
             "degrade: post-drain arrival shed");
  recovered->wait();
  SOAK_CHECK(recovered->state() == svc::JobState::Completed,
             "degrade: post-drain arrival not completed");
  SOAK_CHECK(shedder.overload_level() == svc::OverloadController::Level::Normal,
             "degrade: ladder did not recover after drain");
  return true;
}

// Tenancy defaults must be invisible: the same untenanted job set through a
// runner with a populated policy table (and overload off) produces the same
// results and byte-identical svc.* counters as the plain pre-PR setup.
bool scenario_identity(const std::vector<GraphPtr>& graphs) {
  auto run = [&](bool tenancy, std::vector<sim::SimResult>& results,
                 std::map<std::string, u64>& counters) {
    svc::RunnerOptions opts;
    opts.workers = 2;
    opts.start_paused = true;
    if (tenancy) {
      svc::TenantPolicy vp;
      vp.weight = 3;
      vp.burst = 100;
      opts.tenants.policies[kVictim] = vp;
      opts.tenants.policies[kAdversary] = svc::TenantPolicy{};
    }
    svc::JobRunner runner(opts);
    std::vector<svc::JobPtr> handles;
    for (std::size_t i = 0; i < 8; ++i) {
      svc::JobSpec spec;
      spec.name = "identity-" + std::to_string(i);
      spec.graph = graphs[i % graphs.size()];
      spec.engine = (i % 2 == 0) ? svc::Engine::Level : svc::Engine::Event;
      handles.push_back(runner.submit(std::move(spec)));  // no tenant
    }
    runner.set_paused(false);
    runner.drain();
    results.clear();
    for (const svc::JobPtr& h : handles) {
      if (h->state() != svc::JobState::Completed) return false;
      results.push_back(h->result());
    }
    counters = runner.snapshot().counters();
    return true;
  };
  std::vector<sim::SimResult> plain, tenanted;
  std::map<std::string, u64> plain_counters, tenanted_counters;
  SOAK_CHECK(run(false, plain, plain_counters), "identity: plain run failed");
  SOAK_CHECK(run(true, tenanted, tenanted_counters), "identity: tenanted run failed");
  for (std::size_t i = 0; i < plain.size(); ++i) {
    SOAK_CHECK(plain[i].cycles == tenanted[i].cycles &&
                   plain[i].time_us == tenanted[i].time_us,
               "identity: results differ with tenancy defaults");
    SOAK_CHECK(plain[i].registry.counters() == tenanted[i].registry.counters(),
               "identity: registries differ with tenancy defaults");
  }
  SOAK_CHECK(plain_counters == tenanted_counters,
             "identity: svc.* counters differ with tenancy defaults");
  return true;
}

void json_tenant(std::ostringstream& out, const char* indent,
                 const std::string& name, const TenantStats& s, bool last) {
  out << indent << "\"" << name << "\": {"
      << "\"submitted\": " << s.submitted << ", \"admitted\": " << s.admitted
      << ", \"completed\": " << s.completed
      << ", \"quota_exceeded\": " << s.quota_exceeded
      << ", \"shed\": " << s.shed << ", \"degraded\": " << s.degraded
      << ", \"quota\": " << s.quota << ", \"p50_us\": " << s.p50_us
      << ", \"p95_us\": " << s.p95_us << ", \"p99_us\": " << s.p99_us << "}"
      << (last ? "\n" : ",\n");
}

bool run_overload(const std::vector<GraphPtr>& graphs,
                  const std::vector<std::array<sim::SimResult, 2>>& refs,
                  const std::string& fairness_out) {
  TenantStats solo{}, bursty_v{}, bursty_a{}, slow_v{}, slow_a{}, probe_v{},
      probe_a{}, degrade_v{};
  u64 degraded = 0;
  if (!scenario_solo(graphs, solo)) return false;
  if (!scenario_bursty(graphs, bursty_v, bursty_a)) return false;
  if (!scenario_slowjob(graphs, slow_v, slow_a)) return false;
  if (!scenario_quota_probe(graphs, probe_v, probe_a)) return false;
  if (!scenario_degrade(graphs, refs, degrade_v, degraded)) return false;
  if (!scenario_identity(graphs)) return false;

  std::printf("svc_soak --overload: deterministic isolation scenarios\n");
  std::printf("| scenario    | tenant    | submitted | admitted | completed | quota-rej | p99 (ms) |\n");
  std::printf("|-------------|-----------|-----------|----------|-----------|-----------|----------|\n");
  auto row = [](const char* sc, const char* t, const TenantStats& s) {
    std::printf("| %-11s | %-9s | %9llu | %8llu | %9llu | %9llu | %8.2f |\n", sc, t,
                static_cast<unsigned long long>(s.submitted),
                static_cast<unsigned long long>(s.admitted),
                static_cast<unsigned long long>(s.completed),
                static_cast<unsigned long long>(s.quota_exceeded),
                s.p99_us / 1000.0);
  };
  row("solo", kVictim, solo);
  row("bursty", kVictim, bursty_v);
  row("bursty", kAdversary, bursty_a);
  row("slowjob", kVictim, slow_v);
  row("slowjob", kAdversary, slow_a);
  row("quota_probe", kVictim, probe_v);
  row("quota_probe", kAdversary, probe_a);
  row("degrade", kVictim, degrade_v);
  std::printf("svc_soak --overload: %llu degraded completions under the ladder\n",
              static_cast<unsigned long long>(degraded));

  if (!fairness_out.empty()) {
    std::ostringstream out;
    out << "{\n  \"schema\": \"fairness.v1\",\n  \"tool\": \"svc_soak\",\n"
        << "  \"scenarios\": {\n";
    auto scenario = [&](const char* name, const TenantStats* v,
                        const TenantStats* a, bool last) {
      out << "    \"" << name << "\": {\"tenants\": {\n";
      if (a == nullptr) {
        json_tenant(out, "      ", kVictim, *v, true);
      } else {
        json_tenant(out, "      ", kVictim, *v, false);
        json_tenant(out, "      ", kAdversary, *a, true);
      }
      out << "    }}" << (last ? "\n" : ",\n");
    };
    scenario("solo", &solo, nullptr, false);
    scenario("bursty", &bursty_v, &bursty_a, false);
    scenario("slowjob", &slow_v, &slow_a, false);
    scenario("quota_probe", &probe_v, &probe_a, false);
    scenario("degrade", &degrade_v, nullptr, true);
    out << "  }\n}\n";
    std::FILE* f = std::fopen(fairness_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", fairness_out.c_str());
      return false;
    }
    const std::string doc = out.str();
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
    std::printf("fairness: %s (fairness.v1)\n", fairness_out.c_str());
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::size_t> worker_counts = {1, 2, 4, 8};
  bool smoke = false;
  bool overload = false;
  std::string metrics_out, trace_out, fairness_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") worker_counts = {4};
    else if (arg == "--smoke") smoke = true;
    else if (arg == "--overload") overload = true;
    else if (arg == "--metrics-out" && i + 1 < argc) metrics_out = argv[++i];
    else if (arg == "--trace-out" && i + 1 < argc) trace_out = argv[++i];
    else if (arg == "--fairness-out" && i + 1 < argc) fairness_out = argv[++i];
    else {
      std::fprintf(stderr,
                   "usage: svc_soak [--quick] [--smoke] [--overload] "
                   "[--metrics-out F] [--trace-out F] [--fairness-out F]\n");
      return 2;
    }
  }

  const workloads::CkksWl w = workloads::CkksWl::paper(16);
  std::vector<GraphPtr> graphs;
  graphs.push_back(std::make_shared<metaop::OpGraph>(workloads::build_pmult(w)));
  graphs.push_back(std::make_shared<metaop::OpGraph>(workloads::build_hadd(w)));
  graphs.push_back(std::make_shared<metaop::OpGraph>(workloads::build_rotation(w)));
  graphs.push_back(std::make_shared<metaop::OpGraph>(workloads::build_keyswitch(w)));

  if (smoke) {
    if (!run_smoke(trace_out)) return 1;
    std::printf("svc_soak OK\n");
    return 0;
  }

  const auto refs = make_references(graphs, arch::ArchConfig::alchemist());

  if (overload) {
    if (!run_overload(graphs, refs, fairness_out)) return 1;
    std::printf("svc_soak OK\n");
    return 0;
  }

  // Every full soak runs traced: the hostile mix (shed storms, breaker trips,
  // checkpoint/resume) is exactly what the span tree has to survive. The sink
  // is cleared per run, so it ends holding the last worker count's spans.
  obs::TraceSink trace_sink;
  obs::EventLog event_log;

  std::printf("svc_soak: %zu jobs/run (+%zu poison, + resumes), queue %zu, seed 0x%llx\n",
              kJobs, kPoisonJobs, kQueueCap,
              static_cast<unsigned long long>(kSeed));
  std::printf("| workers | throughput (jobs/s) | p99 (ms) | completed | retried-ok | failed | cancelled | expired | shed | breaker |\n");
  std::printf("|---------|---------------------|----------|-----------|------------|--------|-----------|---------|------|---------|\n");

  SoakStats first{}, last{};
  bool first_set = false;
  for (std::size_t workers : worker_counts) {
    SoakStats s;
    if (!run_soak(workers, graphs, refs, s, &trace_sink, &event_log)) return 1;
    last = s;
    std::printf("| %7zu | %19.0f | %8.2f | %9llu | %10llu | %6llu | %9llu | %7llu | %4llu | %7llu |\n",
                workers, s.throughput, s.p99_ms,
                static_cast<unsigned long long>(s.completed),
                static_cast<unsigned long long>(s.retried_ok),
                static_cast<unsigned long long>(s.failed),
                static_cast<unsigned long long>(s.cancelled),
                static_cast<unsigned long long>(s.expired),
                static_cast<unsigned long long>(s.shed),
                static_cast<unsigned long long>(s.circuit_open));
    // Job outcomes are independent of scheduling: the terminal-state split
    // must be identical for every worker count.
    if (!first_set) {
      first = s;
      first_set = true;
    } else if (s.completed != first.completed || s.failed != first.failed ||
               s.cancelled != first.cancelled || s.expired != first.expired ||
               s.shed != first.shed || s.circuit_open != first.circuit_open) {
      std::fprintf(stderr, "svc_soak FAILED: terminal split varies with worker count\n");
      return 1;
    }
  }
  std::printf("per-class end-to-end latency (last run):\n");
  print_class_latency(last.reg);
  std::printf("flight recorder (last run): %llu spans (%llu dropped), "
              "%llu log events\n",
              static_cast<unsigned long long>(trace_sink.recorded()),
              static_cast<unsigned long long>(trace_sink.dropped()),
              static_cast<unsigned long long>(event_log.recorded()));
  if (!metrics_out.empty()) {
    obs::MetricsReport report("svc_soak");
    report.add("svc_soak_mix", "JobRunner", last.reg);
    report.attach_spans(trace_sink);
    if (!report.write_file(metrics_out)) {
      std::fprintf(stderr, "cannot write %s\n", metrics_out.c_str());
      return 1;
    }
    std::printf("metrics: %s\n", metrics_out.c_str());
  }
  if (!trace_out.empty()) {
    if (!obs::write_spans_file(trace_out, trace_sink, "svc_soak")) {
      std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
      return 1;
    }
    std::printf("trace: %s (spans.v1)\n", trace_out.c_str());
  }
  std::printf("svc_soak OK\n");
  return 0;
}
