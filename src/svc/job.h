// Simulation jobs: the unit of work the serving layer schedules.
//
// A JobSpec bundles everything one simulation needs — workload graph, machine
// configuration, optional fault model, engine choice — plus the robustness
// envelope the JobRunner enforces around it: a deadline (wall-clock and/or a
// deterministic step budget), a bounded retry budget for fault-corrupted
// runs, a checkpoint cadence, and an optional checkpoint to resume from.
//
// The Job handle is the caller's view of a submitted job: thread-safe state
// queries, cooperative cancellation, blocking wait, and access to the result
// or the last captured checkpoint once the job reaches a terminal state.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "arch/config.h"
#include "common/rng.h"
#include "fault/fault_model.h"
#include "metaop/op_graph.h"
#include "obs/trace.h"
#include "sim/result.h"
#include "sim/sim_control.h"

namespace alchemist::svc {

// Metric names the JobRunner exports through its obs::Registry snapshot. The
// terminal-state counters partition svc.submitted: completed + failed +
// cancelled + deadline_expired + rejected == submitted at every quiescent
// point (asserted by bench/svc_soak). Rejection reasons: queue_full,
// tenant_queue_full, shutdown, overload (all JobState::Shed), circuit_open,
// quota_rate and quota_concurrency (JobState::QuotaExceeded).
namespace metrics {
inline constexpr const char* kSubmitted = "svc.submitted";
inline constexpr const char* kAdmitted = "svc.admitted";
inline constexpr const char* kCompleted = "svc.completed";  // + {retried=true}
inline constexpr const char* kFailed = "svc.failed";
inline constexpr const char* kCancelled = "svc.cancelled";
inline constexpr const char* kDeadlineExpired = "svc.deadline_expired";
inline constexpr const char* kRejected = "svc.rejected";  // + {reason=}
inline constexpr const char* kRetries = "svc.retries";
inline constexpr const char* kCheckpoints = "svc.checkpoints";
inline constexpr const char* kResumed = "svc.resumed";
inline constexpr const char* kQueueDepth = "svc.queue_depth";  // gauge + {stat=peak}
inline constexpr const char* kLatencyUs = "svc.latency_us";    // gauge {p=50|99}
inline constexpr const char* kWorkers = "svc.workers";         // gauge
// Degraded completions (overload ladder ran the job at reduced detail).
inline constexpr const char* kDegraded = "svc.degraded";
// Per-tenant accounting, recorded only for jobs that name a tenant so an
// untenanted deployment's snapshot is byte-identical to pre-tenancy output.
// Each carries a {tenant=} tag; rejected adds {reason=}. The per-tenant
// terminal split partitions svc.tenant.submitted{tenant=} the same way the
// global counters partition svc.submitted. Tenant names absent from
// RunnerOptions::tenants share the reserved label value "_other": label
// cardinality is bounded by configuration, so a client cycling invented
// tenant names cannot grow the registry or /metrics without bound.
inline constexpr const char* kTenantSubmitted = "svc.tenant.submitted";
inline constexpr const char* kTenantAdmitted = "svc.tenant.admitted";
inline constexpr const char* kTenantTerminal = "svc.tenant.terminal";  // + {state=}
inline constexpr const char* kTenantRejected = "svc.tenant.rejected";  // + {reason=}
inline constexpr const char* kTenantDegraded = "svc.tenant.degraded";
inline constexpr const char* kTenantInFlight = "svc.tenant.in_flight";  // gauge
inline constexpr const char* kTenantBacklog = "svc.tenant.backlog";     // gauge
// Overload ladder level in force (0 normal, 1 degrade, 2 shed); only set in
// snapshots when RunnerOptions::overload.enabled.
inline constexpr const char* kOverloadLevel = "svc.overload_level";  // gauge
// Latency histograms (obs::Histogram, microsecond ticks), recorded for every
// admitted job both untagged and per {class=}. queue/run/total are wall-clock
// (machine-dependent); sim_us is the *simulated* time of completed jobs and
// therefore deterministic — the cross-worker bit-identity tests pin it.
// Snapshots derive `<name>.p50/.p95/.p99` gauges from each histogram.
inline constexpr const char* kLatencyQueueUs = "svc.latency.queue_us";
inline constexpr const char* kLatencyRunUs = "svc.latency.run_us";
inline constexpr const char* kLatencyTotalUs = "svc.latency.total_us";
inline constexpr const char* kLatencySimUs = "svc.latency.sim_us";
}  // namespace metrics

enum class Engine : std::uint8_t { Level, Event };

// Every job ends in exactly one of the terminal states below Queued/Running.
enum class JobState : std::uint8_t {
  Queued,           // admitted, waiting for a worker
  Running,          // on a worker thread
  Completed,        // SimResult available (attempts() > 1 means retried)
  Failed,           // retries exhausted or non-retryable error
  Cancelled,        // CancelToken fired (caller or shutdown)
  DeadlineExpired,  // wall-clock deadline or step budget hit
  Shed,             // rejected at admission: queue full, overload, shutdown
  CircuitOpen,      // rejected at admission: (tenant, class) breaker open
  QuotaExceeded,    // rejected at admission: tenant rate/concurrency quota
};

const char* to_string(JobState s);
bool is_terminal(JobState s);

// Per-attempt fault seed: attempt 1 reproduces the configured seed exactly
// (a retry-free job equals a plain simulator call bit for bit); later
// attempts re-roll the transient faults through a splitmix64 finalizer, the
// way independent re-executions see independent upsets on real hardware.
inline u64 attempt_seed(u64 base, std::size_t attempt) {
  if (attempt <= 1) return base;
  return splitmix64_at(base, static_cast<u64>(attempt - 2));
}

struct JobSpec {
  std::string name;            // display / debugging
  std::string workload_class;  // circuit-breaker key; defaults to graph name
  // Admission/fairness identity. Empty (the default) means untenanted: no
  // quotas, one shared fair-queue lane, no per-tenant metrics — exactly the
  // pre-tenancy behavior, even when the deployment configures a restrictive
  // TenantPolicyTable::fallback (the fallback governs unknown *named*
  // tenants only). Non-empty selects the TenantPolicy from
  // RunnerOptions::tenants and keys the breaker as "tenant/class".
  std::string tenant;
  // Overload consent: under OverloadController Degrade/Shed pressure this
  // job may run at sim::SimDetail::Reduced with its retry budget trimmed to
  // one attempt; the handle reports it via Job::degraded(). Jobs without the
  // tag always run at full fidelity.
  bool degradable = false;
  std::shared_ptr<const metaop::OpGraph> graph;
  arch::ArchConfig config = arch::ArchConfig::alchemist();
  Engine engine = Engine::Level;

  // Fault model (applied only when fault_enabled; the seed is re-rolled per
  // attempt via attempt_seed).
  bool fault_enabled = false;
  fault::FaultConfig fault;

  // Deadline envelope: wall-clock from admission (0 = none) and/or a
  // deterministic per-attempt simulator step budget (0 = none). Both end the
  // job in DeadlineExpired with its last checkpoint captured.
  std::chrono::microseconds deadline{0};
  std::uint64_t max_steps = 0;

  // Retry budget for fault-corrupted runs (total attempts incl. the first).
  std::size_t max_attempts = 1;

  // Checkpoint cadence in simulator steps (0 = snapshot only when stopped);
  // a valid resume_from continues an earlier interrupted run.
  std::uint64_t checkpoint_interval = 0;
  sim::Checkpoint resume_from;

  // Attach a UnitProfiler to every attempt: the completed result carries the
  // per-unit utilization.v1 profile (SimResult.profile). The simulated
  // outcome is bit-identical either way; resumed runs come back unprofiled.
  bool profile = false;

  // Attach a MemProfiler to every attempt: the completed result carries the
  // memory.v1 attribution (SimResult.mem_profile) and the runner folds
  // sim.mem.* series into its snapshot/statusz. Bit-identical outcome either
  // way; unlike `profile`, the memory profile survives checkpoint/resume.
  bool mem_profile = false;

  // Propagated trace context (obs/trace.h). Invalid (the default) means the
  // runner mints a fresh trace id from its trace seed and the submission
  // sequence; a valid context joins an existing trace — the resume path sets
  // this to the interrupted job's context so both halves of the run share one
  // trace id, and a future network front door will set it from the wire.
  obs::TraceContext trace{};
};

// Where a finished job spent its wall time, plus its provenance — the
// per-job digest of the span tree, available from Job::trace_summary() once
// the job is terminal and surfaced by alchemist_serve / svc_soak output.
struct TraceSummary {
  std::uint64_t trace_id = 0;  // 0 when the runner traced nothing
  std::uint64_t root_span = 0;
  double queue_us = 0;    // admission -> dequeue
  double run_us = 0;      // dequeue -> terminal (includes retries + backoff)
  double backoff_us = 0;  // total retry backoff sleep inside run_us
  double total_us = 0;    // admission -> terminal
  double sim_us = 0;      // simulated time of the completed result (0 else)
  std::size_t attempts = 0;
  std::size_t retries = 0;           // attempts - 1 for jobs that ran
  std::uint64_t checkpoint_bytes = 0;  // size of the last captured checkpoint
  bool degraded = false;  // ran at reduced detail under overload pressure
};

class JobRunner;

class Job {
 public:
  explicit Job(JobSpec spec) : spec_(std::move(spec)) {}

  const JobSpec& spec() const { return spec_; }

  JobState state() const {
    std::lock_guard<std::mutex> lk(mu_);
    return state_;
  }
  bool terminal() const { return is_terminal(state()); }
  std::size_t attempts() const {
    std::lock_guard<std::mutex> lk(mu_);
    return attempts_;
  }
  std::string error() const {
    std::lock_guard<std::mutex> lk(mu_);
    return error_;
  }
  // Only meaningful once state() == Completed.
  sim::SimResult result() const {
    std::lock_guard<std::mutex> lk(mu_);
    return result_;
  }
  // True when the overload ladder ran this job at reduced detail (see
  // JobSpec::degradable): interval checkpoints and engine spans suppressed,
  // no profiler, retry budget trimmed to one attempt. The simulated outcome
  // itself is bit-identical to a full-fidelity run.
  bool degraded() const {
    std::lock_guard<std::mutex> lk(mu_);
    return degraded_;
  }
  // Last captured cursor (valid() only if the job checkpointed before it was
  // stopped); feed it back through JobSpec::resume_from to continue the run.
  sim::Checkpoint checkpoint() const {
    std::lock_guard<std::mutex> lk(mu_);
    return checkpoint_;
  }

  // Root trace context the runner minted (or adopted) for this job at
  // admission; pass it through JobSpec::trace to continue the same trace
  // (the checkpoint/resume path). Invalid when the runner was not tracing.
  obs::TraceContext trace_context() const {
    std::lock_guard<std::mutex> lk(mu_);
    return trace_ctx_;
  }
  // Per-stage wall-time digest; fully populated once terminal() is true.
  TraceSummary trace_summary() const {
    std::lock_guard<std::mutex> lk(mu_);
    return summary_;
  }

  // Cooperative cancellation: takes effect at the next simulator step (or at
  // dequeue, if still queued).
  void cancel() { token_.request_cancel(); }

  void wait() const {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return is_terminal(state_); });
  }

 private:
  friend class JobRunner;

  JobSpec spec_;
  sim::CancelToken token_;
  std::uint64_t seq_ = 0;  // submission order, seeds per-job backoff jitter
  std::chrono::steady_clock::time_point submit_time_{};
  std::chrono::steady_clock::time_point run_start_time_{};  // set at dequeue
  // Trace-clock stamps of the same instants (TraceSink::now_us, so runner
  // spans share one clock with the ThreadPool's fan-out spans) and the total
  // backoff sleep, accumulated by the owning worker before finish().
  double trace_submit_us_ = 0;
  double trace_run_start_us_ = 0;
  double backoff_us_ = 0;

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  JobState state_ = JobState::Queued;
  bool degraded_ = false;  // set at dequeue under overload pressure
  std::size_t attempts_ = 0;
  std::string error_;
  sim::SimResult result_;
  sim::Checkpoint checkpoint_;
  obs::TraceContext trace_ctx_;  // root context, minted at admission
  TraceSummary summary_;         // filled when the job turns terminal
};

using JobPtr = std::shared_ptr<Job>;

inline const char* to_string(JobState s) {
  switch (s) {
    case JobState::Queued: return "queued";
    case JobState::Running: return "running";
    case JobState::Completed: return "completed";
    case JobState::Failed: return "failed";
    case JobState::Cancelled: return "cancelled";
    case JobState::DeadlineExpired: return "deadline-expired";
    case JobState::Shed: return "shed";
    case JobState::CircuitOpen: return "circuit-open";
    case JobState::QuotaExceeded: return "quota-exceeded";
  }
  return "?";
}

inline bool is_terminal(JobState s) {
  return s != JobState::Queued && s != JobState::Running;
}

}  // namespace alchemist::svc
