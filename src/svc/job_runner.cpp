#include "svc/job_runner.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "obs/json.h"
#include "obs/substrate_metrics.h"
#include "sim/alchemist_sim.h"
#include "sim/event_sim.h"

namespace alchemist::svc {

namespace {

using Clock = std::chrono::steady_clock;

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  rank = std::min(std::max<std::size_t>(rank, 1), v.size());
  return v[rank - 1];
}

// Lifecycle-span track ids: submissions land on the admission track, each
// worker gets its own run-span track.
constexpr std::uint32_t kAdmissionTid = 0;
constexpr std::uint32_t kWorkerTidBase = 1;

// Which worker this thread is, for routing finish() spans; -1 off-pool
// (destructor-orphaned jobs, rejected submissions).
thread_local int tls_worker = -1;

const char* to_string(CircuitBreaker::State s) {
  switch (s) {
    case CircuitBreaker::State::Closed: return "closed";
    case CircuitBreaker::State::Open: return "open";
    case CircuitBreaker::State::HalfOpen: return "half-open";
  }
  return "?";
}

std::string label_of(const JobSpec& spec, std::uint64_t seq) {
  return (spec.name.empty() ? spec.workload_class : spec.name) + "#" +
         std::to_string(seq);
}

}  // namespace

JobRunner::JobRunner(RunnerOptions opts)
    : opts_(std::move(opts)),
      epoch_(Clock::now()),
      queue_(opts_.queue_capacity),
      admission_(opts_.tenants),
      overload_(opts_.overload) {
  if (opts_.workers == 0) throw std::invalid_argument("svc: workers must be >= 1");
  if (opts_.queue_capacity == 0) {
    throw std::invalid_argument("svc: queue_capacity must be >= 1");
  }
  paused_ = opts_.start_paused;
  if (opts_.timeline != nullptr) {
    opts_.timeline->set_process_name("alchemist-svc");
    opts_.timeline->set_track_name(kAdmissionTid, "svc/jobs");
    for (std::size_t i = 0; i < opts_.workers; ++i) {
      opts_.timeline->set_track_name(
          kWorkerTidBase + static_cast<std::uint32_t>(i),
          "svc/worker" + std::to_string(i));
    }
  }
  workers_.reserve(opts_.workers);
  for (std::size_t i = 0; i < opts_.workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

JobRunner::~JobRunner() { shutdown(); }

void JobRunner::shutdown() {
  std::vector<JobPtr> orphans;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!stopping_) {
      stopping_ = true;
      paused_ = false;
      orphans = queue_.drain();
      // Running jobs stop cooperatively at their next simulator step.
      for (Job* j : running_) j->token_.request_cancel();
    }
  }
  work_cv_.notify_all();
  for (const JobPtr& job : orphans) {
    job->token_.request_cancel();
    finish(job, JobState::Cancelled, "cancelled: runner shutdown",
           sim::SimResult{}, job->spec_.resume_from, 0);
  }
  // Exactly one caller joins; late callers (including the destructor after
  // an explicit shutdown) block here until the workers are gone, so
  // shutdown() returning always means no worker thread is still running.
  std::lock_guard<std::mutex> jl(join_mu_);
  if (!joined_) {
    for (std::thread& t : workers_) t.join();
    joined_ = true;
  }
}

const std::string& JobRunner::metric_tenant(const std::string& tenant) const {
  static const std::string kOther = "_other";
  if (tenant.empty() || opts_.tenants.policies.count(tenant) != 0) return tenant;
  return kOther;
}

JobPtr JobRunner::submit(JobSpec spec) {
  if (!spec.graph) throw std::invalid_argument("svc: JobSpec.graph is null");
  if (spec.workload_class.empty()) spec.workload_class = spec.graph->name;
  if (spec.max_attempts == 0) spec.max_attempts = 1;
  auto job = std::make_shared<Job>(std::move(spec));
  const Clock::time_point now = Clock::now();
  job->submit_time_ = now;

  JobState rejected = JobState::Queued;  // sentinel: admitted
  const char* reason = nullptr;
  const std::string& tenant = job->spec_.tenant;
  const bool tenanted = !tenant.empty();
  {
    std::lock_guard<std::mutex> lk(mu_);
    const std::string& mtenant = metric_tenant(tenant);
    reg_.add(metrics::kSubmitted, 1);
    if (tenanted) reg_.add(metrics::kTenantSubmitted, 1, {{"tenant", mtenant}});
    job->seq_ = ++seq_;
    if (opts_.trace != nullptr) {
      // Mint (or join) the job's trace. Ids depend only on the trace seed and
      // the submission sequence, so the same submission order reproduces the
      // same trace ids for any worker count; a valid spec.trace joins an
      // existing trace instead (the checkpoint/resume continuation path).
      const std::uint64_t trace_id =
          job->spec_.trace.valid() ? job->spec_.trace.trace_id
                                   : obs::mint_trace_id(opts_.trace_seed ^ job->seq_);
      const std::uint64_t parent =
          job->spec_.trace.valid() ? job->spec_.trace.span_id : 0;
      job->trace_ctx_.trace_id = trace_id;
      job->trace_ctx_.parent_span = parent;
      job->trace_ctx_.span_id =
          obs::mint_span_id(trace_id, parent, "job", job->seq_);
      job->trace_submit_us_ = opts_.trace->now_us();
    }
    if (stopping_) {
      rejected = JobState::Shed;
      reason = "shutdown";
    } else {
      // Admission pipeline: breaker -> tenant quotas -> overload -> queue.
      // Each later rejection rolls back the side effects of earlier stages
      // (half-open probe slot, rate-limit token, in-flight count).
      //
      // Shed recovery must not depend on another dequeue: sojourn
      // observations are fed by workers picking jobs up, but at Level::Shed
      // every arrival is rejected before it can be queued, so once the
      // backlog drains no observation would ever arrive again and Shed
      // would be permanent. An empty queue *is* a zero standing delay —
      // feed that observation here, before consulting the level.
      if (queue_.empty()) overload_.observe(std::chrono::microseconds{0}, now);
      auto [it, inserted] = breakers_.try_emplace(
          breaker_key(tenant, job->spec_.workload_class),
          opts_.breaker_threshold, opts_.breaker_cooldown);
      (void)inserted;
      if (!it->second.allow(now)) {
        rejected = JobState::CircuitOpen;
        reason = "circuit_open";
      } else {
        const Admission::Verdict verdict = admission_.admit(tenant, now);
        if (verdict == Admission::Verdict::RateLimited) {
          rejected = JobState::QuotaExceeded;
          reason = "quota_rate";
          it->second.on_neutral(now);
        } else if (verdict == Admission::Verdict::ConcurrencyLimited) {
          rejected = JobState::QuotaExceeded;
          reason = "quota_concurrency";
          it->second.on_neutral(now);
        } else if (overload_.level() == OverloadController::Level::Shed) {
          rejected = JobState::Shed;
          reason = "overload";
          it->second.on_neutral(now);
          admission_.rollback(tenant, now);
        } else {
          const TenantPolicy& pol = admission_.policy(tenant);
          const FairQueue::PushResult pr =
              queue_.push(tenant, pol.weight, pol.max_backlog, job);
          if (pr != FairQueue::PushResult::Ok) {
            rejected = JobState::Shed;
            reason = pr == FairQueue::PushResult::TenantFull ? "tenant_queue_full"
                                                             : "queue_full";
            // allow() may have admitted this job as the half-open probe; it
            // will never run, so let the next submission probe instead.
            it->second.on_neutral(now);
            admission_.rollback(tenant, now);
          } else {
            reg_.add(metrics::kAdmitted, 1);
            if (tenanted) {
              reg_.add(metrics::kTenantAdmitted, 1, {{"tenant", mtenant}});
            }
            if (job->spec_.resume_from.valid()) reg_.add(metrics::kResumed, 1);
            if (job->spec_.deadline.count() > 0) {
              job->token_.set_deadline(now + job->spec_.deadline);
            }
            peak_depth_ = std::max(peak_depth_, queue_.size());
          }
        }
      }
      // A rejection must not leave behind a breaker minted for a tenant the
      // policy table does not name (the name is caller-controlled): if the
      // breaker is indistinguishable from a fresh one, drop it again.
      // Admitted jobs keep theirs — record_terminal() needs it for the
      // verdict, and re-evicts it there.
      if (rejected != JobState::Queued) maybe_evict_breaker(it, tenant);
    }
    if (rejected != JobState::Queued) {
      reg_.add(metrics::kRejected, 1, {{"reason", reason}});
      if (tenanted) {
        reg_.add(metrics::kTenantRejected, 1,
                 {{"reason", reason}, {"tenant", mtenant}});
      }
    }
    if (opts_.timeline != nullptr) {
      obs::TraceEvent ev;
      ev.name = "submit " + label_of(job->spec_, job->seq_);
      ev.cat = "svc";
      ev.tid = kAdmissionTid;
      ev.ts = ts_us(now);
      ev.dur = 0;
      ev.str_args = {{"outcome", reason == nullptr ? "admitted" : reason},
                     {"class", job->spec_.workload_class}};
      opts_.timeline->record(std::move(ev));
    }
  }
  if (rejected != JobState::Queued) {
    {
      // Not yet visible to any worker; safe to finalize directly.
      std::lock_guard<std::mutex> jl(job->mu_);
      job->state_ = rejected;
      job->error_ = std::string("rejected: ") + reason;
      job->summary_.trace_id = job->trace_ctx_.trace_id;
      job->summary_.root_span = job->trace_ctx_.span_id;
      job->cv_.notify_all();
    }
    if (opts_.trace != nullptr && job->trace_ctx_.valid()) {
      // Rejected jobs still leave a (zero-length) root span so shed storms
      // are visible in /tracez next to the work that did run.
      obs::SpanRecord s;
      s.trace_id = job->trace_ctx_.trace_id;
      s.span_id = job->trace_ctx_.span_id;
      s.parent_span = job->trace_ctx_.parent_span;
      s.name = "job";
      s.kind = "svc";
      s.track = "svc/job";
      s.ts = job->trace_submit_us_;
      s.dur = 0;
      s.attrs = {{"class", job->spec_.workload_class},
                 {"state", svc::to_string(rejected)},
                 {"reason", reason}};
      s.num_attrs = {{"seq", static_cast<double>(job->seq_)}};
      opts_.trace->record(std::move(s));
    }
    if (opts_.log != nullptr) {
      obs::LogEvent ev;
      ev.severity = obs::Severity::Warn;
      ev.component = "svc";
      ev.message = std::string("job rejected: ") + reason;
      ev.trace_id = job->trace_ctx_.trace_id;
      ev.span_id = job->trace_ctx_.span_id;
      ev.fields = {{"class", job->spec_.workload_class},
                   {"name", label_of(job->spec_, job->seq_)}};
      ev.num_fields = {{"seq", static_cast<double>(job->seq_)}};
      opts_.log->record(std::move(ev));
    }
  } else {
    if (opts_.log != nullptr) {
      obs::LogEvent ev;
      ev.severity = obs::Severity::Debug;
      ev.component = "svc";
      ev.message = "job admitted";
      ev.trace_id = job->trace_ctx_.trace_id;
      ev.span_id = job->trace_ctx_.span_id;
      ev.fields = {{"class", job->spec_.workload_class},
                   {"name", label_of(job->spec_, job->seq_)}};
      ev.num_fields = {{"seq", static_cast<double>(job->seq_)}};
      opts_.log->record(std::move(ev));
    }
    work_cv_.notify_one();
  }
  return job;
}

void JobRunner::drain() {
  std::unique_lock<std::mutex> lk(mu_);
  idle_cv_.wait(lk, [&] { return queue_.empty() && running_.empty(); });
}

void JobRunner::set_paused(bool paused) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    paused_ = paused;
  }
  work_cv_.notify_all();
}

obs::Registry JobRunner::snapshot() const {
  // Substrate counters are read outside mu_ (they have their own atomics) so
  // the svc.* snapshot carries the pool's substrate.* activity alongside it.
  obs::Registry substrate = obs::substrate_registry();
  std::lock_guard<std::mutex> lk(mu_);
  obs::Registry reg = reg_;
  reg.merge(substrate);
  reg.set_gauge(metrics::kQueueDepth, static_cast<double>(queue_.size()));
  reg.set_gauge(metrics::kQueueDepth, static_cast<double>(peak_depth_),
                {{"stat", "peak"}});
  reg.set_gauge(metrics::kWorkers, static_cast<double>(workers_.size()));
  admission_.for_each([&](const std::string& tenant, std::size_t in_flight) {
    if (tenant.empty()) return;
    reg.set_gauge(metrics::kTenantInFlight, static_cast<double>(in_flight),
                  {{"tenant", tenant}});
    reg.set_gauge(metrics::kTenantBacklog,
                  static_cast<double>(queue_.backlog(tenant)),
                  {{"tenant", tenant}});
  });
  if (opts_.overload.enabled) {
    reg.set_gauge(metrics::kOverloadLevel,
                  static_cast<double>(static_cast<int>(overload_.level())));
  }
  reg.set_gauge(metrics::kLatencyUs, percentile(latencies_us_, 50.0), {{"p", "50"}});
  reg.set_gauge(metrics::kLatencyUs, percentile(latencies_us_, 99.0), {{"p", "99"}});
  // Percentile gauges derived from every latency histogram, named
  // `<name>.pNN[{tags}]` per the registry naming rules so the Prometheus
  // families stay distinct from the histograms themselves.
  for (const auto& [key, hist] : reg.histograms()) {
    const std::size_t brace = key.find('{');
    const std::string name = key.substr(0, brace);
    const std::string tags =
        brace == std::string::npos ? std::string() : key.substr(brace);
    for (const auto& [suffix, p] :
         {std::pair<const char*, double>{".p50", 50.0},
          {".p95", 95.0},
          {".p99", 99.0}}) {
      reg.set_gauge_by_key(name + suffix + tags, hist.percentile(p));
    }
  }
  return reg;
}

OverloadController::Level JobRunner::overload_level() const {
  std::lock_guard<std::mutex> lk(mu_);
  return overload_.level();
}

std::map<std::string, CircuitBreaker::State> JobRunner::breaker_states() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::map<std::string, CircuitBreaker::State> out;
  for (const auto& [cls, breaker] : breakers_) out.emplace(cls, breaker.state());
  return out;
}

std::string JobRunner::status_json() const {
  using obs::json_number;
  using obs::json_string;
  // Substrate counters have their own atomics; read them outside mu_.
  const obs::Registry substrate = obs::substrate_registry();
  std::ostringstream out;
  std::lock_guard<std::mutex> lk(mu_);
  out << "{\n";
  out << "  \"workers\": " << json_number(static_cast<std::uint64_t>(workers_.size()))
      << ",\n";
  out << "  \"paused\": " << (paused_ ? "true" : "false") << ",\n";
  out << "  \"stopping\": " << (stopping_ ? "true" : "false") << ",\n";
  out << "  \"queue_depth\": "
      << json_number(static_cast<std::uint64_t>(queue_.size())) << ",\n";
  out << "  \"queue_capacity\": "
      << json_number(static_cast<std::uint64_t>(opts_.queue_capacity)) << ",\n";
  out << "  \"queue_peak\": "
      << json_number(static_cast<std::uint64_t>(peak_depth_)) << ",\n";
  out << "  \"running\": "
      << json_number(static_cast<std::uint64_t>(running_.size())) << ",\n";
  out << "  \"overload\": "
      << json_string(OverloadController::to_string(overload_.level())) << ",\n";
  out << "  \"tenants\": {";
  bool first_tenant = true;
  admission_.for_each([&](const std::string& tenant, std::size_t in_flight) {
    if (tenant.empty()) return;
    out << (first_tenant ? "\n" : ",\n");
    first_tenant = false;
    out << "    " << json_string(tenant) << ": {\"in_flight\": "
        << json_number(static_cast<std::uint64_t>(in_flight))
        << ", \"backlog\": "
        << json_number(static_cast<std::uint64_t>(queue_.backlog(tenant)))
        << "}";
  });
  out << (first_tenant ? "},\n" : "\n  },\n");
  out << "  \"breakers\": {";
  bool first = true;
  for (const auto& [cls, breaker] : breakers_) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "    " << json_string(cls) << ": " << json_string(to_string(breaker.state()));
  }
  out << (first ? "},\n" : "\n  },\n");
  // Memory-observability summary, present only once a mem-profiled job has
  // completed — unprofiled deployments keep their pre-existing /statusz shape.
  if (reg_.counters().count(sim::metrics::kMemBytes) != 0) {
    out << "  \"memory\": {\n";
    out << "    \"bytes\": "
        << json_number(reg_.counter(sim::metrics::kMemBytes)) << ",\n";
    out << "    \"key_fetches\": "
        << json_number(reg_.counter(sim::metrics::kMemKeyFetches)) << ",\n";
    out << "    \"key_bytes\": "
        << json_number(reg_.counter(sim::metrics::kMemKeyBytes)) << ",\n";
    out << "    \"key_refetch_bytes\": "
        << json_number(reg_.counter(sim::metrics::kMemKeyRefetchBytes))
        << ",\n";
    out << "    \"evictions\": "
        << json_number(reg_.counter(sim::metrics::kMemEvictions)) << ",\n";
    out << "    \"scratch_peak_bytes\": "
        << json_number(reg_.gauge(sim::metrics::kMemScratchPeak)) << ",\n";
    out << "    \"scratch_capacity_bytes\": "
        << json_number(reg_.gauge(sim::metrics::kMemScratchCapacity)) << "\n";
    out << "  },\n";
  }
  out << "  \"counters\": {";
  first = true;
  for (const auto& [key, value] : reg_.counters()) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "    " << json_string(key) << ": " << json_number(value);
  }
  out << (first ? "},\n" : "\n  },\n");
  out << "  \"substrate\": {";
  first = true;
  for (const auto& [key, value] : substrate.counters()) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "    " << json_string(key) << ": " << json_number(value);
  }
  for (const auto& [key, value] : substrate.gauges()) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "    " << json_string(key) << ": " << json_number(value);
  }
  out << (first ? "}\n" : "\n  }\n");
  out << "}\n";
  return out.str();
}

void JobRunner::worker_loop(std::size_t worker_id) {
  tls_worker = static_cast<int>(worker_id);
  for (;;) {
    JobPtr job;
    bool degrade = false;
    {
      std::unique_lock<std::mutex> lk(mu_);
      work_cv_.wait(lk, [&] { return stopping_ || (!paused_ && !queue_.empty()); });
      if (stopping_) return;  // shutdown() already drained the queue
      job = queue_.pop();
      running_.push_back(job.get());
      job->run_start_time_ = Clock::now();
      // Feed the overload ladder this job's queue sojourn; the level decided
      // here rides the job out of the lock as its degrade flag.
      const auto sojourn = std::chrono::duration_cast<std::chrono::microseconds>(
          job->run_start_time_ - job->submit_time_);
      const OverloadController::Level level =
          overload_.observe(sojourn, job->run_start_time_);
      degrade =
          job->spec_.degradable && level != OverloadController::Level::Normal;
      if (opts_.trace != nullptr && job->trace_ctx_.valid()) {
        job->trace_run_start_us_ = opts_.trace->now_us();
      }
    }
    if (opts_.trace != nullptr && job->trace_ctx_.valid()) {
      // Queue-wait span: admission stamp -> this dequeue, one per job.
      obs::TraceContext qc = obs::child_context(job->trace_ctx_, "queue", 0);
      obs::SpanRecord s;
      s.trace_id = qc.trace_id;
      s.span_id = qc.span_id;
      s.parent_span = qc.parent_span;
      s.name = "queue";
      s.kind = "svc";
      s.track = "svc/queue";
      s.ts = job->trace_submit_us_;
      s.dur = job->trace_run_start_us_ - job->trace_submit_us_;
      s.attrs = {{"class", job->spec_.workload_class}};
      s.num_attrs = {{"seq", static_cast<double>(job->seq_)}};
      opts_.trace->record(std::move(s));
    }
    run_job(job, degrade);
    {
      std::lock_guard<std::mutex> lk(mu_);
      running_.erase(std::find(running_.begin(), running_.end(), job.get()));
      if (queue_.empty() && running_.empty()) idle_cv_.notify_all();
    }
  }
}

void JobRunner::run_job(const JobPtr& job, bool degraded) {
  const JobSpec& spec = job->spec_;
  {
    std::lock_guard<std::mutex> lk(job->mu_);
    job->state_ = JobState::Running;
    job->degraded_ = degraded;
  }
  // Degraded service trims the retry budget to one attempt; the simulated
  // outcome of the attempt itself stays bit-identical (see sim::SimDetail).
  const std::size_t max_attempts = degraded ? 1 : spec.max_attempts;
  // The deadline (or a cancel) may have fired while the job sat in the queue.
  if (const sim::StopReason pre = job->token_.should_stop();
      pre != sim::StopReason::None) {
    finish(job,
           pre == sim::StopReason::Cancelled ? JobState::Cancelled
                                             : JobState::DeadlineExpired,
           std::string("stopped while queued: ") + sim::to_string(pre),
           sim::SimResult{}, spec.resume_from, 0);
    return;
  }

  BackoffConfig bc = opts_.backoff;
  bc.seed ^= 0x9e37'79b9'7f4a'7c15ull * job->seq_;  // per-job jitter stream
  Backoff backoff(bc);
  sim::Checkpoint cp = spec.resume_from;
  const bool tracing = opts_.trace != nullptr && job->trace_ctx_.valid();
  const std::string worker_track =
      "svc/worker" + std::to_string(tls_worker >= 0 ? tls_worker : 0);

  for (std::size_t attempt = 1;; ++attempt) {
    // Per-attempt span: minted from the attempt number, so the span tree is
    // identical however the attempts land on workers; only the track (which
    // worker ran it) and the wall timestamps vary.
    obs::TraceContext attempt_ctx;
    double attempt_start_us = 0;
    if (tracing) {
      attempt_ctx = obs::child_context(job->trace_ctx_, "attempt", attempt);
      attempt_start_us = opts_.trace->now_us();
    }
    auto record_attempt = [&](const char* outcome) {
      if (!tracing) return;
      obs::SpanRecord s;
      s.trace_id = attempt_ctx.trace_id;
      s.span_id = attempt_ctx.span_id;
      s.parent_span = attempt_ctx.parent_span;
      s.name = "attempt";
      s.kind = "svc";
      s.track = worker_track;
      s.ts = attempt_start_us;
      s.dur = opts_.trace->now_us() - attempt_start_us;
      s.attrs = {{"outcome", outcome}, {"class", spec.workload_class}};
      s.num_attrs = {{"attempt", static_cast<double>(attempt)},
                     {"seq", static_cast<double>(job->seq_)}};
      opts_.trace->record(std::move(s));
    };
    std::unique_ptr<fault::FaultModel> fault_model;
    const fault::FaultModel* fault = nullptr;
    if (spec.fault_enabled) {
      fault::FaultConfig fc = spec.fault;
      fc.seed = attempt_seed(spec.fault.seed, attempt);
      try {
        fault_model = std::make_unique<fault::FaultModel>(fc, spec.config.num_units);
      } catch (const std::exception& e) {
        record_attempt("bad-fault-config");
        finish(job, JobState::Failed,
               std::string("bad fault configuration: ") + e.what(),
               sim::SimResult{}, sim::Checkpoint{}, attempt);
        return;
      }
      fault = fault_model.get();
    }
    sim::SimControl ctl;
    ctl.cancel = &job->token_;
    ctl.max_steps = spec.max_steps;
    ctl.checkpoint_interval = spec.checkpoint_interval;
    ctl.checkpoint = &cp;
    ctl.trace = tracing ? opts_.trace : nullptr;
    ctl.trace_ctx = attempt_ctx;
    ctl.trace_detail = opts_.trace_detail;
    ctl.detail = degraded ? sim::SimDetail::Reduced : sim::SimDetail::Full;
    sim::UnitProfiler prof;
    sim::UnitProfiler* profiler = spec.profile && !degraded ? &prof : nullptr;
    sim::MemProfiler mem_prof;
    sim::MemProfiler* mem_profiler =
        spec.mem_profile && !degraded ? &mem_prof : nullptr;
    try {
      sim::SimResult result;
      {
        // Expose the attempt's context to the compute substrate: ThreadPool
        // fan-outs issued by the engine adopt it as their parent span.
        obs::ScopedTraceContext ambient(tracing ? opts_.trace : nullptr,
                                        attempt_ctx);
        result = spec.engine == Engine::Event
                     ? sim::simulate_alchemist_events(*spec.graph, spec.config,
                                                      nullptr, fault, &ctl,
                                                      profiler, mem_profiler)
                     : sim::simulate_alchemist(*spec.graph, spec.config, nullptr,
                                               fault, &ctl, profiler,
                                               mem_profiler);
      }
      if (result.registry.counter(fault::metrics::kCorruptedOps) == 0) {
        record_attempt("completed");
        finish(job, JobState::Completed, std::string(), std::move(result),
               sim::Checkpoint{}, attempt);
        return;
      }
      record_attempt("corrupted");
      // Injected faults corrupted the output: the run is useless. Retry with
      // a re-rolled seed (independent transients) or give up.
      if (attempt >= max_attempts) {
        finish(job, JobState::Failed,
               "output corrupted by injected faults after " +
                   std::to_string(attempt) + " attempt(s)",
               sim::SimResult{}, sim::Checkpoint{}, attempt);
        return;
      }
      {
        std::lock_guard<std::mutex> lk(mu_);
        reg_.add(metrics::kRetries, 1);
      }
      if (opts_.log != nullptr) {
        obs::LogEvent ev;
        ev.severity = obs::Severity::Info;
        ev.component = "svc";
        ev.message = "job retrying after fault-corrupted attempt";
        ev.trace_id = job->trace_ctx_.trace_id;
        ev.span_id = attempt_ctx.span_id;
        ev.fields = {{"class", spec.workload_class},
                     {"name", label_of(spec, job->seq_)}};
        ev.num_fields = {{"attempt", static_cast<double>(attempt)}};
        opts_.log->record(std::move(ev));
      }
      // Exponential backoff, sliced so cancellation stays responsive.
      const Clock::time_point backoff_start = Clock::now();
      const double backoff_start_us = tracing ? opts_.trace->now_us() : 0;
      std::uint64_t delay_us = backoff.next_us();
      while (delay_us > 0 && job->token_.should_stop() == sim::StopReason::None) {
        const std::uint64_t slice = std::min<std::uint64_t>(delay_us, 1000);
        std::this_thread::sleep_for(std::chrono::microseconds(slice));
        delay_us -= slice;
      }
      job->backoff_us_ += std::chrono::duration<double, std::micro>(
                              Clock::now() - backoff_start)
                              .count();
      if (tracing) {
        const obs::TraceContext bctx =
            obs::child_context(job->trace_ctx_, "backoff", attempt);
        obs::SpanRecord s;
        s.trace_id = bctx.trace_id;
        s.span_id = bctx.span_id;
        s.parent_span = bctx.parent_span;
        s.name = "backoff";
        s.kind = "svc";
        s.track = worker_track;
        s.ts = backoff_start_us;
        s.dur = opts_.trace->now_us() - backoff_start_us;
        s.attrs = {{"class", spec.workload_class}};
        s.num_attrs = {{"attempt", static_cast<double>(attempt)}};
        opts_.trace->record(std::move(s));
      }
      if (opts_.timeline != nullptr) {
        // Nests inside this job's run span on the worker's track.
        std::lock_guard<std::mutex> lk(mu_);
        obs::TraceEvent ev;
        ev.name = "retry " + label_of(spec, job->seq_);
        ev.cat = "svc.retry";
        ev.tid = tls_worker >= 0
                     ? kWorkerTidBase + static_cast<std::uint32_t>(tls_worker)
                     : kAdmissionTid;
        ev.ts = ts_us(backoff_start);
        ev.dur = ts_us(Clock::now()) - ev.ts;
        ev.num_args = {{"attempt", static_cast<double>(attempt)}};
        opts_.timeline->record(std::move(ev));
      }
      if (const sim::StopReason stop = job->token_.should_stop();
          stop != sim::StopReason::None) {
        finish(job,
               stop == sim::StopReason::Cancelled ? JobState::Cancelled
                                                  : JobState::DeadlineExpired,
               std::string("stopped during retry backoff: ") + sim::to_string(stop),
               sim::SimResult{}, std::move(cp), attempt);
        return;
      }
      // The next attempt re-rolls the fault seed, so any checkpoint from this
      // attempt (interval snapshots) no longer matches — restart clean.
      cp.clear();
    } catch (const sim::CancelledError& e) {
      const JobState st = e.reason() == sim::StopReason::Cancelled
                              ? JobState::Cancelled
                              : JobState::DeadlineExpired;
      record_attempt(st == JobState::Cancelled ? "cancelled" : "deadline-expired");
      finish(job, st, e.what(), sim::SimResult{}, std::move(cp), attempt);
      return;
    } catch (const sim::CheckpointError& e) {
      record_attempt("resume-failed");
      finish(job, JobState::Failed, std::string("resume failed: ") + e.what(),
             sim::SimResult{}, sim::Checkpoint{}, attempt);
      return;
    } catch (const std::exception& e) {
      // Malformed graphs and engine invariant violations are not retryable.
      record_attempt("error");
      finish(job, JobState::Failed, e.what(), sim::SimResult{}, sim::Checkpoint{},
             attempt);
      return;
    }
  }
}

void JobRunner::finish(const JobPtr& job, JobState state, std::string error,
                       sim::SimResult result, sim::Checkpoint checkpoint,
                       std::size_t attempts) {
  const Clock::time_point now = Clock::now();
  const bool has_checkpoint = checkpoint.valid();
  const double sim_us = state == JobState::Completed ? result.time_us : 0.0;
  const bool tracing = opts_.trace != nullptr && job->trace_ctx_.valid();
  const double end_us = tracing ? opts_.trace->now_us() : 0.0;
  // Account first, publish second: a caller woken by wait() must already see
  // this job in the svc.* counters when it snapshots the registry.
  {
    std::lock_guard<std::mutex> lk(mu_);
    record_terminal(*job, state, attempts, has_checkpoint, now, sim_us);
    if (state == JobState::Completed && result.mem_profile.enabled()) {
      fold_mem_profile(result.mem_profile);
    }
  }

  // Per-job digest of where the wall time went, published with the terminal
  // state so trace_summary() is complete the moment wait() returns.
  const bool ran = job->run_start_time_ != Clock::time_point{};
  TraceSummary summary;
  summary.trace_id = job->trace_ctx_.trace_id;
  summary.root_span = job->trace_ctx_.span_id;
  summary.total_us =
      std::chrono::duration<double, std::micro>(now - job->submit_time_).count();
  summary.queue_us =
      ran ? std::chrono::duration<double, std::micro>(job->run_start_time_ -
                                                      job->submit_time_)
                .count()
          : summary.total_us;
  summary.run_us =
      ran ? std::chrono::duration<double, std::micro>(now - job->run_start_time_)
                .count()
          : 0.0;
  summary.backoff_us = job->backoff_us_;
  summary.sim_us = sim_us;
  summary.attempts = attempts;
  summary.retries = attempts > 1 ? attempts - 1 : 0;
  summary.checkpoint_bytes = checkpoint.state.size();
  summary.degraded = job->degraded_;  // written by this worker in run_job()

  if (tracing) {
    // Root span: admission -> terminal, parent of queue/attempt/backoff.
    obs::SpanRecord s;
    s.trace_id = job->trace_ctx_.trace_id;
    s.span_id = job->trace_ctx_.span_id;
    s.parent_span = job->trace_ctx_.parent_span;
    s.name = "job";
    s.kind = "svc";
    s.track = "svc/job";
    s.ts = job->trace_submit_us_;
    s.dur = end_us - job->trace_submit_us_;
    s.attrs = {{"name", label_of(job->spec_, job->seq_)},
               {"class", job->spec_.workload_class},
               {"state", svc::to_string(state)},
               {"engine", job->spec_.engine == Engine::Event ? "event" : "level"}};
    s.num_attrs = {{"seq", static_cast<double>(job->seq_)},
                   {"attempts", static_cast<double>(attempts)},
                   {"checkpoint_bytes",
                    static_cast<double>(summary.checkpoint_bytes)}};
    opts_.trace->record(std::move(s));
  }
  if (opts_.log != nullptr) {
    obs::LogEvent ev;
    ev.severity = state == JobState::Completed ? obs::Severity::Info
                  : state == JobState::Failed  ? obs::Severity::Error
                                               : obs::Severity::Warn;
    ev.component = "svc";
    ev.message = std::string("job ") + svc::to_string(state);
    ev.trace_id = job->trace_ctx_.trace_id;
    ev.span_id = job->trace_ctx_.span_id;
    ev.fields = {{"class", job->spec_.workload_class},
                 {"name", label_of(job->spec_, job->seq_)}};
    if (!error.empty()) ev.fields.emplace_back("error", error);
    ev.num_fields = {{"attempts", static_cast<double>(attempts)},
                     {"total_us", summary.total_us},
                     {"sim_us", sim_us}};
    opts_.log->record(std::move(ev));
  }

  std::lock_guard<std::mutex> lk(job->mu_);
  job->state_ = state;
  job->error_ = std::move(error);
  job->result_ = std::move(result);
  job->checkpoint_ = std::move(checkpoint);
  job->attempts_ = attempts;
  job->summary_ = summary;
  job->cv_.notify_all();
}

void JobRunner::record_terminal(const Job& job, JobState state,
                                std::size_t attempts, bool has_checkpoint,
                                Clock::time_point now, double sim_us) {
  const Clock::time_point submit_time = job.submit_time_;
  const std::string& workload_class = job.spec_.workload_class;
  const std::string& tenant = job.spec_.tenant;
  const std::string& mtenant = metric_tenant(tenant);
  const bool tenanted = !tenant.empty();
  switch (state) {
    case JobState::Completed:
      reg_.add(metrics::kCompleted, 1);
      if (attempts > 1) reg_.add(metrics::kCompleted, 1, {{"retried", "true"}});
      break;
    case JobState::Failed:
      reg_.add(metrics::kFailed, 1);
      break;
    case JobState::Cancelled:
      reg_.add(metrics::kCancelled, 1);
      break;
    case JobState::DeadlineExpired:
      reg_.add(metrics::kDeadlineExpired, 1);
      break;
    default:
      break;  // Shed/CircuitOpen/QuotaExceeded are accounted at admission
  }
  if (tenanted) {
    reg_.add(metrics::kTenantTerminal, 1,
             {{"state", svc::to_string(state)}, {"tenant", mtenant}});
  }
  if (job.degraded_) {
    reg_.add(metrics::kDegraded, 1);
    if (tenanted) reg_.add(metrics::kTenantDegraded, 1, {{"tenant", mtenant}});
  }
  // Every job reaching record_terminal() was admitted (rejections finalize
  // inline in submit()), so its concurrency-quota slot is released here.
  admission_.release(tenant, now);
  if (has_checkpoint) reg_.add(metrics::kCheckpoints, 1);
  const double total_us =
      std::chrono::duration<double, std::micro>(now - submit_time).count();
  latencies_us_.push_back(total_us);

  // Latency histograms: wall-clock queue/run/total for every admitted job,
  // plus the deterministic simulated time of completed runs.
  const bool ran = job.run_start_time_ != Clock::time_point{};
  const double queue_us =
      ran ? std::chrono::duration<double, std::micro>(job.run_start_time_ -
                                                      submit_time)
                .count()
          : total_us;
  const double run_us =
      ran ? std::chrono::duration<double, std::micro>(now - job.run_start_time_)
                .count()
          : 0.0;
  const std::string_view cls = workload_class;
  reg_.observe(metrics::kLatencyQueueUs, queue_us);
  reg_.observe(metrics::kLatencyQueueUs, queue_us, {{"class", cls}});
  reg_.observe(metrics::kLatencyRunUs, run_us);
  reg_.observe(metrics::kLatencyRunUs, run_us, {{"class", cls}});
  reg_.observe(metrics::kLatencyTotalUs, total_us);
  reg_.observe(metrics::kLatencyTotalUs, total_us, {{"class", cls}});
  if (tenanted) {
    reg_.observe(metrics::kLatencyQueueUs, queue_us, {{"tenant", mtenant}});
    reg_.observe(metrics::kLatencyTotalUs, total_us, {{"tenant", mtenant}});
  }
  if (state == JobState::Completed) {
    reg_.observe(metrics::kLatencySimUs, sim_us);
    reg_.observe(metrics::kLatencySimUs, sim_us, {{"class", cls}});
  }

  if (opts_.timeline != nullptr && ran) {
    const std::uint32_t tid =
        tls_worker >= 0 ? kWorkerTidBase + static_cast<std::uint32_t>(tls_worker)
                        : kAdmissionTid;
    const double run_ts = ts_us(job.run_start_time_);
    const double run_dur = ts_us(now) - run_ts;
    obs::TraceEvent ev;
    ev.name = "run " + label_of(job.spec_, job.seq_);
    ev.cat = "svc.run";
    ev.tid = tid;
    ev.ts = run_ts;
    ev.dur = run_dur;
    ev.num_args = {{"queue_us", queue_us},
                   {"attempts", static_cast<double>(attempts)},
                   {"sim_us", sim_us}};
    ev.str_args = {{"state", svc::to_string(state)},
                   {"class", workload_class}};
    opts_.timeline->record(std::move(ev));
    if (job.trace_ctx_.valid()) {
      // Flow arrow keyed by the trace id: submit instant on the admission
      // track -> midpoint of the run slice on whichever worker ran the job,
      // so Perfetto draws the queue -> run handoff.
      obs::FlowEvent fs;
      fs.name = "job";
      fs.cat = "svc.flow";
      fs.id = job.trace_ctx_.trace_id;
      fs.tid = kAdmissionTid;
      fs.ts = ts_us(job.submit_time_);
      fs.phase = 's';
      obs::FlowEvent ff = fs;
      ff.tid = tid;
      ff.ts = run_ts + run_dur * 0.5;
      ff.phase = 'f';
      opts_.timeline->record_flow(std::move(fs));
      opts_.timeline->record_flow(std::move(ff));
    }
  }

  const auto it = breakers_.find(breaker_key(tenant, workload_class));
  if (it != breakers_.end()) {
    if (state == JobState::Completed) {
      it->second.on_success();
    } else if (state == JobState::Failed || state == JobState::DeadlineExpired) {
      it->second.on_failure(now);
    } else {
      it->second.on_neutral(now);
    }
    maybe_evict_breaker(it, tenant);
  }
}

void JobRunner::fold_mem_profile(const obs::MemoryProfile& m) {
  reg_.add(sim::metrics::kMemBytes, m.total_bytes);
  for (const auto& [operand, classes] : m.attributed) {
    for (const auto& [cls, bytes] : classes) {
      reg_.add(sim::metrics::kMemBytes, bytes,
               {{"class", cls}, {"operand", operand}});
    }
  }
  std::uint64_t fetches = 0;
  for (const auto& [id, k] : m.keys) fetches += k.fetches;
  reg_.add(sim::metrics::kMemKeyFetches, fetches);
  reg_.add(sim::metrics::kMemKeyBytes, m.key_fetch_bytes());
  reg_.add(sim::metrics::kMemKeyRefetchBytes, m.key_refetch_bytes());
  reg_.add(sim::metrics::kMemEvictions, m.evictions);
  // Peak is a high-water mark across every profiled job; capacity is a fixed
  // property of the arch config and last-write-wins is fine.
  const double peak = static_cast<double>(m.scratch_peak_bytes);
  if (peak > reg_.gauge(sim::metrics::kMemScratchPeak)) {
    reg_.set_gauge(sim::metrics::kMemScratchPeak, peak);
  }
  reg_.set_gauge(sim::metrics::kMemScratchCapacity,
                 static_cast<double>(m.scratch_capacity_bytes));
}

void JobRunner::maybe_evict_breaker(
    const std::map<std::string, CircuitBreaker>::iterator& it,
    const std::string& tenant) {
  // Breakers of tenants named in the policy table are bounded by
  // configuration and stay resident (introspection keeps listing them), as
  // do untenanted per-class breakers — the pre-tenancy dimension. For any
  // other tenant the key is caller-controlled, so a breaker that is
  // indistinguishable from a fresh one (closed, no failure streak) is
  // dropped rather than kept per historical tenant name forever.
  if (tenant.empty() || opts_.tenants.policies.count(tenant) != 0) return;
  if (it->second.state() == CircuitBreaker::State::Closed &&
      it->second.consecutive_failures() == 0) {
    breakers_.erase(it);
  }
}

}  // namespace alchemist::svc
