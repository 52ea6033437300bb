// Serving front end for the resilient simulation service (src/svc).
//
//   alchemist_serve [--workers N] [--jobs N] [--fault-rate R]
//                   [--deadline-ms D] [--queue N] [--seed S] [--threads N]
//                   [--introspect-port P] [--loop-seconds S] [--tenants N]
//
// Submits a mixed list of CKKS simulation jobs (both engines, a slice of
// them under an injected transient-fault model with a bounded retry budget,
// optionally under a wall-clock deadline) to a JobRunner with N workers and
// a bounded queue, waits for the pool to drain, and prints the report a
// serving deployment would scrape from the svc.* metrics: terminal-state
// partition, throughput, p50/p99 latency, and yield.
//
// --introspect-port starts the live introspection window (svc/introspect.h):
// /healthz, /metrics (Prometheus exposition of svc.latency.* histograms,
// svc.* counters and substrate.* activity), /statusz (JSON), /buildz (build
// provenance) and — when tracing is on — /tracez (recent + slowest spans)
// and /logz (flight-recorder tail). --loop-seconds keeps resubmitting the
// job list for at least S seconds so an external scraper has a running
// service to poll — CI's smoke job curls the endpoints mid-soak.
//
// Tracing (--trace-out, --timeline-out, or any --introspect-port) threads a
// TraceContext through every job: queue/attempt/backoff spans from the
// runner, per-level (or per-op, --trace-detail ops) spans from the engines,
// fan-out spans from the compute pool. --trace-out writes the spans.v1
// document; --timeline-out writes a Chrome trace with the span tracks merged
// in and per-job flow arrows (open in Perfetto).
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/simd.h"
#include "common/thread_pool.h"
#include "net/server.h"
#include "obs/log.h"
#include "obs/substrate_metrics.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "svc/introspect.h"
#include "svc/job_runner.h"
#include "workloads/ckks_workloads.h"

namespace {

using namespace alchemist;

// SIGINT/SIGTERM request a graceful drain: the handler only sets the flag
// (async-signal-safe); the main loop notices, stops accepting, checkpoints
// in-flight jobs, flushes metrics/trace output and exits 0.
volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

int usage() {
  std::fprintf(stderr,
               "usage: alchemist_serve [--workers N] [--jobs N] [--fault-rate R]\n"
               "       [--deadline-ms D] [--queue N] [--seed S] [--threads N]\n"
               "       [--isa scalar|avx2|avx512|avx512ifma|native]\n"
               "       [--introspect-port P] [--port P] [--loop-seconds S]\n"
               "       [--tenants N] [--trace-out PATH] [--timeline-out PATH]\n"
               "       [--trace-detail lifecycle|phases|ops]\n"
               "  --tenants N  spread the jobs round-robin over N tenants\n"
               "               (tenant-0..tenant-N-1) with unlimited policies:\n"
               "               per-tenant fair-queue lanes + svc.tenant.*\n"
               "               metrics with no admission rejections\n"
               "  --threads N  width of the shared compute pool the kernels of\n"
               "               every job fan out on (default: ALCHEMIST_THREADS\n"
               "               or hardware concurrency; 1 = sequential)\n"
               "  --isa I      force the SIMD dispatch of the NTT/accumulator\n"
               "               kernels (default: ALCHEMIST_ISA or best CPUID-\n"
               "               supported); the selection and per-kernel dispatch\n"
               "               counts surface as substrate.isa* in /metrics\n"
               "  --introspect-port P  serve /healthz /metrics /statusz /buildz\n"
               "               /tracez /logz on 127.0.0.1:P (0 = ephemeral; the\n"
               "               resolved port is printed)\n"
               "  --port P     serve the framed TCP job protocol (src/net) on\n"
               "               127.0.0.1:P (0 = ephemeral; resolved port is\n"
               "               printed); workloads pmult/hadd/rotation/keyswitch;\n"
               "               runs until SIGINT/SIGTERM (graceful drain) or\n"
               "               --loop-seconds expires\n"
               "  --loop-seconds S  resubmit the job list for at least S\n"
               "               seconds (soak mode for live scraping)\n"
               "  --mem-profile  run every job (batch and remote) with the\n"
               "               memory profiler attached: completed jobs fold\n"
               "               sim.mem.* series into /metrics and a memory\n"
               "               section into /statusz; results stay\n"
               "               bit-identical\n"
               "  --trace-out PATH  write the spans.v1 trace document\n"
               "  --timeline-out PATH  write a Chrome trace (Perfetto) with\n"
               "               job lifecycle slices, span tracks and per-job\n"
               "               queue->run flow arrows\n"
               "  --trace-detail  span volume from the simulator engines:\n"
               "               lifecycle (none), phases (per level; default),\n"
               "               ops (every scheduled meta-op)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t workers = 4, jobs = 32, queue = 64, tenants = 0;
  double fault_rate = 2e-9, deadline_ms = 0.0, loop_seconds = 0.0;
  int introspect_port = -1, net_port = -1;
  u64 seed = 0xa1c4'e5ull;
  bool mem_profile = false;
  std::string trace_out, timeline_out;
  obs::TraceDetail trace_detail = obs::TraceDetail::Phases;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workers") workers = static_cast<std::size_t>(std::atoll(next()));
    else if (arg == "--jobs") jobs = static_cast<std::size_t>(std::atoll(next()));
    else if (arg == "--queue") queue = static_cast<std::size_t>(std::atoll(next()));
    else if (arg == "--tenants") tenants = static_cast<std::size_t>(std::atoll(next()));
    else if (arg == "--fault-rate") fault_rate = std::atof(next());
    else if (arg == "--deadline-ms") deadline_ms = std::atof(next());
    else if (arg == "--seed") seed = static_cast<u64>(std::strtoull(next(), nullptr, 0));
    else if (arg == "--introspect-port") introspect_port = std::atoi(next());
    else if (arg == "--port") net_port = std::atoi(next());
    else if (arg == "--loop-seconds") loop_seconds = std::atof(next());
    else if (arg == "--mem-profile") mem_profile = true;
    else if (arg == "--trace-out") trace_out = next();
    else if (arg == "--timeline-out") timeline_out = next();
    else if (arg == "--trace-detail") {
      const std::string d = next();
      if (d == "lifecycle") trace_detail = obs::TraceDetail::Lifecycle;
      else if (d == "phases") trace_detail = obs::TraceDetail::Phases;
      else if (d == "ops") trace_detail = obs::TraceDetail::Ops;
      else return usage();
    }
    else if (arg == "--threads") {
      const long long t = std::atoll(next());
      if (t <= 0) return usage();
      ThreadPool::set_threads(static_cast<std::size_t>(t));
    }
    else if (arg == "--isa") {
      const char* value = next();
      try {
        simd::set_isa(simd::parse_isa(value));
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "invalid --isa value \"%s\": %s\n", value, e.what());
        return 2;
      }
    }
    else return usage();
  }
  if (workers == 0 || jobs == 0 || queue == 0) return usage();

  // A small mixed workload menu; shared_ptr so hundreds of jobs share graphs.
  const workloads::CkksWl w = workloads::CkksWl::paper(24);
  std::vector<std::shared_ptr<const metaop::OpGraph>> graphs;
  graphs.push_back(std::make_shared<metaop::OpGraph>(workloads::build_pmult(w)));
  graphs.push_back(std::make_shared<metaop::OpGraph>(workloads::build_hadd(w)));
  graphs.push_back(std::make_shared<metaop::OpGraph>(workloads::build_rotation(w)));
  graphs.push_back(std::make_shared<metaop::OpGraph>(workloads::build_keyswitch(w)));

  // Tracing + flight recorder: on whenever an output file or the live
  // introspection window wants them.
  const bool tracing =
      !trace_out.empty() || !timeline_out.empty() || introspect_port >= 0;
  obs::TraceSink trace_sink;
  obs::EventLog event_log;
  obs::Timeline timeline(!timeline_out.empty());

  svc::RunnerOptions opts;
  opts.workers = workers;
  opts.queue_capacity = queue;
  // Tenancy smoke mode: per-tenant lanes + svc.tenant.* metrics, but the
  // zero-initialized (unlimited) policy so no job is ever quota-rejected.
  for (std::size_t t = 0; t < tenants; ++t) {
    opts.tenants.policies["tenant-" + std::to_string(t)] = svc::TenantPolicy{};
  }
  if (tracing) {
    opts.trace = &trace_sink;
    opts.trace_detail = trace_detail;
    opts.log = &event_log;
    if (timeline.enabled()) opts.timeline = &timeline;
  }
  svc::JobRunner runner(opts);

  // Live introspection window: /metrics merges the runner's svc.* snapshot
  // (latency histograms included) with the shared pool's substrate.* view;
  // /tracez and /logz serve the span ring and the flight recorder live.
  std::unique_ptr<svc::IntrospectionServer> introspect;
  if (introspect_port >= 0) {
    svc::IntrospectionOptions iopts;
    iopts.trace = &trace_sink;
    iopts.log = &event_log;
    introspect = std::make_unique<svc::IntrospectionServer>(
        introspect_port,
        [&runner] {
          obs::Registry reg = runner.snapshot();
          reg.merge(obs::substrate_registry());
          return reg;
        },
        [&runner] { return runner.status_json(); }, iopts);
    if (!introspect->ok()) {
      std::fprintf(stderr, "introspection server failed: %s\n",
                   introspect->error().c_str());
      return 1;
    }
    std::printf(
        "introspection on http://127.0.0.1:%d "
        "(/healthz /metrics /statusz /buildz /tracez /logz)\n",
        introspect->port());
    std::fflush(stdout);
  }

  // Framed TCP job server (src/net): remote clients name catalog workloads
  // and submit with idempotency keys; resubmission after a torn connection is
  // exactly-once (re-attach or cached replay).
  std::unique_ptr<net::Server> net_server;
  if (net_port >= 0) {
    net::WorkloadCatalog catalog;
    catalog["pmult"] = graphs[0];
    catalog["hadd"] = graphs[1];
    catalog["rotation"] = graphs[2];
    catalog["keyswitch"] = graphs[3];
    net::ServerOptions nopts;
    nopts.port = net_port;
    nopts.mem_profile = mem_profile;
    if (tracing) {
      nopts.trace = &trace_sink;
      nopts.log = &event_log;
    }
    net_server =
        std::make_unique<net::Server>(runner, std::move(catalog), nopts);
    if (!net_server->start()) {
      std::fprintf(stderr, "job server failed: %s\n",
                   net_server->error().c_str());
      return 1;
    }
    std::printf("job server on 127.0.0.1:%d (protocol v%u, "
                "workloads pmult/hadd/rotation/keyswitch)\n",
                net_server->port(),
                static_cast<unsigned>(net::kProtocolVersion));
    std::fflush(stdout);
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<svc::JobPtr> handles;
  handles.reserve(jobs);
  std::size_t submitted_jobs = 0;
  const auto submit_batch = [&] {
    for (std::size_t i = 0; i < jobs; ++i, ++submitted_jobs) {
      svc::JobSpec spec;
      spec.name = "job-" + std::to_string(submitted_jobs);
      spec.graph = graphs[i % graphs.size()];
      spec.engine = (i % 2 == 0) ? svc::Engine::Level : svc::Engine::Event;
      spec.mem_profile = mem_profile;
      if (tenants > 0) spec.tenant = "tenant-" + std::to_string(i % tenants);
      if (fault_rate > 0 && i % 3 == 0) {
        spec.fault_enabled = true;
        spec.fault.seed = seed + submitted_jobs;
        spec.fault.compute_fault_rate = spec.fault.sram_fault_rate =
            spec.fault.hbm_fault_rate = fault_rate;
        spec.max_attempts = 3;
      }
      if (deadline_ms > 0) {
        spec.deadline =
            std::chrono::microseconds(static_cast<long long>(deadline_ms * 1000.0));
      }
      handles.push_back(runner.submit(std::move(spec)));
    }
  };
  submit_batch();
  runner.drain();
  while (g_stop == 0 && loop_seconds > 0 &&
         std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                 .count() < loop_seconds) {
    submit_batch();
    runner.drain();
  }
  // With the job server up and no bounded soak, keep serving until a signal
  // (or until --loop-seconds elapses when one was given).
  while (net_server != nullptr && g_stop == 0 &&
         (loop_seconds <= 0 ||
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                  .count() < loop_seconds)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  // Graceful drain, signal-initiated or natural end of the soak: stop
  // accepting (remote clients get a typed Draining frame), checkpoint and
  // terminate in-flight jobs, then fall through to flush metrics/trace and
  // exit 0. Remote retries land on the next instance via their idempotency
  // keys.
  const bool signalled = g_stop != 0;
  if (net_server != nullptr) net_server->drain("server draining");
  if (signalled) {
    std::printf("signal received: draining (checkpointing in-flight jobs)\n");
    runner.shutdown();  // cancels in-flight work; checkpoints land on handles
  } else {
    runner.drain();
  }
  if (net_server != nullptr) net_server->stop();
  const double wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
          .count();

  const obs::Registry reg = runner.snapshot();
  const u64 submitted = reg.counter(svc::metrics::kSubmitted);
  const u64 completed = reg.counter(svc::metrics::kCompleted);
  const u64 retried_ok = reg.counter(svc::metrics::kCompleted, {{"retried", "true"}});
  const u64 failed = reg.counter(svc::metrics::kFailed);
  const u64 cancelled = reg.counter(svc::metrics::kCancelled);
  const u64 expired = reg.counter(svc::metrics::kDeadlineExpired);
  const u64 rejected = reg.total_over_tags("svc.rejected{");
  const u64 retries = reg.counter(svc::metrics::kRetries);

  std::printf("alchemist_serve: %zu jobs, %zu workers, queue capacity %zu\n",
              submitted_jobs, workers, queue);
  std::printf("  completed          %llu  (%llu after retry, %llu sim retries)\n",
              static_cast<unsigned long long>(completed),
              static_cast<unsigned long long>(retried_ok),
              static_cast<unsigned long long>(retries));
  std::printf("  failed             %llu\n", static_cast<unsigned long long>(failed));
  std::printf("  cancelled          %llu\n", static_cast<unsigned long long>(cancelled));
  std::printf("  deadline-expired   %llu\n", static_cast<unsigned long long>(expired));
  std::printf("  shed / breaker     %llu\n", static_cast<unsigned long long>(rejected));
  std::printf("  wall               %.2f ms\n", wall_ms);
  std::printf("  throughput         %.0f jobs/s\n",
              static_cast<double>(submitted) * 1000.0 / wall_ms);
  std::printf("  latency p50/p99    %.2f / %.2f ms\n",
              reg.gauge(svc::metrics::kLatencyUs, {{"p", "50"}}) / 1000.0,
              reg.gauge(svc::metrics::kLatencyUs, {{"p", "99"}}) / 1000.0);
  for (const auto& [key, hist] : reg.histograms()) {
    if (key.rfind(std::string(svc::metrics::kLatencyTotalUs) + "{class=", 0) == 0 &&
        hist.count() > 0) {
      std::printf("  %-32s p50/p95/p99  %.2f / %.2f / %.2f ms  (n=%llu)\n",
                  key.c_str(), hist.percentile(50.0) / 1000.0,
                  hist.percentile(95.0) / 1000.0, hist.percentile(99.0) / 1000.0,
                  static_cast<unsigned long long>(hist.count()));
    }
  }
  std::printf("  yield              %.1f %%\n",
              100.0 * static_cast<double>(completed) / static_cast<double>(submitted));
  if (mem_profile) {
    std::printf("  memory             %llu HBM bytes (%llu key bytes, "
                "%llu re-fetched), scratch peak %.0f / %.0f bytes\n",
                static_cast<unsigned long long>(
                    reg.counter(sim::metrics::kMemBytes)),
                static_cast<unsigned long long>(
                    reg.counter(sim::metrics::kMemKeyBytes)),
                static_cast<unsigned long long>(
                    reg.counter(sim::metrics::kMemKeyRefetchBytes)),
                reg.gauge(sim::metrics::kMemScratchPeak),
                reg.gauge(sim::metrics::kMemScratchCapacity));
  }
  if (net_server != nullptr) {
    const obs::Registry net_reg = net_server->snapshot();
    std::printf("  net                %llu conns, %llu submits, %llu attached, "
                "%llu replayed, %llu results\n",
                static_cast<unsigned long long>(
                    net_reg.counter(net::metrics::kAccepted)),
                static_cast<unsigned long long>(
                    net_reg.counter(net::metrics::kSubmitted)),
                static_cast<unsigned long long>(
                    net_reg.counter(net::metrics::kAttached)),
                static_cast<unsigned long long>(
                    net_reg.counter(net::metrics::kReplayed)),
                static_cast<unsigned long long>(
                    net_reg.counter(net::metrics::kResults)));
  }
  if (signalled) {
    std::size_t checkpointed = 0;
    for (const svc::JobPtr& h : handles) {
      if (h->checkpoint().valid()) ++checkpointed;
    }
    std::printf("  drained            %zu in-flight job(s) left a checkpoint\n",
                checkpointed);
  }
  for (std::size_t t = 0; t < tenants; ++t) {
    const std::string name = "tenant-" + std::to_string(t);
    const auto& hist =
        reg.histogram(svc::metrics::kLatencyTotalUs, {{"tenant", name}});
    std::printf("  %-18s submitted %llu, completed %llu, p50/p99 %.2f / %.2f ms\n",
                name.c_str(),
                static_cast<unsigned long long>(reg.counter(
                    svc::metrics::kTenantSubmitted, {{"tenant", name}})),
                static_cast<unsigned long long>(
                    reg.counter(svc::metrics::kTenantTerminal,
                                {{"state", "completed"}, {"tenant", name}})),
                hist.percentile(50.0) / 1000.0, hist.percentile(99.0) / 1000.0);
  }

  if (tracing) {
    // Flight-recorder digest: span/log volume plus the slowest job's
    // per-stage TraceSummary, so the trace id to chase is in the output.
    std::printf("  spans              %llu recorded, %llu dropped; "
                "%llu log events\n",
                static_cast<unsigned long long>(trace_sink.recorded()),
                static_cast<unsigned long long>(trace_sink.dropped()),
                static_cast<unsigned long long>(event_log.recorded()));
    const svc::Job* slowest = nullptr;
    svc::TraceSummary slow{};
    for (const svc::JobPtr& h : handles) {
      const svc::TraceSummary s = h->trace_summary();
      if (slowest == nullptr || s.total_us > slow.total_us) {
        slowest = h.get();
        slow = s;
      }
    }
    if (slowest != nullptr) {
      std::printf("  slowest trace      0x%016llx  queue %.2f ms, run %.2f ms "
                  "(backoff %.2f, sim %.2f), %zu attempt(s), %llu ckpt bytes\n",
                  static_cast<unsigned long long>(slow.trace_id),
                  slow.queue_us / 1000.0, slow.run_us / 1000.0,
                  slow.backoff_us / 1000.0, slow.sim_us / 1000.0, slow.attempts,
                  static_cast<unsigned long long>(slow.checkpoint_bytes));
    }
  }
  if (!trace_out.empty()) {
    if (!obs::write_spans_file(trace_out, trace_sink, "alchemist_serve")) {
      std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
      return 1;
    }
    std::printf("  trace              %s (spans.v1)\n", trace_out.c_str());
  }
  if (!timeline_out.empty()) {
    obs::merge_spans_into_timeline(trace_sink.snapshot(), timeline);
    std::ofstream f(timeline_out);
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", timeline_out.c_str());
      return 1;
    }
    timeline.write_chrome_trace(f);
    std::printf("  timeline           %s (chrome trace + span tracks + flows)\n",
                timeline_out.c_str());
  }

  // The terminal-state counters must partition svc.submitted, and every
  // handle must have reached a terminal state once drain() returned.
  if (completed + failed + cancelled + expired + rejected != submitted) {
    std::fprintf(stderr, "terminal-state counters do not partition submitted\n");
    return 1;
  }
  for (const svc::JobPtr& h : handles) {
    if (!h->terminal()) {
      std::fprintf(stderr, "job %s not terminal after drain\n", h->spec().name.c_str());
      return 1;
    }
  }
  return 0;
}
