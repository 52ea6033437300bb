#include "common/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <stdexcept>

// Header-only pieces of the trace substrate (TraceSink::record and the
// ambient thread-local are inline), so adopting the submitting span's context
// adds no link dependency on the obs library.
#include "obs/trace.h"

namespace alchemist {

namespace {

// Workers mark themselves so nested parallel_for calls run inline.
thread_local bool t_on_worker = false;

// Singleton storage: a unique_ptr so set_threads can rebuild the pool, plus
// an atomic fast-path pointer so instance() costs one acquire-load on the
// (hot) kernel paths once the pool exists.
std::mutex g_pool_mu;
std::atomic<ThreadPool*> g_pool{nullptr};
std::unique_ptr<ThreadPool>& pool_slot() {
  static std::unique_ptr<ThreadPool> slot;
  return slot;
}

std::size_t& requested_threads() {
  static std::size_t requested = 0;  // 0 = resolve from env / hardware
  return requested;
}

std::size_t resolve_thread_count(std::size_t requested) {
  if (requested == 0) {
    if (const char* env = std::getenv("ALCHEMIST_THREADS")) {
      char* end = nullptr;
      const long v = std::strtol(env, &end, 10);
      if (end != env && *end == '\0' && v >= 1) requested = static_cast<std::size_t>(v);
    }
  }
  if (requested == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    requested = hw == 0 ? 1 : hw;
  }
  return std::min<std::size_t>(requested, 64);
}

}  // namespace

const char* kernel_name(Kernel k) {
  switch (k) {
    case Kernel::NttFwd: return "ntt_fwd";
    case Kernel::NttInv: return "ntt_inv";
    case Kernel::Elementwise: return "elementwise";
    case Kernel::WeightedSum: return "weighted_sum";
    case Kernel::BConv: return "bconv";
    case Kernel::Keyswitch: return "keyswitch";
    case Kernel::kCount: break;
  }
  return "unknown";
}

// One parallel_for fan-out: workers (and the caller) claim chunk indices from
// `next` until exhausted; the last finisher signals `done_cv`.
struct ThreadPool::Task {
  std::size_t n = 0;
  std::size_t chunks = 0;
  const RangeFn* fn = nullptr;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::mutex done_mu;  // also guards `error`
  std::condition_variable done_cv;
  std::exception_ptr error;
};

ThreadPool& ThreadPool::instance() {
  if (ThreadPool* p = g_pool.load(std::memory_order_acquire)) return *p;
  std::lock_guard<std::mutex> lk(g_pool_mu);
  if (!pool_slot()) {
    pool_slot() = std::make_unique<ThreadPool>(resolve_thread_count(requested_threads()));
    g_pool.store(pool_slot().get(), std::memory_order_release);
  }
  return *pool_slot();
}

void ThreadPool::set_threads(std::size_t n) {
  std::lock_guard<std::mutex> lk(g_pool_mu);
  requested_threads() = n;
  const std::size_t resolved = resolve_thread_count(n);
  if (pool_slot() && pool_slot()->num_threads() == resolved) return;
  // Rebuild, carrying the accumulated substrate counters across so telemetry
  // stays monotonic over a resize.
  SubstrateStats carry;
  if (pool_slot()) carry = pool_slot()->stats();
  g_pool.store(nullptr, std::memory_order_release);
  pool_slot().reset();  // joins the old workers
  pool_slot() = std::make_unique<ThreadPool>(resolved);
  ThreadPool& pool = *pool_slot();
  pool.parallel_fors_.store(carry.parallel_fors, std::memory_order_relaxed);
  pool.inline_runs_.store(carry.inline_runs, std::memory_order_relaxed);
  pool.tasks_run_.store(carry.tasks, std::memory_order_relaxed);
  for (const auto& [name, ns] : carry.kernel_ns) {
    for (std::size_t k = 0; k < static_cast<std::size_t>(Kernel::kCount); ++k) {
      if (name == kernel_name(static_cast<Kernel>(k))) {
        pool.kernel_ns_[k].store(ns, std::memory_order_relaxed);
      }
    }
  }
  g_pool.store(&pool, std::memory_order_release);
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) throw std::invalid_argument("ThreadPool: threads must be >= 1");
  workers_.reserve(threads - 1);  // the caller is the extra lane
  for (std::size_t i = 0; i + 1 < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

bool ThreadPool::on_worker_thread() { return t_on_worker; }

void ThreadPool::parallel_for(std::size_t n, std::size_t grain, const RangeFn& fn) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  const std::size_t width = num_threads();
  // Fan-out tracing: top-level calls on a traced thread record one child span
  // of the ambient context (obs/trace.h). Only top-level calls mint spans —
  // nested fan-outs run inline on whichever lane claimed the chunk, so their
  // ordinals would depend on scheduling. The ordinal counter lives in the
  // ambient scope and the owning thread issues fan-outs sequentially, so the
  // k-th fan-out of a job always mints the same span id regardless of pool
  // width (the inline fast path below records the same span).
  obs::AmbientTrace& ambient = obs::ambient_trace();
  const bool span_this = !t_on_worker && ambient.active();
  obs::TraceContext span_ctx;
  double span_start = 0;
  if (span_this) {
    span_ctx = obs::child_context(ambient.ctx, "parallel_for",
                                  ambient.next_ordinal++);
    span_start = ambient.sink->now_us();
  }
  auto record_span = [&](std::size_t chunks) {
    if (!span_this) return;
    obs::SpanRecord s;
    s.trace_id = span_ctx.trace_id;
    s.span_id = span_ctx.span_id;
    s.parent_span = span_ctx.parent_span;
    s.name = "parallel_for";
    s.kind = "pool";
    s.track = "pool";
    s.clock = obs::SpanClock::WallUs;
    s.ts = span_start;
    s.dur = ambient.sink->now_us() - span_start;
    s.num_attrs = {{"n", static_cast<double>(n)},
                   {"chunks", static_cast<double>(chunks)},
                   {"width", static_cast<double>(width)}};
    ambient.sink->record(std::move(s));
  };
  if (width == 1 || n <= grain || t_on_worker) {
    inline_runs_.fetch_add(1, std::memory_order_relaxed);
    fn(0, n);
    record_span(1);
    return;
  }
  auto task = std::make_shared<Task>();
  task->n = n;
  // Chunks: enough for ~4 per lane (work stealing evens out imbalance), but
  // never smaller than `grain` elements each. The chunk boundaries depend
  // only on (n, chunks), never on scheduling.
  task->chunks = std::min((n + grain - 1) / grain, width * 4);
  task->fn = &fn;
  {
    std::lock_guard<std::mutex> lk(mu_);
    tasks_.push_back(task);
  }
  cv_.notify_all();
  parallel_fors_.fetch_add(1, std::memory_order_relaxed);
  // The caller is one of the lanes. Mark it as a worker for the duration so
  // a nested parallel_for inside its chunks runs inline exactly like it does
  // on pool workers — otherwise the substrate counters (and the fan-out
  // shape) would depend on which lane happened to claim which chunk.
  const bool was_worker = t_on_worker;
  t_on_worker = true;
  run_chunks(*task);
  t_on_worker = was_worker;
  {
    std::unique_lock<std::mutex> lk(task->done_mu);
    task->done_cv.wait(lk, [&] { return task->done.load(std::memory_order_acquire) ==
                                        task->chunks; });
  }
  {
    // All chunks claimed and finished: retire the task from the queue.
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = std::find(tasks_.begin(), tasks_.end(), task);
    if (it != tasks_.end()) tasks_.erase(it);
  }
  record_span(task->chunks);
  if (task->error) std::rethrow_exception(task->error);
}

std::uint64_t ThreadPool::run_chunks(Task& t) {
  std::uint64_t ran = 0;
  for (;;) {
    const std::size_t c = t.next.fetch_add(1, std::memory_order_relaxed);
    if (c >= t.chunks) break;
    const std::size_t begin = t.n * c / t.chunks;
    const std::size_t end = t.n * (c + 1) / t.chunks;
    try {
      (*t.fn)(begin, end);
    } catch (...) {
      std::lock_guard<std::mutex> lk(t.done_mu);
      if (!t.error) t.error = std::current_exception();
    }
    ++ran;
    if (t.done.fetch_add(1, std::memory_order_acq_rel) + 1 == t.chunks) {
      std::lock_guard<std::mutex> lk(t.done_mu);
      t.done_cv.notify_all();
    }
  }
  if (ran != 0) tasks_run_.fetch_add(ran, std::memory_order_relaxed);
  return ran;
}

void ThreadPool::worker_loop() {
  t_on_worker = true;
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    std::shared_ptr<Task> task;
    cv_.wait(lk, [&] {
      if (stop_) return true;
      for (const auto& t : tasks_) {
        if (t->next.load(std::memory_order_relaxed) < t->chunks) {
          task = t;
          return true;
        }
      }
      return false;
    });
    if (stop_) return;
    lk.unlock();
    run_chunks(*task);
    task.reset();
    lk.lock();
  }
}

void ThreadPool::record_kernel_ns(Kernel k, std::uint64_t ns) {
  kernel_ns_[static_cast<std::size_t>(k)].fetch_add(ns, std::memory_order_relaxed);
}

SubstrateStats ThreadPool::stats() const {
  SubstrateStats s;
  s.threads = num_threads();
  s.parallel_fors = parallel_fors_.load(std::memory_order_relaxed);
  s.inline_runs = inline_runs_.load(std::memory_order_relaxed);
  s.tasks = tasks_run_.load(std::memory_order_relaxed);
  for (std::size_t k = 0; k < static_cast<std::size_t>(Kernel::kCount); ++k) {
    const std::uint64_t ns = kernel_ns_[k].load(std::memory_order_relaxed);
    if (ns != 0) s.kernel_ns.emplace_back(kernel_name(static_cast<Kernel>(k)), ns);
  }
  return s;
}

namespace {
// Open timers per kernel on this thread.
thread_local int t_timer_depth[static_cast<std::size_t>(Kernel::kCount)] = {};
}  // namespace

KernelTimer::KernelTimer(Kernel k) : kernel_(k) {
  // Only the outermost timer of a kernel records.
  if (t_timer_depth[static_cast<std::size_t>(k)]++ != 0) return;
  active_ = true;
  start_ = std::chrono::steady_clock::now();
}

KernelTimer::~KernelTimer() {
  --t_timer_depth[static_cast<std::size_t>(kernel_)];
  if (!active_) return;
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::steady_clock::now() - start_);
  ThreadPool::instance().record_kernel_ns(kernel_, static_cast<std::uint64_t>(ns.count()));
}

}  // namespace alchemist
