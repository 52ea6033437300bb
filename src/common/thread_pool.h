// Process-wide worker pool for the parallel lazy-reduction substrate.
//
// The paper keeps 128 hardware units busy by fanning the Meta-OP out over RNS
// channels; this is the software analogue. One fixed set of worker threads is
// shared by every functional kernel (NTT, elementwise ring ops, Bconv,
// keyswitch digits) *and* by the serving layer's jobs, so intra-job
// parallelism composes with job-level workers without spawning threads per
// call or oversubscribing the machine.
//
// Determinism contract: parallel_for(n, grain, fn) partitions [0, n) into
// contiguous chunks and runs fn(begin, end) on each exactly once. Every
// substrate kernel writes only to slots owned by its index range and all
// arithmetic is exact mod q, so results are bit-identical for every thread
// count (including ALCHEMIST_THREADS=1, which runs everything inline).
//
// Nested calls — a kernel invoked from inside another fan-out's chunk, e.g. a
// weighted_sum under a parallelized Bconv target loop — run inline on the
// executing lane instead of re-entering the queue. The caller thread counts
// as a lane while it executes chunks, so nesting behaves identically no
// matter which lane claims a chunk (keeping the substrate.* counters exact
// for a fixed pool width), deadlock is impossible, and the thread count is
// bounded at pool size + concurrent external callers.
//
// Grain rule: a fan-out pays a task allocation and a wake-up, which costs
// more than one N = 256 channel NTT. So fan-outs over coefficients or RNS
// channels give each chunk at least kMinChunkCoeffs coefficients of work:
// flattened coefficient loops pass kMinChunkCoeffs itself, and loops over
// channels of degree N pass channel_grain(N). A call whose whole range is
// within one grain runs inline and counts as an inline run. So the channel
// loops of the N = 256 bootstrapping rings run inline, while N = 2048 loops
// over more than four channels still fan out. Chunk boundaries never change
// a result, so the rule only moves time.
//
// Thread-count control, in precedence order: ThreadPool::set_threads() (CLI
// flags), the ALCHEMIST_THREADS environment variable, hardware concurrency.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace alchemist {

// Substrate kernels with a per-kernel wall-time counter (substrate.kernel_ns).
enum class Kernel : std::uint8_t {
  NttFwd,
  NttInv,
  Elementwise,
  WeightedSum,
  BConv,
  Keyswitch,
  kCount,
};

const char* kernel_name(Kernel k);

// Point-in-time copy of the substrate accounting. obs/substrate_metrics.h
// renders this as substrate.* metrics in a PR-1 telemetry Registry.
struct SubstrateStats {
  std::size_t threads = 1;          // pool width incl. the calling thread
  std::uint64_t parallel_fors = 0;  // calls that fanned out to the pool
  std::uint64_t inline_runs = 0;    // calls run sequentially (1 thread, small n, nested)
  std::uint64_t tasks = 0;          // chunks executed across all fan-outs
  // (kernel name, cumulative wall ns) for every kernel that ran.
  std::vector<std::pair<std::string, std::uint64_t>> kernel_ns;
};

class ThreadPool {
 public:
  using RangeFn = std::function<void(std::size_t, std::size_t)>;

  // The process-wide pool. Created on first use with set_threads() /
  // ALCHEMIST_THREADS / hardware-concurrency sizing.
  static ThreadPool& instance();

  // Resize the process-wide pool (0 = hardware concurrency). Joins the old
  // workers; only legal while no parallel_for is in flight.
  static void set_threads(std::size_t n);

  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Pool width including the calling thread: parallel_for(n >= width) keeps
  // `width` chunks in flight at once.
  std::size_t num_threads() const { return workers_.size() + 1; }

  // Run fn over contiguous chunks partitioning [0, n); at most `grain`-ish
  // elements of slack per chunk boundary (chunks are n/chunk_count sized, and
  // never smaller than forced by `grain`). Blocks until every chunk ran; the
  // caller participates. Exceptions from fn are rethrown (first one wins)
  // after all chunks finish.
  void parallel_for(std::size_t n, std::size_t grain, const RangeFn& fn);

  // True on a pool worker thread (nested parallel_for will run inline).
  static bool on_worker_thread();

  void record_kernel_ns(Kernel k, std::uint64_t ns);
  SubstrateStats stats() const;

 private:
  struct Task;
  void worker_loop();
  // Claim and run chunks of t until none remain; returns chunks executed.
  std::uint64_t run_chunks(Task& t);

  mutable std::mutex mu_;  // guards tasks_ and stop_
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Task>> tasks_;
  bool stop_ = false;

  std::atomic<std::uint64_t> parallel_fors_{0};
  std::atomic<std::uint64_t> inline_runs_{0};
  std::atomic<std::uint64_t> tasks_run_{0};
  std::atomic<std::uint64_t> kernel_ns_[static_cast<std::size_t>(Kernel::kCount)] = {};

  std::vector<std::thread> workers_;
};

// The least work, in coefficients, worth a chunk of a fan-out.
inline constexpr std::size_t kMinChunkCoeffs = std::size_t{1} << 13;

// Grain of a fan-out over RNS channels of degree n: enough channels per
// chunk to reach kMinChunkCoeffs coefficients.
constexpr std::size_t channel_grain(std::size_t n) {
  return std::max<std::size_t>(1, kMinChunkCoeffs / n);
}

// Chunked fan-out over [0, n) on the process-wide pool.
inline void parallel_for(std::size_t n, std::size_t grain,
                         const ThreadPool::RangeFn& fn) {
  ThreadPool::instance().parallel_for(n, grain, fn);
}

// RAII wall-clock timer feeding substrate.kernel_ns{kernel=...}: the time
// its thread spends in the kernel. On each thread only the outermost timer
// of a kernel records, so a kernel never double counts itself. Timers of
// different kernels nest and all record: a keyswitch's time includes the
// NTTs and BConvs it runs, which are counted under their own kernels too.
// The NTT and BConv kernels open their timers inside their fan-out chunks,
// so their totals are summed lane time wherever they run; a timer opened
// around a fan-out records the caller's wall time instead.
class KernelTimer {
 public:
  explicit KernelTimer(Kernel k);
  ~KernelTimer();
  KernelTimer(const KernelTimer&) = delete;
  KernelTimer& operator=(const KernelTimer&) = delete;

 private:
  Kernel kernel_;
  bool active_ = false;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace alchemist
