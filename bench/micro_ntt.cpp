// Microbenchmarks of the NTT substrate: single-step vs 4-step, the RNS base
// conversion, and the parallel lazy-reduction substrate — eager vs Harvey
// lazy butterflies, and 1..N-thread scaling of the pooled multi-limb paths.
//
// Modes:
//   (default)                google-benchmark wall-clock suite; per-ISA
//                            NTT variants are registered for every SIMD
//                            level this host supports
//   --threads N              set the substrate pool width first (any mode)
//   --isa NAME               force the SIMD dispatch (scalar|avx2|avx512|
//                            avx512ifma|native); exits 2 if unknown or
//                            unsupported
//   --metrics-out FILE       skip the benchmark loops; run a fixed, seeded
//                            workload per supported ISA and emit
//                            alchemist.metrics.v1. The substrate.* chunk/
//                            fan-out/dispatch counters are exact for a given
//                            --threads value, so CI gates them with
//                            tools/check_bench_baseline.py; wall-clock rows
//                            are named *wall_ns and excluded via --ignore,
//                            and the avx2/avx512/avx512ifma runs are
//                            host-dependent so the gate treats them as
//                            --optional.
//   --smoke                  1-vs-2-thread + lazy-vs-eager + per-ISA
//                            bit-identity assertions, the narrow kernels
//                            included; exit non-zero on mismatch.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/primes.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "obs/report.h"
#include "obs/substrate_metrics.h"
#include "poly/lazy_kernels.h"
#include "poly/ntt.h"
#include "poly/rns.h"

namespace {

using namespace alchemist;

constexpr simd::Isa kAllIsas[] = {simd::Isa::Scalar, simd::Isa::Avx2, simd::Isa::Avx512,
                                  simd::Isa::Avx512Ifma};

void BM_NttForward(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const u64 q = max_ntt_prime(50, n);
  const NttTable& table = get_ntt_table(q, n);
  Rng rng(n);
  std::vector<u64> a = rng.uniform_vector(n, q);
  for (auto _ : state) {
    table.forward(a);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_NttForward)->Arg(1024)->Arg(4096)->Arg(16384)->Arg(65536);

// Eager reference butterflies (canonical [0, q) at every stage) on the same
// inputs as BM_NttForward — the ratio is the lazy-reduction win.
void BM_NttForwardEager(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const u64 q = max_ntt_prime(50, n);
  const NttTable& table = get_ntt_table(q, n);
  Rng rng(n);
  std::vector<u64> a = rng.uniform_vector(n, q);
  for (auto _ : state) {
    table.forward_eager(a);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_NttForwardEager)->Arg(1024)->Arg(4096)->Arg(16384)->Arg(65536);

void BM_NttInverse(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const u64 q = max_ntt_prime(50, n);
  const NttTable& table = get_ntt_table(q, n);
  Rng rng(n);
  std::vector<u64> a = rng.uniform_vector(n, q);
  for (auto _ : state) {
    table.inverse(a);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_NttInverse)->Arg(4096)->Arg(65536);

void BM_NttInverseEager(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const u64 q = max_ntt_prime(50, n);
  const NttTable& table = get_ntt_table(q, n);
  Rng rng(n);
  std::vector<u64> a = rng.uniform_vector(n, q);
  for (auto _ : state) {
    table.inverse_eager(a);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_NttInverseEager)->Arg(4096)->Arg(65536);

// Forced-ISA forward/inverse at the paper's workhorse size. Registered from
// main() for each variant this host supports, so one run prints the
// scalar-lazy vs AVX2 vs AVX-512 vs AVX-512 IFMA column of the Performance
// table (compare against BM_NttForwardEager for the eager baseline).
void BM_NttForwardIsa(benchmark::State& state, simd::Isa isa) {
  const std::size_t n = 16384;
  const u64 q = max_ntt_prime(50, n);
  const NttTable& table = get_ntt_table(q, n);
  Rng rng(n);
  std::vector<u64> a = rng.uniform_vector(n, q);
  for (auto _ : state) {
    table.forward(a, isa);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}

void BM_NttInverseIsa(benchmark::State& state, simd::Isa isa) {
  const std::size_t n = 16384;
  const u64 q = max_ntt_prime(50, n);
  const NttTable& table = get_ntt_table(q, n);
  Rng rng(n);
  std::vector<u64> a = rng.uniform_vector(n, q);
  for (auto _ : state) {
    table.inverse(a, isa);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}

// The CKKS DecompPolyMult and BConv sums at the ckks_helr shape: six rows
// (alpha = K = 6) of N = 2048 residues of a 50-bit prime into one channel.
struct SumRows {
  static constexpr std::size_t kN = 2048, kRows = 6;
  u64 q = max_ntt_prime(50, kN);
  std::vector<std::vector<u64>> a, b;
  std::vector<const u64*> ap, bp;
  std::vector<u64> w, out = std::vector<u64>(kN);

  SumRows() {
    Rng rng(kN);
    for (std::size_t t = 0; t < kRows; ++t) {
      a.push_back(rng.uniform_vector(kN, q));
      b.push_back(rng.uniform_vector(kN, q));
    }
    for (std::size_t t = 0; t < kRows; ++t) {
      ap.push_back(a[t].data());
      bp.push_back(b[t].data());
    }
    w = rng.uniform_vector(kRows, q);
  }
};

void BM_MulSumIsa(benchmark::State& state, simd::Isa isa) {
  SumRows s;
  for (auto _ : state) {
    simd::mul_sum(s.ap.data(), s.bp.data(), s.kRows, s.kN, s.q, s.out.data(), isa);
    benchmark::DoNotOptimize(s.out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(s.kRows * s.kN));
}

void BM_WeightedSumIsa(benchmark::State& state, simd::Isa isa) {
  SumRows s;
  for (auto _ : state) {
    simd::weighted_sum(s.ap.data(), s.w.data(), s.kRows, s.kN, s.q, s.q, s.out.data(), isa);
    benchmark::DoNotOptimize(s.out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(s.kRows * s.kN));
}

// The TFHE external product's narrow kernels at set I's shape: N = 1024, a
// 30-bit prime, and (k+1)*l = 6 digit rows per MAC.
struct NarrowRows {
  static constexpr std::size_t kN = 1024, kRows = 6;
  u32 p = static_cast<u32>(max_ntt_prime(30, kN));
  NarrowNttTable table{p, kN};
  std::vector<std::vector<u32>> rows;
  std::vector<const u32*> ptrs;
  std::vector<u32> out = std::vector<u32>(kN);

  NarrowRows() {
    Rng rng(kN);
    for (std::size_t t = 0; t < 2 * kRows; ++t) {
      const std::vector<u64> r = rng.uniform_vector(kN, p);
      rows.emplace_back(r.begin(), r.end());
    }
    for (const auto& r : rows) ptrs.push_back(r.data());
  }
};

void BM_NarrowForwardIsa(benchmark::State& state, simd::Isa isa) {
  NarrowRows s;
  for (auto _ : state) {
    s.table.forward(s.rows[0], isa);
    benchmark::DoNotOptimize(s.rows[0].data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(s.kN));
}

void BM_NarrowInverseIsa(benchmark::State& state, simd::Isa isa) {
  NarrowRows s;
  for (auto _ : state) {
    s.table.inverse(s.rows[0], isa);
    benchmark::DoNotOptimize(s.rows[0].data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(s.kN));
}

void BM_MulSumNarrowIsa(benchmark::State& state, simd::Isa isa) {
  NarrowRows s;
  for (auto _ : state) {
    simd::mul_sum_narrow(s.ptrs.data(), s.ptrs.data() + s.kRows, s.kRows, s.kN, s.p,
                         s.out.data(), isa);
    benchmark::DoNotOptimize(s.out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(s.kRows * s.kN));
}

// The element-wise CKKS passes at the ckks_boot (N = 256) and ckks_helr
// (N = 2048) degrees, on a 50-bit prime (the IFMA tier's 52-bit body):
// Moddown's (x - conv) * P^-1 and the encoder's signed lift of rounded
// coefficients, most of them below q in magnitude as in a Delta-scaled
// diagonal.
void BM_SubMulShoupIsa(benchmark::State& state, simd::Isa isa) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const u64 q = max_ntt_prime(50, n);
  Rng rng(n);
  const std::vector<u64> x = rng.uniform_vector(n, q);
  std::vector<u64> y = rng.uniform_vector(n, q);
  const MulModShoup w(rng.uniform(q), q);
  for (auto _ : state) {
    simd::sub_mul_shoup(x.data(), y.data(), n, w.operand(), w.quotient(), q, y.data(), isa);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}

void BM_LiftSignedIsa(benchmark::State& state, simd::Isa isa) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const u64 q = max_ntt_prime(50, n);
  Rng rng(n);
  std::vector<i64> x(n);
  for (i64& v : x) v = static_cast<i64>(rng.uniform(u64{1} << 45)) - (i64{1} << 44);
  std::vector<u64> out(n);
  for (auto _ : state) {
    simd::lift_signed(x.data(), n, q, out.data(), isa);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}

// One LWE keyswitch row update at TFHE set I's n = 630.
void BM_SubScaledIsa(benchmark::State& state, simd::Isa isa) {
  constexpr std::size_t kN = 630;
  Rng rng(kN);
  std::vector<u64> acc = rng.uniform_vector(kN, ~u64{0});
  const std::vector<u64> row = rng.uniform_vector(kN, ~u64{0});
  for (auto _ : state) {
    simd::sub_scaled(acc.data(), row.data(), 3, kN, isa);
    benchmark::DoNotOptimize(acc.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(kN));
}

void register_isa_benchmarks() {
  for (simd::Isa isa : kAllIsas) {
    if (!simd::isa_supported(isa)) continue;
    const std::string suffix = std::string("/isa:") + simd::isa_name(isa);
    benchmark::RegisterBenchmark(("BM_NttForwardIsa" + suffix).c_str(),
                                 BM_NttForwardIsa, isa);
    benchmark::RegisterBenchmark(("BM_NttInverseIsa" + suffix).c_str(),
                                 BM_NttInverseIsa, isa);
    benchmark::RegisterBenchmark(("BM_MulSumIsa" + suffix).c_str(), BM_MulSumIsa, isa);
    benchmark::RegisterBenchmark(("BM_WeightedSumIsa" + suffix).c_str(), BM_WeightedSumIsa,
                                 isa);
    benchmark::RegisterBenchmark(("BM_NarrowForwardIsa" + suffix).c_str(),
                                 BM_NarrowForwardIsa, isa);
    benchmark::RegisterBenchmark(("BM_NarrowInverseIsa" + suffix).c_str(),
                                 BM_NarrowInverseIsa, isa);
    benchmark::RegisterBenchmark(("BM_MulSumNarrowIsa" + suffix).c_str(), BM_MulSumNarrowIsa,
                                 isa);
    benchmark::RegisterBenchmark(("BM_SubMulShoupIsa" + suffix).c_str(), BM_SubMulShoupIsa, isa)
        ->Arg(256)
        ->Arg(2048);
    benchmark::RegisterBenchmark(("BM_LiftSignedIsa" + suffix).c_str(), BM_LiftSignedIsa, isa)
        ->Arg(256)
        ->Arg(2048);
    benchmark::RegisterBenchmark(("BM_SubScaledIsa" + suffix).c_str(), BM_SubScaledIsa, isa);
  }
}

// The cost of one pool fan-out: two chunks of a fixed dependent integer
// chain (Arg 0 steps each, about 1 ns a step), run as one parallel_for at
// pool width Arg 1. Width 1 runs both chunks inline, the serial reference;
// worker_share is the fraction of chunks a pool worker ran.
void BM_ParallelForDispatch(benchmark::State& state) {
  const auto steps = static_cast<u64>(state.range(0));
  ThreadPool::set_threads(static_cast<std::size_t>(state.range(1)));
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<u64> on_worker{0};
  u64 sink = 0;
  for (auto _ : state) {
    u64 results[2] = {};
    parallel_for(2, 1, [&](std::size_t b, std::size_t e) {
      for (std::size_t c = b; c < e; ++c) {
        u64 x = c + 1;
        for (u64 i = 0; i < steps; ++i) x = x * 6364136223846793005ull + 1442695040888963407ull;
        results[c] = x;
        if (std::this_thread::get_id() != caller) on_worker.fetch_add(1, std::memory_order_relaxed);
      }
    });
    sink += results[0] ^ results[1];
  }
  benchmark::DoNotOptimize(sink);
  state.counters["worker_share"] =
      static_cast<double>(on_worker.load()) / (2.0 * static_cast<double>(state.iterations()));
  ThreadPool::set_threads(1);
}
BENCHMARK(BM_ParallelForDispatch)
    ->Args({5000, 1})
    ->Args({5000, 2})
    ->Args({20000, 1})
    ->Args({20000, 2})
    ->UseRealTime();

// The host's parallel capacity, the ceiling of any 2-thread speedup: two
// fixed dependent multiply chains (Arg steps each) run back to back on the
// calling thread, then at once on it and one std::thread, no pool involved.
// speedup is the first time over the second: 2 on two free cores, 1 where
// both threads share one core's throughput.
void BM_ParallelCapacity(benchmark::State& state) {
  using Clock = std::chrono::steady_clock;
  const auto steps = static_cast<u64>(state.range(0));
  // Seed and result pass through DoNotOptimize, so a chain cannot move
  // across a clock read or the thread's start and join.
  const auto chain = [steps](u64 x) {
    benchmark::DoNotOptimize(x);
    for (u64 i = 0; i < steps; ++i) x = x * 6364136223846793005ull + 1442695040888963407ull;
    benchmark::DoNotOptimize(x);
    return x;
  };
  double one_thread_s = 0, two_threads_s = 0;
  u64 sink = 0;
  for (auto _ : state) {
    const auto t0 = Clock::now();
    sink += chain(1) ^ chain(2);
    const auto t1 = Clock::now();
    u64 other_result = 0;
    std::thread other([&] { other_result = chain(2); });
    sink += chain(1);
    other.join();
    const auto t2 = Clock::now();
    sink ^= other_result;
    one_thread_s += std::chrono::duration<double>(t1 - t0).count();
    two_threads_s += std::chrono::duration<double>(t2 - t1).count();
  }
  benchmark::DoNotOptimize(sink);
  const auto iters = static_cast<double>(state.iterations());
  state.counters["one_thread_ms"] = one_thread_s / iters * 1e3;
  state.counters["two_threads_ms"] = two_threads_s / iters * 1e3;
  state.counters["speedup"] = one_thread_s / two_threads_s;
}
BENCHMARK(BM_ParallelCapacity)->Arg(20'000'000)->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_BconvApply(benchmark::State& state) {
  const std::size_t n = 4096;
  const std::size_t l = static_cast<std::size_t>(state.range(0));
  const auto source = generate_ntt_primes(40, n, l);
  const auto target = generate_ntt_primes(41, n, 2);
  BConv conv(source, target);
  RnsPoly x(n, source);
  Rng rng(l);
  for (std::size_t c = 0; c < l; ++c) {
    auto ch = x.channel(c);
    for (auto& v : ch) v = rng.uniform(source[c]);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.apply(x));
  }
}
BENCHMARK(BM_BconvApply)->Arg(2)->Arg(4)->Arg(11);

RnsPoly seeded_poly(std::size_t n, const std::vector<u64>& moduli, u64 seed) {
  RnsPoly p(n, moduli);
  Rng rng(seed);
  for (std::size_t c = 0; c < p.num_channels(); ++c) {
    auto ch = p.channel(c);
    for (auto& v : ch) v = rng.uniform(moduli[c]);
  }
  return p;
}

// Thread-scaling view of the paper's dominant kernel: a full multi-limb
// forward NTT (8 limbs fan out across RNS channels on the pool). Arg is the
// pool width; compare rows to read off scaling.
void BM_RnsForwardNttThreads(benchmark::State& state) {
  ThreadPool::set_threads(static_cast<std::size_t>(state.range(0)));
  const std::size_t n = 1 << 14;
  const auto moduli = generate_ntt_primes(50, n, 8);
  RnsPoly x = seeded_poly(n, moduli, 42);
  for (auto _ : state) {
    x.to_ntt();
    benchmark::DoNotOptimize(x.channel(0).data());
    state.PauseTiming();
    x.to_coeff();
    state.ResumeTiming();
  }
  ThreadPool::set_threads(1);
}
BENCHMARK(BM_RnsForwardNttThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// ---------------------------------------------------------------------------
// Deterministic harness for --metrics-out / --smoke.

constexpr std::size_t kMetricsN = 1 << 14;
constexpr std::size_t kMetricsLimbs = 8;
constexpr std::size_t kMetricsReps = 4;

// Fixed seeded workload: kMetricsReps forward+inverse multi-limb NTTs plus
// one BConv, whose output channels come back NTT'd. Returns the result poly
// (for equivalence checks) and fills `reg` with the substrate counter deltas
// plus wall-clock rows.
RnsPoly run_fixed_workload(obs::Registry* reg) {
  const auto moduli = generate_ntt_primes(50, kMetricsN, kMetricsLimbs);
  const auto special = generate_ntt_primes(51, kMetricsN, 2);
  RnsPoly x = seeded_poly(kMetricsN, moduli, 7);
  const BConv conv(moduli, special);

  std::uint64_t dispatch_before[simd::kNumKerns][simd::kNumIsas];
  for (std::size_t k = 0; k < simd::kNumKerns; ++k) {
    for (std::size_t i = 0; i < simd::kNumIsas; ++i) {
      dispatch_before[k][i] = simd::dispatch_count(static_cast<simd::Kern>(k),
                                                   static_cast<simd::Isa>(i));
    }
  }
  const SubstrateStats before = ThreadPool::instance().stats();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t rep = 0; rep < kMetricsReps; ++rep) {
    x.to_ntt();
    x.to_coeff();
  }
  RnsPoly converted = conv.apply(x);
  const auto t1 = std::chrono::steady_clock::now();
  const SubstrateStats after = ThreadPool::instance().stats();

  if (reg != nullptr) {
    // Deterministic for a fixed pool width: chunk counts depend only on
    // (n, grain, width).
    reg->add("micro_ntt.n", kMetricsN);
    reg->add("micro_ntt.limbs", kMetricsLimbs);
    reg->add("micro_ntt.reps", kMetricsReps);
    reg->add("substrate.threads", after.threads);
    reg->add("substrate.parallel_for", after.parallel_fors - before.parallel_fors);
    reg->add("substrate.inline_runs", after.inline_runs - before.inline_runs);
    reg->add("substrate.tasks", after.tasks - before.tasks);
    // Per-(kernel, isa) dispatch deltas: exact for a fixed workload and
    // forced ISA (reps x limbs transforms + the BConv x·q̂⁻¹ pass of each
    // source channel, its weighted sums and the forward NTT of each BConv
    // output channel).
    for (std::size_t k = 0; k < simd::kNumKerns; ++k) {
      for (std::size_t i = 0; i < simd::kNumIsas; ++i) {
        const auto kern = static_cast<simd::Kern>(k);
        const auto isa = static_cast<simd::Isa>(i);
        const std::uint64_t delta =
            simd::dispatch_count(kern, isa) - dispatch_before[k][i];
        if (delta == 0) continue;
        reg->add("substrate.isa_dispatch", delta,
                 {{"kernel", simd::kern_name(kern)}, {"isa", simd::isa_name(isa)}});
      }
    }
    // Wall-clock rows: machine-dependent, gated out with --ignore wall_ns.
    reg->add("micro_ntt.wall_ns",
             static_cast<std::uint64_t>(
                 std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()));
    // stats() reports only kernels with nonzero totals; diff by name.
    for (const auto& [kernel, ns] : after.kernel_ns) {
      std::uint64_t prior = 0;
      for (const auto& [bk, bns] : before.kernel_ns) {
        if (bk == kernel) prior = bns;
      }
      if (ns != prior) {
        reg->add("substrate.kernel_wall_ns", ns - prior, {{"kernel", kernel}});
      }
    }
  }
  converted.to_coeff();
  x.insert_channels(x.num_channels(), converted);
  return x;
}

int run_metrics_mode(const std::string& path, std::size_t threads) {
  ThreadPool::set_threads(threads);
  obs::MetricsReport report("micro_ntt");
  // Warm the NTT table cache (twiddle tables + Shoup quotients for all ten
  // moduli) outside the measured runs: the first ISA in the loop below would
  // otherwise absorb the one-time construction cost in its wall-clock rows,
  // skewing the per-ISA comparison.
  run_fixed_workload(nullptr);
  // One run per SIMD level: the forced-scalar run keeps its historical name
  // (its counters are host-independent); avx2/avx512/avx512ifma runs exist
  // only where CPUID allows them, so the baseline gate lists them under
  // --optional.
  for (simd::Isa isa : kAllIsas) {
    if (!simd::isa_supported(isa)) continue;
    simd::set_isa(isa);
    obs::Registry reg;
    run_fixed_workload(&reg);
    std::string run = "ntt_substrate_t" + std::to_string(threads);
    if (isa != simd::Isa::Scalar) run += std::string("_") + simd::isa_name(isa);
    report.add(run, "host", std::move(reg));
  }
  simd::set_isa(simd::best_supported_isa());
  if (!report.write_file(path)) {
    std::fprintf(stderr, "FAILED to write metrics to %s\n", path.c_str());
    return 1;
  }
  std::fprintf(stderr, "metrics written to %s (threads=%zu, isa<=%s)\n", path.c_str(),
               threads, simd::isa_name(simd::best_supported_isa()));
  return 0;
}

int run_smoke_mode() {
  // Lazy butterflies (runtime-dispatched SIMD) vs the eager reference.
  const u64 q = max_ntt_prime(50, 4096);
  const NttTable& table = get_ntt_table(q, 4096);
  Rng rng(11);
  std::vector<u64> lazy = rng.uniform_vector(4096, q);
  std::vector<u64> eager = lazy;
  table.forward(lazy);
  table.forward_eager(eager);
  if (lazy != eager) {
    std::fprintf(stderr, "SMOKE FAIL: lazy forward NTT != eager reference\n");
    return 1;
  }
  table.inverse(lazy);
  table.inverse_eager(eager);
  if (lazy != eager) {
    std::fprintf(stderr, "SMOKE FAIL: lazy inverse NTT != eager reference\n");
    return 1;
  }
  // Every compiled+supported SIMD variant, forced, vs the eager reference.
  for (simd::Isa isa : kAllIsas) {
    if (!simd::isa_supported(isa)) continue;
    std::vector<u64> forced = rng.uniform_vector(4096, q);
    std::vector<u64> ref = forced;
    table.forward(forced, isa);
    table.forward_eager(ref);
    if (forced != ref) {
      std::fprintf(stderr, "SMOKE FAIL: %s forward NTT != eager reference\n",
                   simd::isa_name(isa));
      return 1;
    }
    table.inverse(forced, isa);
    table.inverse_eager(ref);
    if (forced != ref) {
      std::fprintf(stderr, "SMOKE FAIL: %s inverse NTT != eager reference\n",
                   simd::isa_name(isa));
      return 1;
    }
  }
  // The whole-call sums on every supported ISA against the eager references.
  {
    const SumRows s;
    const Modulus mod(s.q);
    std::vector<u64> mul_ref(s.kN), sum_ref(s.kN);
    mul_sum_eager(s.ap, s.bp, mod, mul_ref);
    weighted_sum_eager(s.ap, s.w, mod, sum_ref);
    for (simd::Isa isa : kAllIsas) {
      if (!simd::isa_supported(isa)) continue;
      std::vector<u64> out(s.kN);
      simd::mul_sum(s.ap.data(), s.bp.data(), s.kRows, s.kN, s.q, out.data(), isa);
      const bool mul_ok = out == mul_ref;
      simd::weighted_sum(s.ap.data(), s.w.data(), s.kRows, s.kN, s.q, s.q, out.data(), isa);
      if (!mul_ok || out != sum_ref) {
        std::fprintf(stderr, "SMOKE FAIL: %s %s != eager reference\n", simd::isa_name(isa),
                     !mul_ok ? "mul_sum" : "weighted_sum");
        return 1;
      }
    }
  }
  // The element-wise passes on every supported ISA against exact 128-bit
  // arithmetic, on a modulus each side of the IFMA tier's 2^50 bound.
  for (const u64 pq : {max_ntt_prime(50, 4096), max_ntt_prime(62, 4096)}) {
    const std::size_t n = 2051;  // a tail on every ISA
    const std::vector<u64> x = rng.uniform_vector(n, pq), y = rng.uniform_vector(n, pq);
    const MulModShoup w(rng.uniform(pq), pq);
    std::vector<i64> coeffs(n);
    for (i64& c : coeffs) c = static_cast<i64>(rng.uniform(u64{1} << 63)) - (i64{1} << 62);
    std::vector<u64> shoup_ref(n), lift_ref(n), row_ref = x;
    for (std::size_t k = 0; k < n; ++k) {
      shoup_ref[k] = static_cast<u64>(u128{(x[k] + pq - y[k]) % pq} * w.operand() % pq);
      const i128 r = static_cast<i128>(coeffs[k]) % static_cast<i128>(pq);
      lift_ref[k] = static_cast<u64>(r < 0 ? r + pq : r);
      row_ref[k] -= 5 * y[k];
    }
    for (simd::Isa isa : kAllIsas) {
      if (!simd::isa_supported(isa)) continue;
      std::vector<u64> out(n), row = x;
      simd::sub_mul_shoup(x.data(), y.data(), n, w.operand(), w.quotient(), pq, out.data(), isa);
      const bool shoup_ok = out == shoup_ref;
      simd::lift_signed(coeffs.data(), n, pq, out.data(), isa);
      const bool lift_ok = out == lift_ref;
      simd::sub_scaled(row.data(), y.data(), 5, n, isa);
      if (!shoup_ok || !lift_ok || row != row_ref) {
        std::fprintf(stderr, "SMOKE FAIL: %s %s != reference\n", simd::isa_name(isa),
                     !shoup_ok ? "sub_mul_shoup" : !lift_ok ? "lift_signed" : "sub_scaled");
        return 1;
      }
    }
  }
  // Narrow (30-bit prime, 32-bit word) transforms and MAC on every supported
  // ISA: the transforms against the 64-bit eager ones on the same prime, the
  // MAC against an exact 128-bit sum.
  {
    const std::size_t n = 4096;
    const u64 p = max_ntt_prime(30, n);
    const NarrowNttTable narrow(static_cast<u32>(p), n);
    const NttTable& wide = get_ntt_table(p, n);
    const std::vector<u64> input = rng.uniform_vector(n, p);
    std::vector<u64> fwd = input, inv = input;
    wide.forward_eager(fwd);
    wide.inverse_eager(inv);
    constexpr std::size_t kRows = 20;  // folds once mid-way
    std::vector<std::vector<u32>> rows(kRows);
    std::vector<const u32*> row_ptrs(kRows);
    for (std::size_t t = 0; t < kRows; ++t) {
      rows[t].assign(n, static_cast<u32>(p - 1 - t));
      row_ptrs[t] = rows[t].data();
    }
    std::vector<u32> mac_ref(n);
    for (std::size_t k = 0; k < n; ++k) {
      u128 sum = 0;
      for (std::size_t t = 0; t < kRows; ++t) sum += u128{rows[t][k]} * rows[t][k];
      mac_ref[k] = static_cast<u32>(sum % p);
    }
    for (simd::Isa isa : kAllIsas) {
      if (!simd::isa_supported(isa)) continue;
      std::vector<u32> a(input.begin(), input.end());
      narrow.forward(a, isa);
      const bool fwd_ok = std::equal(a.begin(), a.end(), fwd.begin());
      a.assign(input.begin(), input.end());
      narrow.inverse(a, isa);
      const bool inv_ok = std::equal(a.begin(), a.end(), inv.begin());
      simd::mul_sum_narrow(row_ptrs.data(), row_ptrs.data(), kRows, n, static_cast<u32>(p),
                           a.data(), isa);
      if (!fwd_ok || !inv_ok || a != mac_ref) {
        std::fprintf(stderr, "SMOKE FAIL: %s narrow %s != reference\n", simd::isa_name(isa),
                     !fwd_ok ? "forward NTT" : !inv_ok ? "inverse NTT" : "MAC");
        return 1;
      }
    }
  }
  // Pooled path vs sequential, bit for bit.
  ThreadPool::set_threads(1);
  const RnsPoly seq = run_fixed_workload(nullptr);
  ThreadPool::set_threads(2);
  const RnsPoly par = run_fixed_workload(nullptr);
  if (!(seq == par)) {
    std::fprintf(stderr, "SMOKE FAIL: 2-thread result != sequential result\n");
    return 1;
  }
  std::fprintf(stderr,
               "SMOKE OK: lazy==eager, per-ISA==eager (<=%s, sums and element-wise passes included), "
               "narrow==wide eager, "
               "2-thread==sequential (bit-identical)\n",
               simd::isa_name(simd::best_supported_isa()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string metrics_path;
  bool smoke = false;
  std::size_t threads = 0;
  // Strip substrate flags before google-benchmark sees argv.
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--metrics-out" && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--isa" && i + 1 < argc) {
      const char* value = argv[++i];
      try {
        alchemist::simd::set_isa(alchemist::simd::parse_isa(value));
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "invalid --isa value '%s': %s\n", value, e.what());
        return 2;
      }
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;

  if (threads > 0) alchemist::ThreadPool::set_threads(threads);
  if (smoke) return run_smoke_mode();
  if (!metrics_path.empty()) {
    // Default to 2 threads so the committed baseline's chunk counters are
    // reproducible on any machine.
    return run_metrics_mode(metrics_path, threads > 0 ? threads : 2);
  }

  register_isa_benchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
