// Parallel lazy-reduction substrate: thread-pool semantics, Harvey lazy
// butterfly equivalence, and bit-identity of every pooled path against the
// sequential eager reference across (q, N, limb-count) sweeps.
//
// The determinism contract under test: for any thread count (including 1,
// which runs everything inline) and for lazy vs eager butterflies, every
// functional kernel produces bit-identical polynomials. These tests also run
// under the CI TSan job, covering the get_ntt_table cache and the pool's
// queue/claim/notify machinery.
#include <gtest/gtest.h>

#include <atomic>
#include <complex>
#include <memory>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "ckks/bootstrap.h"
#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "ckks/keygen.h"
#include "ckks/linear_transform.h"
#include "ckks/params.h"
#include "common/modarith.h"
#include "common/primes.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "obs/substrate_metrics.h"
#include "poly/lazy_kernels.h"
#include "poly/ntt.h"
#include "poly/rns.h"
#include "sim/alchemist_sim.h"
#include "svc/job_runner.h"
#include "workloads/ckks_workloads.h"

namespace alchemist {
namespace {

// Restores the pool width on scope exit so thread-count sweeps cannot leak
// into unrelated tests.
class ScopedThreads {
 public:
  explicit ScopedThreads(std::size_t n) : prev_(ThreadPool::instance().num_threads()) {
    ThreadPool::set_threads(n);
  }
  ~ScopedThreads() { ThreadPool::set_threads(prev_); }

 private:
  std::size_t prev_;
};

// Runs fn and returns how many of its calls fanned out to the pool.
template <typename F>
std::uint64_t count_fan_outs(F&& fn) {
  const std::uint64_t before = ThreadPool::instance().stats().parallel_fors;
  fn();
  return ThreadPool::instance().stats().parallel_fors - before;
}

RnsPoly random_poly(std::size_t n, const std::vector<u64>& moduli, u64 seed) {
  RnsPoly p(n, moduli);
  Rng rng(seed);
  for (std::size_t c = 0; c < p.num_channels(); ++c) {
    auto ch = p.channel(c);
    for (auto& v : ch) v = rng.uniform(moduli[c]);
  }
  return p;
}

// ---------------------------------------------------------------------------
// ThreadPool semantics.

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ScopedThreads guard(4);
  for (std::size_t n : {1u, 7u, 64u, 1000u, 4096u}) {
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    parallel_for(n, 8, [&](std::size_t b, std::size_t e) {
      ASSERT_LE(b, e);
      for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ScopedThreads guard(1);
  EXPECT_EQ(ThreadPool::instance().num_threads(), 1u);
  std::thread::id caller = std::this_thread::get_id();
  parallel_for(1000, 1, [&](std::size_t, std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ThreadPool, NestedCallsRunInlineOnWorkers) {
  ScopedThreads guard(4);
  std::atomic<int> nested_chunks{0};
  parallel_for(64, 1, [&](std::size_t b, std::size_t e) {
    // Either on a pool worker or the caller lane; a nested fan-out from a
    // worker must not re-enter the queue.
    if (ThreadPool::on_worker_thread()) {
      std::thread::id self = std::this_thread::get_id();
      ThreadPool::instance().parallel_for(32, 1, [&](std::size_t, std::size_t) {
        EXPECT_EQ(std::this_thread::get_id(), self);
        nested_chunks.fetch_add(1);
      });
    }
    for (std::size_t i = b; i < e; ++i) (void)i;
  });
  // Nested inline calls deliver the whole range as one chunk.
  EXPECT_EQ(nested_chunks.load() % 1, 0);
}

TEST(ThreadPool, ExceptionPropagatesAfterAllChunks) {
  ScopedThreads guard(4);
  EXPECT_THROW(parallel_for(256, 1,
                            [&](std::size_t b, std::size_t) {
                              if (b == 0) throw std::runtime_error("chunk failed");
                            }),
               std::runtime_error);
}

TEST(ThreadPool, SetThreadsCarriesCountersAcrossResize) {
  ScopedThreads guard(2);
  const SubstrateStats before = ThreadPool::instance().stats();
  parallel_for(1 << 16, 1, [](std::size_t, std::size_t) {});
  ThreadPool::set_threads(3);
  const SubstrateStats after = ThreadPool::instance().stats();
  EXPECT_EQ(after.threads, 3u);
  EXPECT_GT(after.parallel_fors + after.inline_runs,
            before.parallel_fors + before.inline_runs);
}

TEST(ThreadPool, SubstrateRegistryExportsCounters) {
  ScopedThreads guard(2);
  parallel_for(1 << 16, 1, [](std::size_t, std::size_t) {});
  const obs::Registry reg = obs::substrate_registry();
  EXPECT_EQ(reg.gauge("substrate.threads"), 2.0);
  EXPECT_GT(reg.counter("substrate.parallel_for") + reg.counter("substrate.inline_runs"),
            0u);
}

// ---------------------------------------------------------------------------
// Harvey lazy butterflies vs the eager reference.

TEST(LazyNtt, ForwardMatchesEagerAcrossSweep) {
  for (int bits : {20, 30, 50, 61}) {
    for (std::size_t n : {8u, 64u, 256u, 2048u}) {
      const u64 q = max_ntt_prime(bits, n);
      const NttTable& table = get_ntt_table(q, n);
      Rng rng(n + static_cast<u64>(bits));
      const std::vector<u64> input = rng.uniform_vector(n, q);
      std::vector<u64> lazy = input, eager = input;
      table.forward(lazy);
      table.forward_eager(eager);
      EXPECT_EQ(lazy, eager) << "q=" << q << " n=" << n;
    }
  }
}

TEST(LazyNtt, InverseMatchesEagerAcrossSweep) {
  for (int bits : {20, 30, 50, 61}) {
    for (std::size_t n : {8u, 64u, 256u, 2048u}) {
      const u64 q = max_ntt_prime(bits, n);
      const NttTable& table = get_ntt_table(q, n);
      Rng rng(3 * n + static_cast<u64>(bits));
      const std::vector<u64> input = rng.uniform_vector(n, q);
      std::vector<u64> lazy = input, eager = input;
      table.inverse(lazy);
      table.inverse_eager(eager);
      EXPECT_EQ(lazy, eager) << "q=" << q << " n=" << n;
    }
  }
}

TEST(LazyNtt, RoundTripAtMaxModulusBits) {
  // 4q < 2^64 headroom at the largest supported primes.
  const std::size_t n = 1024;
  const u64 q = max_ntt_prime(61, n);
  const NttTable& table = get_ntt_table(q, n);
  Rng rng(17);
  const std::vector<u64> original = rng.uniform_vector(n, q);
  std::vector<u64> a = original;
  table.forward(a);
  for (u64 v : a) EXPECT_LT(v, q);  // canonical outputs
  table.inverse(a);
  EXPECT_EQ(a, original);
}

// ---------------------------------------------------------------------------
// get_ntt_table under concurrent construction (TSan regression for the
// previously unsynchronized static cache).

TEST(NttTableCache, ConcurrentConstructionIsRaceFreeAndStable) {
  const std::size_t n = 128;
  const auto primes = generate_ntt_primes(30, n, 6);
  std::vector<std::thread> threads;
  std::vector<std::vector<const NttTable*>> seen(8);
  for (std::size_t t = 0; t < seen.size(); ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 4; ++rep) {
        for (u64 q : primes) seen[t].push_back(&get_ntt_table(q, n));
      }
    });
  }
  for (auto& th : threads) th.join();
  for (const auto& v : seen) {
    ASSERT_EQ(v.size(), seen[0].size());
    for (std::size_t i = 0; i < v.size(); ++i) {
      EXPECT_EQ(v[i], seen[0][i]) << "cache returned different instances";
    }
  }
}

// ---------------------------------------------------------------------------
// Pooled RNS paths: bit-identical across thread counts and limb sweeps. The
// grain rule runs the channel loops of small rings inline, so each shape is
// large enough for the 4-thread run to fan out, and the tests check through
// ThreadPool::stats() that it did.

TEST(PooledRns, ElementwiseAndNttBitIdenticalAcrossThreadCounts) {
  // One limb fans out only its elementwise ops; N = 4096 fans out every
  // channel loop from 3 limbs up.
  const std::pair<std::size_t, std::size_t> shapes[] = {{16384, 1}, {4096, 3}, {4096, 8}};
  for (const auto& [n, limbs] : shapes) {
    const auto moduli = generate_ntt_primes(40, n, limbs);
    const RnsPoly a0 = random_poly(n, moduli, 7 * limbs);
    const RnsPoly b0 = random_poly(n, moduli, 9 * limbs);

    std::uint64_t fan_outs = 0;
    auto run_all = [&](std::size_t threads) {
      ScopedThreads guard(threads);
      RnsPoly rot;
      fan_outs = count_fan_outs([&] {
        RnsPoly a = a0, b = b0;
        a += b;
        a -= b0;
        a.negate();
        a.mul_scalar(u64{12345});
        a.to_ntt();
        RnsPoly bn = b0;
        bn.to_ntt();
        a *= bn;
        a.to_coeff();
        rot = a.automorphism(5);
        rot += a;
      });
      return rot;
    };

    const RnsPoly seq = run_all(1);
    EXPECT_EQ(fan_outs, 0u) << "n=" << n << " limbs=" << limbs;
    const RnsPoly par = run_all(4);
    EXPECT_GT(fan_outs, 0u) << "n=" << n << " limbs=" << limbs;
    EXPECT_TRUE(seq == par) << "n=" << n << " limbs=" << limbs;
  }
}

TEST(PooledRns, BconvModupModdownBitIdenticalAcrossThreadCounts) {
  // At N = 8192 one channel is a whole chunk, so every channel loop with two
  // or more channels fans out.
  for (std::size_t limbs : {2u, 4u, 11u}) {
    const std::size_t n = 8192;
    const auto source = generate_ntt_primes(40, n, limbs);
    const auto special = generate_ntt_primes(41, n, 2);
    const RnsPoly x = random_poly(n, source, 31 * limbs);

    std::uint64_t fan_outs = 0;
    auto run_all = [&](std::size_t threads) {
      ScopedThreads guard(threads);
      RnsPoly out;
      fan_outs = count_fan_outs([&] {
        std::vector<u64> basis = source;
        basis.insert(basis.end(), special.begin(), special.end());
        RnsPoly x_ntt = x;
        x_ntt.to_ntt();
        RnsPoly down = moddown(modup(x_ntt, basis, 0), special.size());
        const BConv conv(source, special);
        out = conv.apply(x);
        out.insert_channels(out.num_channels(), down);
      });
      return out;
    };

    const RnsPoly seq = run_all(1);
    const RnsPoly par = run_all(4);
    EXPECT_GT(fan_outs, 0u) << "limbs=" << limbs;
    EXPECT_TRUE(seq == par) << "limbs=" << limbs;
  }
}

// ---------------------------------------------------------------------------
// Weighted sums: parallel lazy vs sequential eager, incl. the headroom
// boundary where the lazy 128-bit accumulation no longer fits.

TEST(PooledWeightedSum, LazyMatchesEagerAcrossThreadCounts) {
  const std::size_t n = 10000;  // forces multiple chunks at grain 4096
  const std::size_t terms = 9;
  const Modulus mod(max_ntt_prime(50, 64));
  Rng rng(99);
  std::vector<std::vector<u64>> x(terms, std::vector<u64>(n));
  std::vector<u64> w(terms);
  for (auto& xi : x) {
    for (auto& v : xi) v = rng.uniform(mod.value());
  }
  for (auto& v : w) v = rng.uniform(mod.value());
  std::vector<const u64*> xp;
  for (const auto& xi : x) xp.push_back(xi.data());

  std::vector<u64> eager_seq(n), lazy_par(n);
  {
    ScopedThreads guard(1);
    weighted_sum_eager(xp, w, mod, eager_seq);
  }
  {
    ScopedThreads guard(4);
    weighted_sum_lazy(xp, w, mod, lazy_par);
  }
  EXPECT_EQ(eager_seq, lazy_par);
}

TEST(PooledWeightedSum, HeadroomBoundaryFallsBackAndStaysExact) {
  // 62-bit operands: 16 terms need 62+62+4 = 128 > 127 bits, so the lazy path
  // must take its block-wise fallback; 8 terms (127 bits) still accumulate in
  // one shot. Both must equal the eager reference.
  EXPECT_TRUE(lazy_accumulation_fits(8, 62, 62));
  EXPECT_FALSE(lazy_accumulation_fits(16, 62, 62));
  EXPECT_TRUE(lazy_accumulation_fits(0, 62, 62));

  const u64 q = kMaxModulus;  // 2^62 - 1 (odd; Modulus only needs q < 2^62)
  const Modulus mod(q);
  Rng rng(123);
  for (std::size_t terms : {8u, 16u, 40u}) {
    const std::size_t n = 257;
    std::vector<std::vector<u64>> x(terms, std::vector<u64>(n));
    std::vector<u64> w(terms);
    for (auto& xi : x) {
      for (auto& v : xi) v = rng.uniform(q);
    }
    for (auto& v : w) v = rng.uniform(q);
    std::vector<const u64*> xp;
    for (const auto& xi : x) xp.push_back(xi.data());
    std::vector<u64> eager(n), lazy(n);
    weighted_sum_eager(xp, w, mod, eager);
    weighted_sum_lazy(xp, w, mod, lazy);
    EXPECT_EQ(eager, lazy) << "terms=" << terms;
  }
}

// ---------------------------------------------------------------------------
// CKKS keyswitch digit fan-out: pooled path bit-identical to sequential. At
// N = 4096 the DecompPolyMult, BConv and NTT channel loops fan out as well
// as the digits.

TEST(PooledKeyswitch, DigitFanOutBitIdenticalAcrossThreadCounts) {
  const ckks::CkksParams params = ckks::CkksParams::toy(4096, 4, 2);
  const auto ctx = std::make_shared<ckks::CkksContext>(params);
  ckks::KeyGenerator keygen(ctx, 21);
  const ckks::RelinKeys rk = keygen.make_relin_keys();
  ckks::Evaluator evaluator(ctx);

  RnsPoly d = random_poly(params.n, ctx->basis_at(params.num_levels), 55);
  d.to_ntt();

  std::uint64_t fan_outs = 0;
  auto run = [&](std::size_t threads) {
    ScopedThreads guard(threads);
    std::pair<RnsPoly, RnsPoly> out;
    fan_outs = count_fan_outs([&] { out = evaluator.keyswitch(d, params.num_levels, rk.key); });
    return out;
  };
  const auto seq = run(1);
  const auto par = run(4);
  // The digit fan-out, plus at least one channel loop.
  EXPECT_GT(fan_outs, 1u);
  EXPECT_TRUE(seq.first == par.first);
  EXPECT_TRUE(seq.second == par.second);
}

TEST(PooledKeyswitch, HoistedRotationsBitIdenticalAcrossThreadCounts) {
  const ckks::CkksParams params = ckks::CkksParams::toy(4096, 3, 3);
  const auto ctx = std::make_shared<ckks::CkksContext>(params);
  ckks::KeyGenerator keygen(ctx, 5);
  ckks::CkksEncoder encoder(ctx);
  ckks::Encryptor encryptor(ctx, keygen.make_public_key());
  ckks::Evaluator evaluator(ctx);
  const std::vector<int> steps = {1, 2, -1};
  const ckks::GaloisKeys gk = keygen.make_galois_keys(steps);

  std::vector<double> msg(params.slots());
  for (std::size_t i = 0; i < msg.size(); ++i) msg[i] = 0.001 * static_cast<double>(i);
  const ckks::Ciphertext ct = encryptor.encrypt(
      encoder.encode(std::span<const double>(msg), params.num_levels, params.scale()));

  std::uint64_t fan_outs = 0;
  auto run = [&](std::size_t threads) {
    ScopedThreads guard(threads);
    std::vector<ckks::Ciphertext> out;
    fan_outs = count_fan_outs([&] { out = evaluator.rotate_hoisted(ct, steps, gk); });
    return out;
  };
  const auto seq = run(1);
  const auto par = run(4);
  EXPECT_GT(fan_outs, 0u);
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_TRUE(seq[i].c0 == par[i].c0) << i;
    EXPECT_TRUE(seq[i].c1 == par[i].c1) << i;
  }
}

// The fused linear transform: one DecompPolyMult fan-out over channels per
// giant group. At N = 4096 its lanes run on the pool, for the plain and the
// BSGS schedule.
TEST(PooledLinearTransform, BitIdenticalAcrossThreadCounts) {
  const ckks::CkksParams params = ckks::CkksParams::toy(4096, 4, 2);
  const auto ctx = std::make_shared<ckks::CkksContext>(params);
  ckks::KeyGenerator keygen(ctx, 8);
  ckks::CkksEncoder encoder(ctx);
  ckks::Encryptor encryptor(ctx, keygen.make_public_key());
  ckks::Evaluator evaluator(ctx);

  const std::size_t slots = params.slots();
  ckks::LinearTransform::Matrix m(slots, std::vector<std::complex<double>>(slots));
  for (std::size_t k = 0; k < slots; ++k) {
    m[k][k] = 1.0;
    m[k][(k + 1) % slots] = {0.5, -0.125};
    m[k][(k + 3) % slots] = -0.25;
    m[k][(k + 6) % slots] = 0.0625;
  }
  const ckks::LinearTransform lt(ctx, m);
  std::vector<int> steps = lt.required_rotations(true);
  for (int s : lt.required_rotations(false)) steps.push_back(s);
  const ckks::GaloisKeys gk = keygen.make_galois_keys(steps);

  std::vector<double> msg(slots);
  for (std::size_t i = 0; i < slots; ++i) msg[i] = 0.25 - 0.0001 * static_cast<double>(i);
  const ckks::Ciphertext ct = encryptor.encrypt(
      encoder.encode(std::span<const double>(msg), params.num_levels, params.scale()));

  for (bool bsgs : {true, false}) {
    std::uint64_t fan_outs = 0;
    auto run = [&](std::size_t threads) {
      ScopedThreads guard(threads);
      ckks::Ciphertext out;
      fan_outs = count_fan_outs(
          [&] { out = lt.apply(evaluator, encoder, ct, gk, params.scale(), bsgs); });
      return out;
    };
    const ckks::Ciphertext seq = run(1);
    const ckks::Ciphertext par = run(4);
    EXPECT_GT(fan_outs, 0u) << "bsgs=" << bsgs;
    EXPECT_TRUE(seq.c0 == par.c0) << "bsgs=" << bsgs;
    EXPECT_TRUE(seq.c1 == par.c1) << "bsgs=" << bsgs;
  }
}

// The ckks_boot shape of bench/e2e (N = 256, L = 20, dnum = 4, 45-bit
// primes, h = 32): its channel loops run inline under the grain rule, and
// only the keyswitch digits fan out. A whole bootstrap is bit-identical at
// widths 1, 2 and 4.
TEST(PooledBootstrap, BitIdenticalAcrossThreadCounts) {
  ckks::CkksParams params = ckks::CkksParams::toy(256, 20, 4);
  params.prime_bits = 45;
  params.log_scale = 45;
  params.secret_hamming_weight = 32;
  const auto ctx = std::make_shared<ckks::CkksContext>(params);
  ckks::KeyGenerator keygen(ctx, 41);
  const ckks::CkksEncoder encoder(ctx);
  ckks::Encryptor encryptor(ctx, keygen.make_public_key(), 42);
  const ckks::Evaluator evaluator(ctx);
  const ckks::RelinKeys rk = keygen.make_relin_keys();
  const ckks::GaloisKeys gk = keygen.make_galois_keys(
      ckks::Bootstrapper::required_rotations(*ctx), /*include_conjugate=*/true);
  ckks::BootstrapConfig config;
  config.i_bound = 9.0;
  config.sine_degree = 140;
  const ckks::Bootstrapper boot(ctx, encoder, evaluator, rk, gk, config);

  std::vector<double> msg(params.slots());
  for (std::size_t i = 0; i < msg.size(); ++i) msg[i] = 0.5 - 0.003 * static_cast<double>(i);
  const ckks::Ciphertext exhausted = evaluator.mod_drop(
      encryptor.encrypt(encoder.encode(std::span<const double>(msg), params.num_levels,
                                       params.scale())),
      1);

  std::uint64_t fan_outs = 0;
  auto run = [&](std::size_t threads) {
    ScopedThreads guard(threads);
    ckks::Ciphertext out;
    fan_outs = count_fan_outs([&] { out = boot.bootstrap(exhausted); });
    return out;
  };
  const ckks::Ciphertext seq = run(1);
  EXPECT_EQ(fan_outs, 0u);
  for (std::size_t threads : {2u, 4u}) {
    const ckks::Ciphertext par = run(threads);
    EXPECT_GT(fan_outs, 0u) << threads << " threads";
    EXPECT_TRUE(seq.c0 == par.c0) << threads << " threads";
    EXPECT_TRUE(seq.c1 == par.c1) << threads << " threads";
  }
}

// ---------------------------------------------------------------------------
// svc composition: jobs running over the shared pool report substrate.*
// counters, and resumed-checkpoint SimResults stay bit-identical with the
// pool enabled.

TEST(PooledSvc, SnapshotCarriesSubstrateCountersAndResumeStaysBitIdentical) {
  ScopedThreads guard(4);
  const auto graph = std::make_shared<const metaop::OpGraph>(
      workloads::build_keyswitch(workloads::CkksWl::paper(16)));
  const sim::SimResult ref = sim::simulate_alchemist(*graph, arch::ArchConfig::alchemist());

  svc::JobRunner runner;
  svc::JobSpec spec;
  spec.graph = graph;
  spec.max_steps = 1;
  const svc::JobPtr job = runner.submit(std::move(spec));
  job->wait();
  ASSERT_EQ(job->state(), svc::JobState::DeadlineExpired);
  ASSERT_TRUE(job->checkpoint().valid());

  svc::JobSpec resume;
  resume.graph = graph;
  resume.resume_from = job->checkpoint();
  const svc::JobPtr resumed = runner.submit(std::move(resume));
  resumed->wait();
  ASSERT_EQ(resumed->state(), svc::JobState::Completed) << resumed->error();
  EXPECT_EQ(resumed->result().registry.counters(), ref.registry.counters());

  const obs::Registry snap = runner.snapshot();
  EXPECT_EQ(snap.gauge("substrate.threads"), 4.0);
}

}  // namespace
}  // namespace alchemist
