// Bit-identity and dispatch-safety coverage for the SIMD substrate
// (common/simd.*). The scalar lazy kernels are the pinned reference; every
// compiled vector variant must reproduce them exactly across the (q, N)
// matrix, including non-lane-multiple tails and near-kMaxModulus moduli
// where the [0, 4q) lazy representation has the least headroom.
#include "common/simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/primes.h"
#include "common/rng.h"
#include "poly/lazy_kernels.h"
#include "poly/ntt.h"

namespace alchemist {
namespace {

using simd::Isa;
using simd::Kern;

std::vector<Isa> all_isas() { return {Isa::Scalar, Isa::Avx2, Isa::Avx512, Isa::Avx512Ifma}; }

std::vector<Isa> supported_isas() {
  std::vector<Isa> out;
  for (Isa isa : all_isas()) {
    if (simd::isa_supported(isa)) out.push_back(isa);
  }
  return out;
}

// Restores the process-wide ISA selection on scope exit so forced-ISA tests
// cannot leak into later suites.
class IsaGuard {
 public:
  IsaGuard() : saved_(simd::active_isa()) {}
  ~IsaGuard() { simd::set_isa(saved_); }

 private:
  Isa saved_;
};

TEST(SimdDispatch, ScalarAlwaysCompiledAndSupported) {
  EXPECT_TRUE(simd::isa_compiled(Isa::Scalar));
  EXPECT_TRUE(simd::isa_supported(Isa::Scalar));
  // The resolved selection and the CPUID-best are themselves supported: the
  // dispatcher can never route to a variant this host cannot execute.
  EXPECT_TRUE(simd::isa_supported(simd::active_isa()));
  EXPECT_TRUE(simd::isa_supported(simd::best_supported_isa()));
}

TEST(SimdDispatch, SupportedRequiresCompiled) {
  for (Isa isa : all_isas()) {
    if (simd::isa_supported(isa)) EXPECT_TRUE(simd::isa_compiled(isa));
  }
}

TEST(SimdDispatch, ParseIsaNamesAndErrors) {
  EXPECT_EQ(simd::parse_isa("scalar"), Isa::Scalar);
  EXPECT_EQ(simd::parse_isa("avx2"), Isa::Avx2);
  EXPECT_EQ(simd::parse_isa("avx512"), Isa::Avx512);
  EXPECT_EQ(simd::parse_isa("avx512ifma"), Isa::Avx512Ifma);
  EXPECT_EQ(simd::parse_isa("native"), simd::best_supported_isa());
  EXPECT_THROW(simd::parse_isa("sse9"), std::invalid_argument);
  EXPECT_THROW(simd::parse_isa(""), std::invalid_argument);
  EXPECT_STREQ(simd::isa_name(Isa::Scalar), "scalar");
  EXPECT_STREQ(simd::isa_name(Isa::Avx2), "avx2");
  EXPECT_STREQ(simd::isa_name(Isa::Avx512), "avx512");
  EXPECT_STREQ(simd::isa_name(Isa::Avx512Ifma), "avx512ifma");
}

TEST(SimdDispatch, SetIsaRejectsUnsupported) {
  IsaGuard guard;
  for (Isa isa : all_isas()) {
    if (simd::isa_supported(isa)) {
      simd::set_isa(isa);
      EXPECT_EQ(simd::active_isa(), isa);
    } else {
      EXPECT_THROW(simd::set_isa(isa), std::invalid_argument);
    }
  }
}

TEST(SimdDispatch, ForcedKernelRejectsUnsupported) {
  const u64 q = max_ntt_prime(50, 16);
  NttTable table(q, 16);
  Rng rng(7);
  std::vector<u64> a = rng.uniform_vector(16, q);
  std::vector<u64> lo(16), hi(16);
  const std::vector<u64> primes = generate_ntt_primes(30, 16, 2);
  const u32 p = static_cast<u32>(primes[0]);
  const NarrowNttTable narrow(p, 16);
  const simd::NarrowCrt crt(p, static_cast<u32>(primes[1]));
  std::vector<u32> words(4 * 16);
  const u32* word_row = words.data();
  for (Isa isa : all_isas()) {
    if (simd::isa_supported(isa)) continue;
    std::vector<u64> copy = a;
    EXPECT_THROW(table.forward(copy, isa), std::invalid_argument);
    EXPECT_THROW(
        simd::detail::mul_accumulate(a.data(), a.data(), 1, a.size(), lo.data(), hi.data(), isa),
        std::invalid_argument);
    const u64* row = a.data();
    EXPECT_THROW(simd::mul_sum(&row, &row, 1, a.size(), q, lo.data(), isa),
                 std::invalid_argument);
    EXPECT_THROW(simd::weighted_sum(&row, row, 1, a.size(), q, q, lo.data(), isa),
                 std::invalid_argument);
    EXPECT_THROW(narrow.forward(std::span(words.data(), 16), isa), std::invalid_argument);
    EXPECT_THROW(narrow.inverse(std::span(words.data(), 16), isa), std::invalid_argument);
    EXPECT_THROW(simd::mul_sum_narrow(&word_row, &word_row, 1, 16, p, words.data(), isa),
                 std::invalid_argument);
    EXPECT_THROW(simd::gadget_residues_narrow(a.data(), 16, 0, 7, 2, crt, words.data(), isa),
                 std::invalid_argument);
    EXPECT_THROW(simd::crt_lift_add_narrow(words.data(), words.data(), 16, crt, lo.data(), isa),
                 std::invalid_argument);
    EXPECT_THROW(simd::sub_mul_shoup(a.data(), a.data(), 16, 1, 0, q, lo.data(), isa),
                 std::invalid_argument);
    const std::vector<i64> signed_words(16, -1);
    EXPECT_THROW(simd::lift_signed(signed_words.data(), 16, q, lo.data(), isa),
                 std::invalid_argument);
    EXPECT_THROW(simd::sub_scaled(lo.data(), a.data(), 3, 16, isa), std::invalid_argument);
  }
}

TEST(SimdDispatch, DispatchCountersTrackForcedRuns) {
  const u64 q = max_ntt_prime(50, 64);
  NttTable table(q, 64);
  Rng rng(8);
  std::vector<u64> a = rng.uniform_vector(64, q);
  for (Isa isa : supported_isas()) {
    const std::uint64_t fwd_before = simd::dispatch_count(Kern::NttFwd, isa);
    const std::uint64_t inv_before = simd::dispatch_count(Kern::NttInv, isa);
    std::vector<u64> copy = a;
    table.forward(copy, isa);
    table.inverse(copy, isa);
    EXPECT_EQ(simd::dispatch_count(Kern::NttFwd, isa), fwd_before + 1);
    EXPECT_EQ(simd::dispatch_count(Kern::NttInv, isa), inv_before + 1);
  }
}

// The (q, N) sweep: 20-bit through 62-bit (near-kMaxModulus) moduli crossed
// with sizes that exercise every kernel regime — N = 4/8 run the in-kernel
// scalar fallbacks, 16/32 the short-stride shuffle stages, larger sizes the
// broadcast stages.
class SimdNttSweep
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(SimdNttSweep, ForwardBitIdenticalToEagerAcrossIsas) {
  const auto [qbits, n] = GetParam();
  const u64 q = max_ntt_prime(qbits, n);
  NttTable table(q, n);
  Rng rng(static_cast<u64>(qbits) * 1000 + n);
  const std::vector<u64> input = rng.uniform_vector(n, q);

  std::vector<u64> expected = input;
  table.forward_eager(expected);
  for (Isa isa : supported_isas()) {
    std::vector<u64> actual = input;
    table.forward(actual, isa);
    EXPECT_EQ(actual, expected) << "isa=" << simd::isa_name(isa) << " q=" << q;
  }
  std::vector<u64> dispatched = input;
  table.forward(dispatched);
  EXPECT_EQ(dispatched, expected);
}

TEST_P(SimdNttSweep, InverseBitIdenticalToEagerAcrossIsas) {
  const auto [qbits, n] = GetParam();
  const u64 q = max_ntt_prime(qbits, n);
  NttTable table(q, n);
  Rng rng(static_cast<u64>(qbits) * 2000 + n);
  std::vector<u64> freq = rng.uniform_vector(n, q);

  std::vector<u64> expected = freq;
  table.inverse_eager(expected);
  for (Isa isa : supported_isas()) {
    std::vector<u64> actual = freq;
    table.inverse(actual, isa);
    EXPECT_EQ(actual, expected) << "isa=" << simd::isa_name(isa) << " q=" << q;
  }
}

TEST_P(SimdNttSweep, RoundTripAcrossIsas) {
  const auto [qbits, n] = GetParam();
  const u64 q = max_ntt_prime(qbits, n);
  NttTable table(q, n);
  Rng rng(static_cast<u64>(qbits) * 3000 + n);
  const std::vector<u64> original = rng.uniform_vector(n, q);
  for (Isa isa : supported_isas()) {
    std::vector<u64> a = original;
    table.forward(a, isa);
    table.inverse(a, isa);
    EXPECT_EQ(a, original) << "isa=" << simd::isa_name(isa);
  }
}

INSTANTIATE_TEST_SUITE_P(
    QnMatrix, SimdNttSweep,
    ::testing::Combine(::testing::Values(20, 36, 50, 62),
                       ::testing::Values(std::size_t{2}, std::size_t{4}, std::size_t{8},
                                         std::size_t{16}, std::size_t{32},
                                         std::size_t{64}, std::size_t{256},
                                         std::size_t{2048})));

// Worst-case amplitude at the largest supported modulus: every coefficient at
// q-1 maximizes the lazy [0, 4q) intermediates, probing the overflow headroom
// argument (4q < 2^64) on each vector variant.
TEST(SimdLazyNtt, MaxAmplitudeAtMaxModulusBits) {
  const std::size_t n = 1024;
  const u64 q = max_ntt_prime(62, n);
  NttTable table(q, n);
  std::vector<u64> expected(n, q - 1);
  table.forward_eager(expected);
  for (Isa isa : supported_isas()) {
    std::vector<u64> a(n, q - 1);
    table.forward(a, isa);
    EXPECT_EQ(a, expected) << "isa=" << simd::isa_name(isa);
  }
}

// Forcing the process-wide selection must flip the dispatched (no-Isa-arg)
// path too — this is what --isa and ALCHEMIST_ISA ride on.
TEST(SimdLazyNtt, ProcessWideForcedSelectionsAgree) {
  IsaGuard guard;
  const std::size_t n = 512;
  const u64 q = max_ntt_prime(50, n);
  NttTable table(q, n);
  Rng rng(11);
  const std::vector<u64> input = rng.uniform_vector(n, q);
  std::vector<u64> expected = input;
  table.forward_eager(expected);
  for (Isa isa : supported_isas()) {
    simd::set_isa(isa);
    std::vector<u64> a = input;
    table.forward(a);
    EXPECT_EQ(a, expected) << "isa=" << simd::isa_name(isa);
  }
}

TEST(SimdAccumulate, WeightedBitIdenticalAcrossIsasAndTails) {
  Rng rng(22);
  const u64 q = max_ntt_prime(62, 64);
  for (std::size_t len : {std::size_t{1}, std::size_t{4}, std::size_t{7},
                          std::size_t{8}, std::size_t{13}, std::size_t{16},
                          std::size_t{100}, std::size_t{131}}) {
    const std::vector<u64> x = rng.uniform_vector(len, q);
    const u64 w = q - 1;
    // Nonzero starting accumulators: the kernel is += not =.
    const std::vector<u64> lo0 = rng.uniform_vector(len, ~u64{0});
    const std::vector<u64> hi0 = rng.uniform_vector(len, u64{1} << 40);
    std::vector<u64> ref_lo = lo0, ref_hi = hi0;
    simd::detail::mul_accumulate(x.data(), &w, 0, len, ref_lo.data(), ref_hi.data(),
                                 Isa::Scalar);
    for (Isa isa : supported_isas()) {
      std::vector<u64> acc_lo = lo0, acc_hi = hi0;
      simd::detail::mul_accumulate(x.data(), &w, 0, len, acc_lo.data(), acc_hi.data(), isa);
      EXPECT_EQ(acc_lo, ref_lo) << "isa=" << simd::isa_name(isa) << " len=" << len;
      EXPECT_EQ(acc_hi, ref_hi) << "isa=" << simd::isa_name(isa) << " len=" << len;
    }
  }
}

TEST(SimdAccumulate, MulBitIdenticalAcrossIsasAndTails) {
  Rng rng(23);
  const u64 q = max_ntt_prime(62, 64);
  for (std::size_t len : {std::size_t{1}, std::size_t{4}, std::size_t{7},
                          std::size_t{8}, std::size_t{13}, std::size_t{16},
                          std::size_t{100}, std::size_t{131}}) {
    const std::vector<u64> a = rng.uniform_vector(len, q);
    std::vector<u64> b = rng.uniform_vector(len, q);
    b[0] = q - 1;  // largest product
    const std::vector<u64> lo0 = rng.uniform_vector(len, ~u64{0});
    const std::vector<u64> hi0 = rng.uniform_vector(len, u64{1} << 40);
    std::vector<u64> ref_lo = lo0, ref_hi = hi0;
    simd::detail::mul_accumulate(a.data(), b.data(), 1, len, ref_lo.data(), ref_hi.data(),
                                 Isa::Scalar);
    for (std::size_t k = 0; k < len; ++k) {
      const u128 want = ((u128{hi0[k]} << 64) | lo0[k]) + u128{a[k]} * b[k];
      EXPECT_EQ((u128{ref_hi[k]} << 64) | ref_lo[k], want) << "k=" << k;
    }
    for (Isa isa : supported_isas()) {
      std::vector<u64> acc_lo = lo0, acc_hi = hi0;
      simd::detail::mul_accumulate(a.data(), b.data(), 1, len, acc_lo.data(), acc_hi.data(),
                                   isa);
      EXPECT_EQ(acc_lo, ref_lo) << "isa=" << simd::isa_name(isa) << " len=" << len;
      EXPECT_EQ(acc_hi, ref_hi) << "isa=" << simd::isa_name(isa) << " len=" << len;
    }
  }
}

// The poly-layer wrappers ride the dispatched kernels; pin them against the
// eager references under every process-wide forced selection.
TEST(SimdAccumulate, LazyKernelsMatchEagerUnderForcedIsa) {
  IsaGuard guard;
  Rng rng(23);
  const u64 q = max_ntt_prime(62, 64);
  const Modulus mod(q);
  const std::size_t channels = 20, n = 777;  // non-lane-multiple length
  std::vector<std::vector<u64>> x(channels), y(channels);
  for (auto& ch : x) ch = rng.uniform_vector(n, q);
  for (auto& ch : y) ch = rng.uniform_vector(n, q);
  std::vector<const u64*> xp, yp;  // 20 terms of 62-bit products: folds on the way
  for (std::size_t i = 0; i < channels; ++i) {
    xp.push_back(x[i].data());
    yp.push_back(y[i].data());
  }
  const std::vector<u64> w = rng.uniform_vector(channels, q);
  std::vector<u64> mul_ref(n);
  mul_sum_eager(xp, yp, mod, mul_ref);
  std::vector<u64> sum_ref(n);
  weighted_sum_eager(xp, w, mod, sum_ref);

  for (Isa isa : supported_isas()) {
    simd::set_isa(isa);
    std::vector<u64> out(n);
    mul_sum_lazy(xp, yp, mod, out);
    EXPECT_EQ(out, mul_ref) << "isa=" << simd::isa_name(isa);
    weighted_sum_lazy(xp, w, mod, out);
    EXPECT_EQ(out, sum_ref) << "isa=" << simd::isa_name(isa);
  }
}

// The IFMA tier's width rule: the largest NTT primes below 2^50 run the
// 52-bit bodies, where all-(q-1) input drives the lazy values up to
// 4q - 1 < 2^52; the smallest at or above 2^50 and the largest below 2^51
// must take the AVX-512 body, whose 64-bit lanes still hold them.
std::vector<u64> ifma_boundary_primes(std::size_t n) {
  std::vector<u64> primes = generate_ntt_primes(50, n, 2);
  u64 p = (u64{1} << 50) + 1;
  while (!is_prime(p)) p += 2 * n;
  primes.push_back(p);
  primes.push_back(max_ntt_prime(51, n));
  return primes;
}

TEST(SimdLazyNtt, MaxAmplitudeAcrossIfmaWidthRule) {
  for (std::size_t n : {std::size_t{16}, std::size_t{32}, std::size_t{1024},
                        std::size_t{4096}}) {
    for (u64 q : ifma_boundary_primes(n)) {
      NttTable table(q, n);
      Rng rng(q ^ n);
      for (const std::vector<u64>& input :
           {std::vector<u64>(n, q - 1), rng.uniform_vector(n, q)}) {
        std::vector<u64> fwd = input, inv = input;
        table.forward_eager(fwd);
        table.inverse_eager(inv);
        for (Isa isa : supported_isas()) {
          std::vector<u64> a = input;
          table.forward(a, isa);
          EXPECT_EQ(a, fwd) << simd::isa_name(isa) << " q=" << q << " n=" << n;
          a = input;
          table.inverse(a, isa);
          EXPECT_EQ(a, inv) << simd::isa_name(isa) << " q=" << q << " n=" << n;
        }
      }
    }
  }
}

// mul_sum and weighted_sum against sums reduced term by term, across the
// IFMA fold every 15 rows, the 128-bit fold of 62-bit products every 8,
// masked vector tails, all-(q-1) operands and both sides of the 2^50 rule.
TEST(SimdSums, MatchExactSumsAcrossIsasRowsAndTails) {
  Rng rng(44);
  const std::vector<u64> primes = {max_ntt_prime(50, 1024), max_ntt_prime(51, 1024),
                                   max_ntt_prime(36, 1024), max_ntt_prime(62, 1024)};
  for (u64 q : primes) {
    for (std::size_t rows : {std::size_t{1}, std::size_t{6}, std::size_t{14}, std::size_t{15},
                             std::size_t{16}, std::size_t{31}, std::size_t{40}}) {
      for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{16}, std::size_t{33},
                            std::size_t{300}}) {
        std::vector<std::vector<u64>> a(rows), b(rows);
        std::vector<const u64*> ap(rows), bp(rows);
        std::vector<u64> w(rows);
        for (std::size_t t = 0; t < rows; ++t) {
          // Row 0 and every odd row at the largest product (q-1)^2.
          const bool top = t % 2 == 1 || t == 0;
          a[t] = top ? std::vector<u64>(n, q - 1) : rng.uniform_vector(n, q);
          b[t] = top ? std::vector<u64>(n, q - 1) : rng.uniform_vector(n, q);
          w[t] = top ? q - 1 : rng.uniform(q);
          ap[t] = a[t].data();
          bp[t] = b[t].data();
        }
        std::vector<u64> want_mul(n, 0), want_sum(n, 0);
        for (std::size_t k = 0; k < n; ++k) {
          for (std::size_t t = 0; t < rows; ++t) {
            want_mul[k] = static_cast<u64>((want_mul[k] + u128{a[t][k]} * b[t][k]) % q);
            want_sum[k] = static_cast<u64>((want_sum[k] + u128{w[t]} * a[t][k]) % q);
          }
        }
        for (Isa isa : supported_isas()) {
          std::vector<u64> out(n, 0xdeadbeef);
          simd::mul_sum(ap.data(), bp.data(), rows, n, q, out.data(), isa);
          EXPECT_EQ(out, want_mul) << simd::isa_name(isa) << " q=" << q << " rows=" << rows
                                   << " n=" << n;
          out.assign(n, 0xdeadbeef);
          simd::weighted_sum(ap.data(), w.data(), rows, n, q, q, out.data(), isa);
          EXPECT_EQ(out, want_sum) << simd::isa_name(isa) << " q=" << q << " rows=" << rows
                                   << " n=" << n;
        }
      }
    }
  }
}

// BConv's weighted sums read residues of the source primes, which may be
// wider than the target: inputs at or above 2^50 keep a target below 2^50
// off the 52-bit body.
TEST(SimdSums, WeightedSumHonoursTheInputBound) {
  Rng rng(45);
  const std::size_t n = 64, rows = 20;
  const u64 q = max_ntt_prime(50, n);
  for (u64 x_bound : {max_ntt_prime(40, n), max_ntt_prime(50, 2 * n), max_ntt_prime(51, n),
                      max_ntt_prime(62, n)}) {
    std::vector<std::vector<u64>> x(rows);
    std::vector<const u64*> xp(rows);
    for (std::size_t t = 0; t < rows; ++t) {
      x[t] = t % 2 == 0 ? std::vector<u64>(n, x_bound - 1) : rng.uniform_vector(n, x_bound);
      xp[t] = x[t].data();
    }
    const std::vector<u64> w = rng.uniform_vector(rows, q);
    std::vector<u64> want(n, 0);
    for (std::size_t k = 0; k < n; ++k) {
      for (std::size_t t = 0; t < rows; ++t) {
        want[k] = static_cast<u64>((want[k] + u128{w[t]} * x[t][k]) % q);
      }
    }
    for (Isa isa : supported_isas()) {
      std::vector<u64> out(n);
      simd::weighted_sum(xp.data(), w.data(), rows, n, q, x_bound, out.data(), isa);
      EXPECT_EQ(out, want) << simd::isa_name(isa) << " x_bound=" << x_bound;
    }
  }
}

// The element-wise passes: moduli on both sides of the IFMA tier's 2^50
// bound (a 50-bit prime runs the 52-bit body, a 51-bit one and 2^50 + 1 the
// 64-bit one) and near kMaxModulus, with lengths that leave every tail.
std::vector<u64> elementwise_moduli() {
  return {max_ntt_prime(30, 1024), max_ntt_prime(50, 1024), (u64{1} << 50) + 1,
          max_ntt_prime(51, 1024), max_ntt_prime(62, 1024), kMaxModulus};
}

const std::size_t kElementwiseSizes[] = {0, 1, 3, 4, 7, 8, 9, 16, 31, 256, 301};

// Random residues with runs of 0 and q - 1.
std::vector<u64> edge_residues(std::size_t n, u64 q, Rng& rng) {
  std::vector<u64> a(n);
  for (u64& v : a) {
    const u64 pick = rng.uniform(4);
    v = pick == 0 ? 0 : pick == 1 ? q - 1 : rng.uniform(q);
  }
  return a;
}

TEST(SimdElementwise, SubMulShoupMatchesExactAcrossIsasTailsAndAliasing) {
  Rng rng(46);
  for (u64 q : elementwise_moduli()) {
    for (u64 w : {u64{0}, u64{1}, q - 1, rng.uniform(q)}) {
      const MulModShoup shoup(w, q);
      for (std::size_t n : kElementwiseSizes) {
        const std::vector<u64> x = edge_residues(n, q, rng), y = edge_residues(n, q, rng);
        std::vector<u64> want_x(n), want_xy(n);
        for (std::size_t k = 0; k < n; ++k) {
          want_x[k] = static_cast<u64>(u128{x[k]} * w % q);
          want_xy[k] = static_cast<u64>(u128{(x[k] + q - y[k]) % q} * w % q);
        }
        for (Isa isa : supported_isas()) {
          const std::string what = std::string(simd::isa_name(isa)) +
                                   " q=" + std::to_string(q) + " w=" + std::to_string(w) +
                                   " n=" + std::to_string(n);
          const std::uint64_t before = simd::dispatch_count(Kern::SubMulShoup, isa);
          std::vector<u64> out(n, 0xdeadbeef);
          simd::sub_mul_shoup(x.data(), nullptr, n, shoup.operand(), shoup.quotient(), q,
                              out.data(), isa);
          EXPECT_EQ(out, want_x) << what << " no y";
          out.assign(n, 0xdeadbeef);
          simd::sub_mul_shoup(x.data(), y.data(), n, shoup.operand(), shoup.quotient(), q,
                              out.data(), isa);
          EXPECT_EQ(out, want_xy) << what;
          std::vector<u64> in_x = x;  // out aliases x
          simd::sub_mul_shoup(in_x.data(), y.data(), n, shoup.operand(), shoup.quotient(), q,
                              in_x.data(), isa);
          EXPECT_EQ(in_x, want_xy) << what << " out = x";
          std::vector<u64> in_y = y;  // out aliases y
          simd::sub_mul_shoup(x.data(), in_y.data(), n, shoup.operand(), shoup.quotient(), q,
                              in_y.data(), isa);
          EXPECT_EQ(in_y, want_xy) << what << " out = y";
          in_x = x;
          simd::sub_mul_shoup(in_x.data(), nullptr, n, shoup.operand(), shoup.quotient(), q,
                              in_x.data(), isa);
          EXPECT_EQ(in_x, want_x) << what << " no y, out = x";
          EXPECT_EQ(simd::dispatch_count(Kern::SubMulShoup, isa), before + 5) << what;
        }
      }
    }
  }
  EXPECT_STREQ(simd::kern_name(Kern::SubMulShoup), "sub_mul_shoup");
}

TEST(SimdElementwise, LiftSignedMatchesExactAcrossIsasAndEdges) {
  Rng rng(47);
  constexpr i64 kMaxAbs = (i64{1} << 62) - 1;
  for (u64 q : elementwise_moduli()) {
    const i64 sq = static_cast<i64>(q);
    // Every edge at every lane position of a block, and in the tails.
    std::vector<i64> edges = {0, sq - 1, -(sq - 1), sq, -sq, sq + 1, -(sq + 1), kMaxAbs,
                              -kMaxAbs, 1, -1};
    for (std::size_t n : kElementwiseSizes) {
      for (std::size_t shift = 0; shift < 3; ++shift) {
        std::vector<i64> x(n);
        for (std::size_t k = 0; k < n; ++k) {
          const u64 pick = rng.uniform(4);
          // Mostly |x| < q, as for a Delta-scaled message; some anywhere.
          x[k] = pick == 0   ? edges[(k + shift) % edges.size()]
                 : pick == 1 ? static_cast<i64>(rng.uniform(2 * u64{kMaxAbs} + 1)) - kMaxAbs
                             : static_cast<i64>(rng.uniform(2 * q - 1)) - (sq - 1);
        }
        std::vector<u64> want(n);
        for (std::size_t k = 0; k < n; ++k) {
          const i128 r = static_cast<i128>(x[k]) % sq;
          want[k] = static_cast<u64>(r < 0 ? r + sq : r);
        }
        for (Isa isa : supported_isas()) {
          std::vector<u64> out(n, 0xdeadbeef);
          simd::lift_signed(x.data(), n, q, out.data(), isa);
          EXPECT_EQ(out, want) << simd::isa_name(isa) << " q=" << q << " n=" << n;
        }
      }
    }
    // Every lane of a block at one edge value.
    for (i64 e : edges) {
      const std::vector<i64> x(16, e);
      const i128 r = static_cast<i128>(e) % sq;
      const std::vector<u64> want(16, static_cast<u64>(r < 0 ? r + sq : r));
      for (Isa isa : supported_isas()) {
        std::vector<u64> out(16);
        simd::lift_signed(x.data(), 16, q, out.data(), isa);
        EXPECT_EQ(out, want) << simd::isa_name(isa) << " q=" << q << " x=" << e;
      }
    }
  }
}

TEST(SimdElementwise, SubScaledWrapsLikeScalarAcrossIsasAndTails) {
  Rng rng(48);
  for (u64 d : {u64{0}, u64{1}, ~u64{0}, u64{3} << 62, rng.next()}) {
    for (std::size_t n : kElementwiseSizes) {
      const std::vector<u64> acc0 = rng.uniform_vector(n, ~u64{0});
      const std::vector<u64> row = rng.uniform_vector(n, ~u64{0});
      std::vector<u64> want = acc0;
      for (std::size_t k = 0; k < n; ++k) want[k] -= d * row[k];
      for (Isa isa : supported_isas()) {
        std::vector<u64> acc = acc0;
        simd::sub_scaled(acc.data(), row.data(), d, n, isa);
        EXPECT_EQ(acc, want) << simd::isa_name(isa) << " d=" << d << " n=" << n;
      }
    }
  }
}

// Narrow kernels: primes below 2^30, where lazy values below 4q have the
// least headroom under 2^32. For canonical input the narrow transforms must
// equal the 64-bit eager transforms on the same prime, on every ISA.
std::vector<u64> narrow_primes(std::size_t n) {
  std::vector<u64> primes = generate_ntt_primes(30, n, 3);  // the largest first
  primes.push_back(max_ntt_prime(29, n));
  primes.push_back(max_ntt_prime(24, n));
  primes.push_back(max_ntt_prime(17, n));
  return primes;
}

// Random residues with runs of 0 and q - 1, the extremes of canonical input.
std::vector<u32> edge_input(std::size_t n, u64 q, Rng& rng) {
  std::vector<u32> a(n);
  for (std::size_t i = 0; i < n; ++i) {
    const u64 pick = rng.uniform(4);
    a[i] = static_cast<u32>(pick == 0 ? 0 : pick == 1 ? q - 1 : rng.uniform(q));
  }
  return a;
}

std::vector<u64> widen(const std::vector<u32>& a) { return {a.begin(), a.end()}; }
std::vector<u32> narrow_vector(const std::vector<u64>& a) {
  std::vector<u32> out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = static_cast<u32>(a[i]);
  return out;
}

class SimdNarrowSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SimdNarrowSweep, TransformsMatchWideEagerAcrossIsas) {
  const std::size_t n = GetParam();
  for (u64 q : narrow_primes(n)) {
    const NttTable wide(q, n);
    const NarrowNttTable narrow(static_cast<u32>(q), n);
    Rng rng(q ^ n);
    for (int pattern = 0; pattern < 3; ++pattern) {
      // All q - 1, then mixed edges, then uniform.
      const std::vector<u32> input = pattern == 0   ? std::vector<u32>(n, q - 1)
                                     : pattern == 1 ? edge_input(n, q, rng)
                                                    : narrow_vector(rng.uniform_vector(n, q));
      std::vector<u64> fwd = widen(input);
      wide.forward_eager(fwd);
      std::vector<u64> inv = widen(input);
      wide.inverse_eager(inv);
      // The forward transform also takes any input below 4q: the same
      // residues lifted by q, 2q or 3q, up to 4q - 1.
      std::vector<u32> lazy = input;
      for (std::size_t i = 0; i < n; ++i) lazy[i] += static_cast<u32>(q * (i % 4));
      for (Isa isa : supported_isas()) {
        std::vector<u32> a = input;
        narrow.forward(a, isa);
        EXPECT_EQ(widen(a), fwd) << simd::isa_name(isa) << " q=" << q << " n=" << n;
        a = lazy;
        narrow.forward(a, isa);
        EXPECT_EQ(widen(a), fwd) << simd::isa_name(isa) << " lazy input, q=" << q;
        a = input;
        narrow.inverse(a, isa);
        EXPECT_EQ(widen(a), inv) << simd::isa_name(isa) << " q=" << q << " n=" << n;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Degrees, SimdNarrowSweep,
                         ::testing::Values(std::size_t{16}, std::size_t{32},
                                           std::size_t{64}, std::size_t{128},
                                           std::size_t{256}, std::size_t{512},
                                           std::size_t{1024}, std::size_t{2048},
                                           std::size_t{4096}));

TEST(SimdNarrow, TinyAndOversizedTables) {
  // N = 2..8 run the scalar butterflies inside every variant.
  for (std::size_t n : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    const u64 q = max_ntt_prime(30, n);
    const NttTable wide(q, n);
    const NarrowNttTable narrow(static_cast<u32>(q), n);
    Rng rng(n);
    const std::vector<u32> input = edge_input(n, q, rng);
    std::vector<u64> fwd = widen(input);
    wide.forward_eager(fwd);
    for (Isa isa : supported_isas()) {
      std::vector<u32> a = input;
      narrow.forward(a, isa);
      EXPECT_EQ(widen(a), fwd) << simd::isa_name(isa) << " n=" << n;
      narrow.inverse(a, isa);
      EXPECT_EQ(a, input) << simd::isa_name(isa) << " n=" << n;
    }
  }
  EXPECT_THROW(NarrowNttTable(static_cast<u32>(max_ntt_prime(31, 64)), 64),
               std::invalid_argument);
  std::vector<u32> wrong(8);
  EXPECT_THROW(NarrowNttTable(static_cast<u32>(max_ntt_prime(30, 16)), 16).forward(wrong),
               std::invalid_argument);
}

TEST(SimdNarrow, MulSumMatchesExactSumAcrossIsasRowsAndTails) {
  Rng rng(41);
  for (u64 q : {max_ntt_prime(30, 1024), max_ntt_prime(22, 1024)}) {
    for (std::size_t rows : {std::size_t{1}, std::size_t{6}, std::size_t{15},
                             std::size_t{16}, std::size_t{31}, std::size_t{40}}) {
      for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{16},
                            std::size_t{33}, std::size_t{300}, std::size_t{1024}}) {
        std::vector<std::vector<u32>> a(rows), b(rows);
        std::vector<const u32*> ap(rows), bp(rows);
        for (std::size_t t = 0; t < rows; ++t) {
          // Row 0 and every odd row at the largest product (q-1)^2.
          a[t] = t % 2 == 1 || t == 0 ? std::vector<u32>(n, q - 1) : edge_input(n, q, rng);
          b[t] = t % 2 == 1 || t == 0 ? std::vector<u32>(n, q - 1) : edge_input(n, q, rng);
          ap[t] = a[t].data();
          bp[t] = b[t].data();
        }
        std::vector<u32> want(n);
        for (std::size_t k = 0; k < n; ++k) {
          u128 sum = 0;
          for (std::size_t t = 0; t < rows; ++t) sum += u128{a[t][k]} * b[t][k];
          want[k] = static_cast<u32>(sum % q);
        }
        for (Isa isa : supported_isas()) {
          std::vector<u32> out(n, 0xdeadbeef);
          simd::mul_sum_narrow(ap.data(), bp.data(), rows, n, static_cast<u32>(q), out.data(),
                               isa);
          EXPECT_EQ(out, want) << simd::isa_name(isa) << " q=" << q << " rows=" << rows
                               << " n=" << n;
        }
      }
    }
  }
}

TEST(SimdNarrow, GadgetResiduesMatchSignedDigitsAcrossIsas) {
  Rng rng(42);
  const u64 q1 = max_ntt_prime(30, 1024);
  const u64 q2 = generate_ntt_primes(30, 1024, 2)[1];
  const simd::NarrowCrt crt(static_cast<u32>(q1), static_cast<u32>(q2));
  for (int bg_bits : {1, 7, 10, 15, 29}) {
    const std::size_t levels = std::min<std::size_t>(63 / bg_bits, 4);
    const u64 offset = rng.next();
    for (std::size_t n : {std::size_t{1}, std::size_t{9}, std::size_t{64}, std::size_t{1000}}) {
      std::vector<u64> src = rng.uniform_vector(n, ~u64{0});
      src[0] = ~offset + 1;  // every field 0: all digits -Bg/2
      std::vector<u32> want(2 * levels * n);
      for (std::size_t k = 0; k < n; ++k) {
        for (std::size_t i = 0; i < levels; ++i) {
          const unsigned shift = 64 - static_cast<unsigned>((i + 1) * bg_bits);
          const i64 d = static_cast<i64>(((src[k] + offset) >> shift) &
                                         ((u64{1} << bg_bits) - 1)) -
                        (i64{1} << (bg_bits - 1));
          want[(2 * i) * n + k] = static_cast<u32>(d < 0 ? d + static_cast<i64>(q1) : d);
          want[(2 * i + 1) * n + k] = static_cast<u32>(d < 0 ? d + static_cast<i64>(q2) : d);
        }
      }
      for (Isa isa : supported_isas()) {
        std::vector<u32> out(2 * levels * n);
        simd::gadget_residues_narrow(src.data(), n, offset, bg_bits, levels, crt, out.data(),
                                     isa);
        EXPECT_EQ(out, want) << simd::isa_name(isa) << " bg_bits=" << bg_bits << " n=" << n;
      }
    }
  }
}

TEST(SimdNarrow, CrtLiftRecoversCentredIntegersAcrossIsas) {
  Rng rng(43);
  const u64 q1 = max_ntt_prime(30, 2048);
  const u64 q2 = generate_ntt_primes(30, 2048, 2)[1];
  const simd::NarrowCrt crt(static_cast<u32>(q1), static_cast<u32>(q2));
  ASSERT_EQ(crt.q, q1 * q2);
  const i64 half = static_cast<i64>(crt.q / 2);
  for (std::size_t n : {std::size_t{1}, std::size_t{5}, std::size_t{8}, std::size_t{300}}) {
    // Integers across (-Q/2, Q/2], the ends included, per half.
    std::vector<i64> x_lo(n), x_hi(n);
    for (std::size_t k = 0; k < n; ++k) {
      x_lo[k] = static_cast<i64>(rng.uniform(crt.q)) - half;
      x_hi[k] = static_cast<i64>(rng.uniform(crt.q)) - half;
    }
    x_lo[0] = half;
    x_hi[0] = -half;
    if (n > 1) {
      x_lo[1] = -half;
      x_hi[1] = 0;
    }
    std::vector<u32> lo(2 * n), hi(2 * n);
    auto residue = [](i64 x, u64 q) {
      const i64 r = x % static_cast<i64>(q);
      return static_cast<u32>(r < 0 ? r + static_cast<i64>(q) : r);
    };
    const std::vector<u64> dst0 = rng.uniform_vector(n, ~u64{0});
    std::vector<u64> want = dst0;
    for (std::size_t k = 0; k < n; ++k) {
      lo[k] = residue(x_lo[k], q1);
      lo[n + k] = residue(x_lo[k], q2);
      hi[k] = residue(x_hi[k], q1);
      hi[n + k] = residue(x_hi[k], q2);
      want[k] += static_cast<u64>(x_lo[k]) + (static_cast<u64>(x_hi[k]) << 32);
    }
    for (Isa isa : supported_isas()) {
      std::vector<u64> dst = dst0;
      simd::crt_lift_add_narrow(lo.data(), hi.data(), n, crt, dst.data(), isa);
      EXPECT_EQ(dst, want) << simd::isa_name(isa) << " n=" << n;
    }
  }
  EXPECT_THROW(simd::NarrowCrt(static_cast<u32>(q2), static_cast<u32>(q1)),
               std::invalid_argument);
}

// The narrow kernels count apart from the 64-bit transforms, so CKKS's
// NTT counts do not see TFHE's.
TEST(SimdNarrow, DispatchCountersAreTheirOwn) {
  const std::size_t n = 64;
  const u64 q = max_ntt_prime(30, n);
  const NarrowNttTable table(static_cast<u32>(q), n);
  std::vector<u32> a(n, 1);
  const u32* ap = a.data();
  for (Isa isa : supported_isas()) {
    const std::uint64_t before[] = {simd::dispatch_count(Kern::NttFwdNarrow, isa),
                                    simd::dispatch_count(Kern::NttInvNarrow, isa),
                                    simd::dispatch_count(Kern::MulSumNarrow, isa),
                                    simd::dispatch_count(Kern::NttFwd, isa),
                                    simd::dispatch_count(Kern::NttInv, isa)};
    table.forward(a, isa);
    table.inverse(a, isa);
    simd::mul_sum_narrow(&ap, &ap, 1, n, static_cast<u32>(q), a.data(), isa);
    EXPECT_EQ(simd::dispatch_count(Kern::NttFwdNarrow, isa), before[0] + 1);
    EXPECT_EQ(simd::dispatch_count(Kern::NttInvNarrow, isa), before[1] + 1);
    EXPECT_EQ(simd::dispatch_count(Kern::MulSumNarrow, isa), before[2] + 1);
    EXPECT_EQ(simd::dispatch_count(Kern::NttFwd, isa), before[3]);
    EXPECT_EQ(simd::dispatch_count(Kern::NttInv, isa), before[4]);
  }
  EXPECT_STREQ(simd::kern_name(Kern::NttFwdNarrow), "ntt_fwd_narrow");
  EXPECT_STREQ(simd::kern_name(Kern::NttInvNarrow), "ntt_inv_narrow");
  EXPECT_STREQ(simd::kern_name(Kern::MulSumNarrow), "mul_sum_narrow");
}

}  // namespace
}  // namespace alchemist
