// Bit-identity and dispatch-safety coverage for the SIMD substrate
// (common/simd.*). The scalar lazy kernels are the pinned reference; every
// compiled vector variant must reproduce them exactly across the (q, N)
// matrix, including non-lane-multiple tails and near-kMaxModulus moduli
// where the [0, 4q) lazy representation has the least headroom.
#include "common/simd.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/primes.h"
#include "common/rng.h"
#include "poly/four_step_ntt.h"
#include "poly/lazy_kernels.h"
#include "poly/ntt.h"

namespace alchemist {
namespace {

using simd::Isa;
using simd::Kern;

std::vector<Isa> all_isas() { return {Isa::Scalar, Isa::Avx2, Isa::Avx512}; }

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
  EXPECT_EQ(simd::parse_isa("native"), simd::best_supported_isa());
  EXPECT_THROW(simd::parse_isa("sse9"), std::invalid_argument);
  EXPECT_THROW(simd::parse_isa(""), std::invalid_argument);
  EXPECT_STREQ(simd::isa_name(Isa::Scalar), "scalar");
  EXPECT_STREQ(simd::isa_name(Isa::Avx2), "avx2");
  EXPECT_STREQ(simd::isa_name(Isa::Avx512), "avx512");
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
  for (Isa isa : all_isas()) {
    if (simd::isa_supported(isa)) continue;
    std::vector<u64> copy = a;
    EXPECT_THROW(table.forward(copy, isa), std::invalid_argument);
    EXPECT_THROW(simd::mul_accumulate(a.data(), a.data(), a.size(), lo.data(), hi.data(), isa),
                 std::invalid_argument);
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
                       ::testing::Values(std::size_t{4}, std::size_t{8},
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
    simd::weighted_accumulate(x.data(), w, len, ref_lo.data(), ref_hi.data(),
                              Isa::Scalar);
    for (Isa isa : supported_isas()) {
      std::vector<u64> acc_lo = lo0, acc_hi = hi0;
      simd::weighted_accumulate(x.data(), w, len, acc_lo.data(), acc_hi.data(), isa);
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
    simd::mul_accumulate(a.data(), b.data(), len, ref_lo.data(), ref_hi.data(), Isa::Scalar);
    for (std::size_t k = 0; k < len; ++k) {
      const u128 want = ((u128{hi0[k]} << 64) | lo0[k]) + u128{a[k]} * b[k];
      EXPECT_EQ((u128{ref_hi[k]} << 64) | ref_lo[k], want) << "k=" << k;
    }
    for (Isa isa : supported_isas()) {
      std::vector<u64> acc_lo = lo0, acc_hi = hi0;
      simd::mul_accumulate(a.data(), b.data(), len, acc_lo.data(), acc_hi.data(), isa);
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

TEST(FourStepWorkspace, CallerProvidedMatchesThreadLocal) {
  const std::size_t n = 256;
  const u64 q = max_ntt_prime(50, n);
  FourStepNtt ntt(q, n);
  Rng rng(31);
  const std::vector<u64> input = rng.uniform_vector(n, q);

  std::vector<u64> via_tls = input;
  ntt.forward(via_tls);

  FourStepNtt::Workspace ws;
  std::vector<u64> via_ws = input;
  ntt.forward(via_ws, ws);
  EXPECT_EQ(via_ws, via_tls);
  EXPECT_EQ(ws.buf_a.size(), n);  // scratch retained for reuse
  EXPECT_EQ(ws.buf_b.size(), n);

  ntt.inverse(via_ws, ws);
  EXPECT_EQ(via_ws, input);
}

TEST(FourStepWorkspace, WorkspaceReusableAcrossSizesAndTables) {
  FourStepNtt::Workspace ws;
  Rng rng(32);
  for (std::size_t n : {std::size_t{64}, std::size_t{1024}, std::size_t{16}}) {
    const u64 q = max_ntt_prime(40, n);
    FourStepNtt ntt(q, n);
    const std::vector<u64> input = rng.uniform_vector(n, q);
    std::vector<u64> a = input;
    ntt.forward(a, ws);
    ntt.inverse(a, ws);
    EXPECT_EQ(a, input) << "n=" << n;
  }
}

}  // namespace
}  // namespace alchemist
