#include <gtest/gtest.h>

#include "common/primes.h"
#include "common/rng.h"
#include "poly/lazy_kernels.h"

namespace alchemist {
namespace {

TEST(LazyKernels, HeadroomPredicate) {
  EXPECT_TRUE(lazy_accumulation_fits(0, 62, 62));
  EXPECT_TRUE(lazy_accumulation_fits(8, 60, 60));       // 123 <= 127
  EXPECT_TRUE(lazy_accumulation_fits(1u << 20, 36, 36));  // 36-bit words: huge headroom
  EXPECT_FALSE(lazy_accumulation_fits(32, 62, 62));     // 129 > 127
}

// `terms` random layers of n residues below q, and their pointer table.
// With `near_max`, every residue is within 2^20 of q - 1, so products come
// close to q^2 and the partial sums reach the 128-bit limit.
struct Layers {
  std::vector<std::vector<u64>> data;
  std::vector<const u64*> ptrs;

  Layers(std::size_t terms, std::size_t n, u64 q, Rng& rng, bool near_max = false) {
    for (std::size_t t = 0; t < terms; ++t) {
      data.push_back(rng.uniform_vector(n, near_max ? u64{1} << 20 : q));
      if (near_max) {
        for (u64& v : data.back()) v = q - 1 - v;
      }
    }
    for (const auto& layer : data) ptrs.push_back(layer.data());
  }
};

std::vector<u64> mul_sum(bool lazy, const Layers& a, const Layers& b, const Modulus& mod,
                         std::size_t n) {
  std::vector<u64> out(n, 1);  // must be overwritten, not accumulated into
  (lazy ? mul_sum_lazy : mul_sum_eager)(a.ptrs, b.ptrs, mod, out);
  return out;
}

TEST(LazyKernels, MulSumsAgree) {
  // One term, a fold boundary for 62-bit primes (8 terms fit, 16 do not),
  // and lengths that are not a multiple of the accumulator block.
  Rng rng(1);
  for (int qbits : {36, 50, 62}) {
    const u64 q = max_ntt_prime(qbits, 64);
    const Modulus mod(q);
    for (std::size_t terms : {std::size_t{1}, std::size_t{3}, std::size_t{8},
                              std::size_t{16}}) {
      for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{300},
                            std::size_t{1024}}) {
        const Layers a(terms, n, q, rng), b(terms, n, q, rng);
        EXPECT_EQ(mul_sum(true, a, b, mod, n), mul_sum(false, a, b, mod, n))
            << "qbits=" << qbits << " terms=" << terms << " n=" << n;
      }
    }
  }
}

TEST(LazyKernels, MulSumFoldsExactlyPastHeadroom) {
  // Near-maximal 62-bit residues: 16 and 41 products overflow 128 bits
  // unless the lazy path folds its partial sums on the way.
  EXPECT_TRUE(lazy_accumulation_fits(8, 62, 62));
  EXPECT_FALSE(lazy_accumulation_fits(16, 62, 62));
  Rng rng(2);
  const u64 q = max_ntt_prime(62, 64);
  const Modulus mod(q);
  for (std::size_t terms : {std::size_t{9}, std::size_t{16}, std::size_t{41}}) {
    const Layers a(terms, 257, q, rng, true), b(terms, 257, q, rng, true);
    EXPECT_EQ(mul_sum(true, a, b, mod, 257), mul_sum(false, a, b, mod, 257))
        << "terms=" << terms;
  }
}

TEST(LazyKernels, WeightedSumsAgree) {
  Rng rng(3);
  const u64 q = max_ntt_prime(36, 64);
  const Modulus mod(q);
  const std::size_t channels = 44, n = 256;
  std::vector<std::vector<u64>> x(channels);
  for (auto& ch : x) ch = rng.uniform_vector(n, q);
  std::vector<u64> w = rng.uniform_vector(channels, q);
  std::vector<const u64*> xp;
  for (const auto& ch : x) xp.push_back(ch.data());

  std::vector<u64> eager(n), lazy(n);
  weighted_sum_eager(xp, w, mod, eager);
  weighted_sum_lazy(xp, w, mod, lazy);
  EXPECT_EQ(eager, lazy);
}

TEST(LazyKernels, MaxValueOperandsNoOverflow) {
  // Adversarial: every operand at q-1, the largest possible accumulation.
  const u64 q = kMaxModulus;  // 2^62 - 1
  const Modulus mod(q);
  const std::size_t terms = 40, n = 9;
  const std::vector<u64> top(n, q - 1);
  const std::vector<const u64*> a(terms, top.data());
  std::vector<u64> eager(n), lazy(n);
  mul_sum_eager(a, a, mod, eager);
  mul_sum_lazy(a, a, mod, lazy);
  EXPECT_EQ(eager, lazy);
  EXPECT_EQ(lazy[0], terms % q);  // (q-1)^2 = 1 mod q
}

TEST(LazyKernels, SizeMismatchThrows) {
  const Modulus mod(97);
  const std::vector<u64> x(4, 1);
  const std::vector<const u64*> a(2, x.data()), b(3, x.data());
  std::vector<u64> out(4);
  EXPECT_THROW(mul_sum_eager(a, b, mod, out), std::invalid_argument);
  EXPECT_THROW(mul_sum_lazy(a, b, mod, out), std::invalid_argument);
}

}  // namespace
}  // namespace alchemist
