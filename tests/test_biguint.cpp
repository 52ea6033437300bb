#include "common/biguint.h"

#include <gtest/gtest.h>

#include "common/primes.h"
#include "common/rng.h"

namespace alchemist {
namespace {

TEST(BigUInt, ZeroAndBasics) {
  BigUInt zero;
  EXPECT_TRUE(zero.is_zero());
  EXPECT_EQ(zero.bit_length(), 0u);
  EXPECT_EQ(zero.to_hex(), "0x0");

  BigUInt one(1);
  EXPECT_FALSE(one.is_zero());
  EXPECT_EQ(one.bit_length(), 1u);
  EXPECT_EQ(one.mod_u64(7), 1u);
}

TEST(BigUInt, AdditionCarriesAcrossLimbs) {
  BigUInt a(~u64{0});
  a += BigUInt(1);
  EXPECT_EQ(a.bit_length(), 65u);
  EXPECT_EQ(a.mod_u64(3), (u128{1} << 64) % 3);
  EXPECT_EQ(a.to_hex(), "0x10000000000000000");
}

TEST(BigUInt, SubtractionBorrowsAndThrowsOnNegative) {
  BigUInt a(~u64{0});
  a += BigUInt(5);           // 2^64 + 4
  BigUInt b = a - BigUInt(6);  // 2^64 - 2
  EXPECT_EQ(b.mod_u64(1000000007), ((u128{1} << 64) - 2) % 1000000007);
  EXPECT_THROW(BigUInt(3) -= BigUInt(4), std::invalid_argument);
}

TEST(BigUInt, MulU64AndProduct) {
  const std::vector<u64> factors = {u64{1} << 40, u64{1} << 40, 12345};
  BigUInt p = BigUInt::product(factors);
  EXPECT_EQ(p.bit_length(), 80u + 14u);  // 12345 ~ 14 bits
  EXPECT_EQ(p.mod_u64(12345), 0u);
  EXPECT_EQ(p.div_u64(12345, true).mod_u64(u64{1} << 40), 0u);
}

TEST(BigUInt, FullMultiplicationMatchesRepeatedAddition) {
  BigUInt a(0x123456789abcdefULL);
  a.mul_u64(0xfedcba987654321ULL);
  BigUInt b = a * a;
  // Check mod several primes against modular arithmetic on the residues.
  for (u64 q : {u64{1000000007}, u64{998244353}, (u64{1} << 61) - 1}) {
    EXPECT_EQ(b.mod_u64(q), mul_mod(a.mod_u64(q), a.mod_u64(q), q));
  }
}

TEST(BigUInt, DivU64ExactAndInexact) {
  BigUInt a(100);
  EXPECT_EQ(a.div_u64(10, true).mod_u64(1000), 10u);
  EXPECT_THROW(a.div_u64(7, true), std::logic_error);
  EXPECT_EQ(a.div_u64(7, false).mod_u64(1000), 14u);  // floor(100/7)
  EXPECT_THROW(a.div_u64(0), std::invalid_argument);
  EXPECT_THROW(a.mod_u64(0), std::invalid_argument);
}

TEST(BigUInt, Comparisons) {
  BigUInt a(5), b(7);
  BigUInt big(1);
  big.mul_u64(~u64{0}).mul_u64(~u64{0});
  EXPECT_TRUE(a < b);
  EXPECT_TRUE(b > a);
  EXPECT_TRUE(a <= a);
  EXPECT_TRUE(a >= a);
  EXPECT_TRUE(a == BigUInt(5));
  EXPECT_TRUE(a < big);
  EXPECT_TRUE(big >= b);
}

TEST(BigUInt, ToDoubleApproximates) {
  BigUInt a(1);
  a.mul_u64(u64{1} << 50).mul_u64(u64{1} << 50);
  EXPECT_NEAR(a.to_double(), 0x1.0p100, 0x1.0p60);
}

TEST(CrtCompose, ReconstructsKnownValue) {
  const std::vector<u64> moduli = {101, 103, 107};
  const u64 x = 123456;
  std::vector<u64> residues;
  for (u64 q : moduli) residues.push_back(x % q);
  BigUInt recovered = crt_compose(residues, moduli);
  EXPECT_EQ(recovered, BigUInt(x));
}

TEST(CrtCompose, RandomRoundTripLargeModuli) {
  const std::size_t n = 64;
  const auto moduli = generate_ntt_primes(45, n, 6);
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<u64> residues;
    residues.reserve(moduli.size());
    for (u64 q : moduli) residues.push_back(rng.uniform(q));
    const BigUInt x = crt_compose(residues, moduli);
    EXPECT_LT(x, BigUInt::product(moduli));
    for (std::size_t i = 0; i < moduli.size(); ++i) {
      EXPECT_EQ(x.mod_u64(moduli[i]), residues[i]);
    }
  }
}

// The composer's mixed-radix digits against the textbook CRT sum
// x = sum_i [r_i * Qhat_i^-1]_{q_i} * Qhat_i mod Q, on a 21-prime basis
// with the edge residues 0 and q - 1.
TEST(CrtCompose, ComposerMatchesTextbookSum) {
  const auto moduli = generate_ntt_primes(50, 2048, 21);
  const BigUInt big_q = BigUInt::product(moduli);
  const CrtComposer crt(moduli);
  Rng rng(100);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<u64> residues;
    for (u64 q : moduli) {
      residues.push_back(trial == 0 ? 0 : trial == 1 ? q - 1 : rng.uniform(q));
    }
    BigUInt want;
    for (std::size_t i = 0; i < moduli.size(); ++i) {
      const BigUInt qhat = big_q.div_u64(moduli[i], /*require_exact=*/true);
      const u64 w = mul_mod(residues[i], inv_mod(qhat.mod_u64(moduli[i]), moduli[i]), moduli[i]);
      want += BigUInt(qhat).mul_u64(w);
    }
    while (want >= big_q) want -= big_q;
    EXPECT_EQ(crt.compose(residues), want) << "trial " << trial;
    EXPECT_EQ(crt_compose(residues, moduli), want) << "trial " << trial;
  }
}

TEST(CrtCompose, SizeMismatchThrows) {
  EXPECT_THROW(crt_compose({1, 2}, {3}), std::invalid_argument);
}

}  // namespace
}  // namespace alchemist
