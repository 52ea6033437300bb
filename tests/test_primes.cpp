#include "common/primes.h"

#include <gtest/gtest.h>

#include <set>

namespace alchemist {
namespace {

TEST(Primes, IsPrimeSmall) {
  EXPECT_FALSE(is_prime(0));
  EXPECT_FALSE(is_prime(1));
  EXPECT_TRUE(is_prime(2));
  EXPECT_TRUE(is_prime(3));
  EXPECT_FALSE(is_prime(4));
  EXPECT_TRUE(is_prime(65537));
  EXPECT_FALSE(is_prime(65536));
  EXPECT_FALSE(is_prime(u64{3215031751}));  // strong pseudoprime to bases 2,3,5,7
}

TEST(Primes, IsPrimeLarge) {
  EXPECT_TRUE(is_prime((u64{1} << 61) - 1));       // Mersenne
  EXPECT_FALSE(is_prime((u64{1} << 61) - 3));
  EXPECT_TRUE(is_prime(u64{0x3fffffffffe80001}));  // 62-bit, ≡ 1 mod 2^17
  // Carmichael number 561 = 3*11*17.
  EXPECT_FALSE(is_prime(561));
}

TEST(Primes, MaxNttPrimeProperties) {
  for (std::size_t n : {std::size_t{1024}, std::size_t{4096}, std::size_t{65536}}) {
    for (int bits : {30, 36, 50}) {
      const u64 q = max_ntt_prime(bits, n);
      EXPECT_TRUE(is_prime(q));
      EXPECT_LT(q, u64{1} << bits);
      EXPECT_EQ((q - 1) % (2 * n), 0u) << "q=" << q << " n=" << n;
    }
  }
}

TEST(Primes, MaxPrime1ModSearchesAnyStep) {
  const u64 step = 2 * 1024 * u64{65537};  // BFV/BGV: q ≡ 1 (mod 2Nt)
  const u64 q = max_prime_1mod(55, step);
  EXPECT_TRUE(is_prime(q));
  EXPECT_LT(q, u64{1} << 55);
  EXPECT_EQ((q - 1) % step, 0u);
  EXPECT_EQ(max_prime_1mod(50, 2 * 4096), max_ntt_prime(50, 4096));
  for (int bits : {2, 63, 64}) {
    EXPECT_THROW(max_prime_1mod(bits, 2048), std::invalid_argument) << bits;
  }
}

TEST(Primes, GenerateNttPrimesDistinctAndValid) {
  const std::size_t n = 4096;
  const auto primes = generate_ntt_primes(36, n, 10);
  ASSERT_EQ(primes.size(), 10u);
  std::set<u64> unique(primes.begin(), primes.end());
  EXPECT_EQ(unique.size(), 10u);
  for (u64 q : primes) {
    EXPECT_TRUE(is_prime(q));
    EXPECT_EQ((q - 1) % (2 * n), 0u);
    EXPECT_LT(q, u64{1} << 36);
  }
  // Descending order by construction.
  for (std::size_t i = 1; i < primes.size(); ++i) EXPECT_GT(primes[i - 1], primes[i]);
}

TEST(Primes, GenerateNttPrimesStartsAtMaxNttPrime) {
  // One descending walk serves both searches.
  for (int bits : {20, 30, 36, 45, 50, 61}) {
    for (std::size_t n : {64u, 256u, 2048u}) {
      EXPECT_EQ(generate_ntt_primes(bits, n, 1)[0], max_ntt_prime(bits, n))
          << "bits=" << bits << " n=" << n;
    }
  }
}

TEST(Primes, GenerateNttPrimesRespectsExclusion) {
  const std::size_t n = 1024;
  const auto base = generate_ntt_primes(30, n, 3);
  const auto more = generate_ntt_primes(30, n, 3, base);
  for (u64 q : more) {
    for (u64 e : base) EXPECT_NE(q, e);
  }
}

TEST(Primes, PrimitiveRootHasExactOrder2N) {
  for (std::size_t n : {std::size_t{8}, std::size_t{1024}, std::size_t{16384}}) {
    const u64 q = max_ntt_prime(40, n);
    const u64 psi = primitive_root_2n(q, n);
    // psi^N = -1 and psi^2N = 1: order exactly 2N.
    EXPECT_EQ(pow_mod(psi, n, q), q - 1);
    EXPECT_EQ(pow_mod(psi, 2 * n, q), 1u);
  }
}

TEST(Primes, RejectsBadArguments) {
  EXPECT_THROW(max_ntt_prime(36, 1000), std::invalid_argument);  // not power of two
  EXPECT_THROW(max_ntt_prime(2, 1024), std::invalid_argument);
  EXPECT_THROW(generate_ntt_primes(63, 1024, 1), std::invalid_argument);
  EXPECT_THROW(primitive_root_2n(17, 1024), std::invalid_argument);  // 17 != 1 mod 2048
}

}  // namespace
}  // namespace alchemist
