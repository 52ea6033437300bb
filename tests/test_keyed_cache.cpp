// common/keyed_cache.h and the table caches built on it: NTT tables
// (get_ntt_table), NTT-slot automorphism permutations
// (get_ntt_automorphism), TFHE contexts (TorusNttContext::get) and the
// BFV exact-convolution contexts behind exact_negacyclic_mul. Every test
// releases several threads at once onto keys nobody has built yet, so the
// first-use build races; the CI TSan job runs this suite.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#include "bfv/ring_ops.h"
#include "common/keyed_cache.h"
#include "common/primes.h"
#include "poly/ntt.h"
#include "tfhe/torus_poly.h"

namespace alchemist {
namespace {

constexpr std::size_t kThreads = 8;

// Runs body(t) on kThreads threads released together.
void race(const std::function<void(std::size_t)>& body) {
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      body(t);
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& th : threads) th.join();
}

struct Counted {
  explicit Counted(int v, std::atomic<int>& builds) : value(v) { ++builds; }
  int value;
};

TEST(KeyedCache, ConcurrentFirstUseYieldsOneValuePerKey) {
  KeyedCache<int, Counted> cache;
  std::atomic<int> builds{0};
  std::vector<std::vector<const Counted*>> seen(kThreads);
  race([&](std::size_t t) {
    for (int key = 0; key < 4; ++key) seen[t].push_back(&cache.get(key, key * 10, builds));
  });
  for (const auto& v : seen) EXPECT_EQ(v, seen[0]) << "threads saw different values";
  for (int key = 0; key < 4; ++key) EXPECT_EQ(seen[0][key]->value, key * 10);
  // Racers may build a key more than once, but later hits never rebuild.
  const int after_race = builds.load();
  EXPECT_GE(after_race, 4);
  EXPECT_EQ(&cache.get(2, 0, builds), seen[0][2]);
  EXPECT_EQ(builds.load(), after_race);
}

TEST(KeyedCache, NttTableConcurrentFirstUse) {
  const std::size_t n = 64;
  const auto primes = generate_ntt_primes(27, n, 3);
  std::vector<std::vector<const NttTable*>> seen(kThreads);
  race([&](std::size_t t) {
    for (u64 q : primes) seen[t].push_back(&get_ntt_table(q, n));
  });
  for (const auto& v : seen) EXPECT_EQ(v, seen[0]) << "cache returned different tables";
}

TEST(KeyedCache, NttAutomorphismConcurrentFirstUse) {
  // Elements that agree mod 2N share one permutation.
  const std::size_t n = 128;
  const std::vector<u64> elements = {5, 25, 255, 5 + 2 * n, 25 + 6 * n};
  std::vector<std::vector<const NttAutomorphism*>> seen(kThreads);
  race([&](std::size_t t) {
    for (u64 g : elements) seen[t].push_back(&get_ntt_automorphism(n, g));
  });
  for (const auto& v : seen) EXPECT_EQ(v, seen[0]) << "cache returned different permutations";
  EXPECT_EQ(seen[0][3], seen[0][0]);
  EXPECT_EQ(seen[0][4], seen[0][1]);
  EXPECT_NE(seen[0][1], seen[0][0]);
}

TEST(KeyedCache, TorusNttContextConcurrentFirstUse) {
  const std::vector<std::size_t> degrees = {32, 64, 128};
  std::vector<std::vector<const tfhe::TorusNttContext*>> seen(kThreads);
  race([&](std::size_t t) {
    for (std::size_t n : degrees) seen[t].push_back(&tfhe::TorusNttContext::get(n));
  });
  for (const auto& v : seen) EXPECT_EQ(v, seen[0]) << "cache returned different contexts";
  for (std::size_t i = 0; i < degrees.size(); ++i) {
    EXPECT_EQ(seen[0][i]->degree(), degrees[i]);
  }
}

TEST(KeyedCache, BfvExactConvConcurrentFirstUse) {
  const std::size_t n = 32;
  const u64 q = 65537;
  std::vector<u64> a(n), b(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = (i * 7919 + 3) % q;
    b[i] = (i * 104729 + 11) % q;
  }
  // Schoolbook negacyclic product of the centered inputs.
  const auto centered = [&](u64 x) {
    return x <= q / 2 ? static_cast<i128>(x) : static_cast<i128>(x) - q;
  };
  std::vector<i128> expect(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const i128 p = centered(a[i]) * centered(b[j]);
      if (i + j < n) {
        expect[i + j] += p;
      } else {
        expect[i + j - n] -= p;
      }
    }
  }
  std::vector<std::vector<i128>> got(kThreads);
  race([&](std::size_t t) { got[t] = bfv::detail::exact_negacyclic_mul(a, b, q); });
  for (const auto& g : got) EXPECT_TRUE(g == expect) << "wrong or racy product";
}

}  // namespace
}  // namespace alchemist
