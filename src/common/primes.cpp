#include "common/primes.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace alchemist {

namespace {

// Witness set proven sufficient for all n < 2^64.
constexpr u64 kWitnesses[] = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37};

// The one prime search: primes ≡ 1 (mod step) below 2^bits, descending,
// skipping any in `exclude`, until `count` are found. Returns fewer when the
// candidates above `step` run out.
std::vector<u64> descending_primes_1mod(int bits, u64 step, std::size_t count,
                                        const std::vector<u64>& exclude) {
  std::vector<u64> primes;
  primes.reserve(count);
  for (u64 c = ((u64{1} << bits) - 1) / step * step + 1; primes.size() < count && c > step;
       c -= step) {
    if (is_prime(c) && std::find(exclude.begin(), exclude.end(), c) == exclude.end()) {
      primes.push_back(c);
    }
  }
  return primes;
}

}  // namespace

bool is_prime(u64 n) {
  if (n < 2) return false;
  for (u64 p : {u64{2}, u64{3}, u64{5}, u64{7}, u64{11}, u64{13}}) {
    if (n == p) return true;
    if (n % p == 0) return false;
  }
  u64 d = n - 1;
  int r = 0;
  while ((d & 1) == 0) {
    d >>= 1;
    ++r;
  }
  for (u64 a : kWitnesses) {
    if (a % n == 0) continue;
    u64 x = pow_mod(a, d, n);
    if (x == 1 || x == n - 1) continue;
    bool composite = true;
    for (int i = 0; i < r - 1; ++i) {
      x = mul_mod(x, x, n);
      if (x == n - 1) {
        composite = false;
        break;
      }
    }
    if (composite) return false;
  }
  return true;
}

u64 max_prime_1mod(int bits, u64 step) {
  if (bits < 3 || bits > 62) throw std::invalid_argument("max_prime_1mod: bits out of range");
  const std::vector<u64> primes = descending_primes_1mod(bits, step, 1, {});
  if (primes.empty()) {
    throw std::runtime_error("max_prime_1mod: no prime found for bits=" + std::to_string(bits));
  }
  return primes.front();
}

u64 max_ntt_prime(int bits, std::size_t n) {
  if (!is_power_of_two(n)) throw std::invalid_argument("max_ntt_prime: N must be a power of two");
  return max_prime_1mod(bits, 2 * static_cast<u64>(n));
}

std::vector<u64> generate_ntt_primes(int bits, std::size_t n, std::size_t count) {
  return generate_ntt_primes(bits, n, count, {});
}

std::vector<u64> generate_ntt_primes(int bits, std::size_t n, std::size_t count,
                                     const std::vector<u64>& exclude) {
  if (!is_power_of_two(n)) throw std::invalid_argument("generate_ntt_primes: N must be a power of two");
  if (bits < 3 || bits > 62) throw std::invalid_argument("generate_ntt_primes: bits out of range");
  const std::vector<u64> primes =
      descending_primes_1mod(bits, 2 * static_cast<u64>(n), count, exclude);
  if (primes.size() < count) {
    throw std::runtime_error("generate_ntt_primes: not enough primes at bits=" +
                             std::to_string(bits));
  }
  return primes;
}

u64 primitive_root_2n(u64 q, std::size_t n) {
  if (!is_power_of_two(n)) throw std::invalid_argument("primitive_root_2n: N must be a power of two");
  const u64 two_n = 2 * static_cast<u64>(n);
  if ((q - 1) % two_n != 0) {
    throw std::invalid_argument("primitive_root_2n: q != 1 mod 2N");
  }
  const u64 exp = (q - 1) / two_n;
  // Deterministic scan: g = x^((q-1)/2N) has order dividing 2N (a power of
  // two), and order exactly 2N iff g^N = -1.
  for (u64 x = 2; x < q; ++x) {
    const u64 g = pow_mod(x, exp, q);
    if (pow_mod(g, static_cast<u64>(n), q) == q - 1) return g;
  }
  throw std::runtime_error("primitive_root_2n: no generator found (q not prime?)");
}

}  // namespace alchemist
