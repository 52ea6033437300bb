#include "bfv/ring_ops.h"

#include <array>
#include <stdexcept>
#include <utility>

#include "common/keyed_cache.h"
#include "common/primes.h"
#include "poly/ntt.h"

namespace alchemist::bfv::detail {

namespace {

class ExactConv {
 public:
  ExactConv(std::size_t n, u64 q) : n_(n), q_(q) {
    const auto primes = generate_ntt_primes(62, n, 2);
    p_[0] = primes[0];
    p_[1] = primes[1];
    p1_inv_mod_p2_ = inv_mod(p_[0] % p_[1], p_[1]);
  }

  std::vector<i128> multiply(std::span<const u64> a, std::span<const u64> b) const {
    std::array<std::vector<u64>, 2> ra, rb;
    for (int k = 0; k < 2; ++k) {
      ra[k] = lift(a, p_[k]);
      rb[k] = lift(b, p_[k]);
      const NttTable& table = get_ntt_table(p_[k], n_);
      table.forward(ra[k]);
      table.forward(rb[k]);
      const Modulus& mod = table.mod();
      for (std::size_t i = 0; i < n_; ++i) ra[k][i] = mod.mul(ra[k][i], rb[k][i]);
      table.inverse(ra[k]);
    }
    std::vector<i128> out(n_);
    const u128 big_p = u128{p_[0]} * p_[1];
    const u128 half_p = big_p >> 1;
    for (std::size_t i = 0; i < n_; ++i) {
      const u64 x1 = ra[0][i];
      const u64 x2 = ra[1][i];
      const u64 g = mul_mod(sub_mod(x2, x1 % p_[1], p_[1]), p1_inv_mod_p2_, p_[1]);
      const u128 x = u128{x1} + u128{p_[0]} * g;
      out[i] = x > half_p ? -static_cast<i128>(big_p - x) : static_cast<i128>(x);
    }
    return out;
  }

 private:
  std::vector<u64> lift(std::span<const u64> x, u64 p) const {
    std::vector<u64> out(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      out[i] = x[i] <= q_ / 2 ? x[i] % p : p - (q_ - x[i]) % p;
    }
    return out;
  }

  std::size_t n_;
  u64 q_;
  std::array<u64, 2> p_;
  u64 p1_inv_mod_p2_;
};

const ExactConv& conv_for(std::size_t n, u64 q) {
  static KeyedCache<std::pair<std::size_t, u64>, ExactConv> cache;
  return cache.get({n, q}, n, q);
}

}  // namespace

std::vector<i128> exact_negacyclic_mul(std::span<const u64> a,
                                       std::span<const u64> b, u64 q) {
  return conv_for(a.size(), q).multiply(a, b);
}

std::vector<u64> ring_mul(std::span<const u64> a, std::span<const u64> b, u64 q) {
  const NttTable& table = get_ntt_table(q, a.size());
  std::vector<u64> ra(a.begin(), a.end()), rb(b.begin(), b.end());
  table.forward(ra);
  table.forward(rb);
  const Modulus& mod = table.mod();
  for (std::size_t i = 0; i < ra.size(); ++i) ra[i] = mod.mul(ra[i], rb[i]);
  table.inverse(ra);
  return ra;
}

std::vector<u64> add_vec(std::span<const u64> a, std::span<const u64> b, u64 q) {
  std::vector<u64> out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = add_mod(a[i], b[i], q);
  return out;
}

std::vector<u64> sample_small(std::size_t n, u64 q, double sigma, Rng& rng,
                              bool ternary) {
  std::vector<u64> out(n);
  for (u64& x : out) x = ternary ? rng.ternary(q) : rng.gaussian(sigma, q);
  return out;
}

u64 find_prime_1mod(int bits, u64 step) {
  u64 candidate = ((u64{1} << bits) - 1) / step * step + 1;
  while (candidate > step && !is_prime(candidate)) candidate -= step;
  if (candidate <= step) throw std::runtime_error("find_prime_1mod: no prime found");
  return candidate;
}

std::vector<u64> batch_encode(std::size_t n, u64 t, std::span<const u64> values) {
  if (values.size() > n) throw std::invalid_argument("batch_encode: too many values");
  const NttTable& table = get_ntt_table(t, n);
  int log_n = 0;
  while ((std::size_t{1} << log_n) < n) ++log_n;
  std::vector<u64> slots(n, 0);
  for (std::size_t i = 0; i < values.size(); ++i) {
    slots[bit_reverse(i, log_n)] = values[i] % t;
  }
  table.inverse(slots);
  return slots;
}

std::vector<u64> batch_decode(std::size_t n, u64 t, std::span<const u64> plain) {
  if (plain.size() != n) throw std::invalid_argument("batch_decode: bad plaintext size");
  const NttTable& table = get_ntt_table(t, n);
  int log_n = 0;
  while ((std::size_t{1} << log_n) < n) ++log_n;
  std::vector<u64> slots(plain.begin(), plain.end());
  table.forward(slots);
  std::vector<u64> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = slots[bit_reverse(i, log_n)];
  return out;
}

u64 center_mod(i128 d, u64 q) {
  const i128 r = d % static_cast<i128>(q);
  return r >= 0 ? static_cast<u64>(r) : static_cast<u64>(r + static_cast<i128>(q));
}

}  // namespace alchemist::bfv::detail
