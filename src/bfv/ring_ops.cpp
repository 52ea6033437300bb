#include "bfv/ring_ops.h"

#include <bit>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/keyed_cache.h"
#include "common/primes.h"
#include "poly/ntt.h"

namespace alchemist::bfv::detail {

namespace {

class ExactConv {
 public:
  ExactConv(std::size_t n, u64 q)
      : n_(n), q_(q), p_(generate_ntt_primes(62, n, 2)),
        p1_inv_mod_p2_(inv_mod(p_[0] % p_[1], p_[1])) {}

  std::vector<i128> multiply(std::span<const u64> a, std::span<const u64> b) const {
    const Polynomial r1 = lift(a, p_[0]) * lift(b, p_[0]);
    const Polynomial r2 = lift(a, p_[1]) * lift(b, p_[1]);
    std::vector<i128> out(n_);
    const u128 big_p = u128{p_[0]} * p_[1];
    const u128 half_p = big_p >> 1;
    for (std::size_t i = 0; i < n_; ++i) {
      const u64 x1 = r1[i];
      const u64 g = mul_mod(sub_mod(r2[i], x1 % p_[1], p_[1]), p1_inv_mod_p2_, p_[1]);
      const u128 x = u128{x1} + u128{p_[0]} * g;
      out[i] = x > half_p ? -static_cast<i128>(big_p - x) : static_cast<i128>(x);
    }
    return out;
  }

 private:
  Polynomial lift(std::span<const u64> x, u64 p) const {
    Polynomial out(n_, p);
    for (std::size_t i = 0; i < n_; ++i) out[i] = x[i] <= q_ / 2 ? x[i] % p : p - (q_ - x[i]) % p;
    return out;
  }

  std::size_t n_;
  u64 q_;
  std::vector<u64> p_;  // two 62-bit NTT primes
  u64 p1_inv_mod_p2_;
};

const ExactConv& conv_for(std::size_t n, u64 q) {
  static KeyedCache<std::pair<std::size_t, u64>, ExactConv> cache;
  return cache.get({n, q}, n, q);
}

Polynomial gaussian(const RingContext& ctx, Rng& rng) {
  Polynomial e(ctx.degree(), ctx.q());
  for (u64& c : e.coeffs()) c = rng.gaussian(ctx.params().noise_sigma, ctx.q());
  return e;
}

}  // namespace

RingContext::RingContext(const BfvParams& params, const char* who) : params_(params) {
  const auto fail = [who](const char* what) {
    throw std::invalid_argument(std::string(who) + ": " + what);
  };
  if (!is_power_of_two(params.n)) fail("N must be a power of two");
  if (!is_prime(params.t) || (params.t - 1) % (2 * params.n) != 0) {
    fail("t must be prime with t = 1 mod 2N");
  }
  if (params.relin_window < 1 || params.relin_window > params.q_bits) {
    fail("relin_window must be in [1, q_bits]");
  }
  // q ≡ 1 (mod 2N) for the NTT *and* q ≡ 1 (mod t) so that q mod t = 1:
  // the Delta*w wrap term alpha*(q mod t) then stays tiny, which is what
  // keeps BFV plain and ciphertext multiplication exact. The search rejects
  // q_bits outside [3, 62].
  q_ = max_prime_1mod(params.q_bits, 2 * static_cast<u64>(params.n) * params.t);
  relin_digits_ = static_cast<std::size_t>(
      (params.q_bits + params.relin_window - 1) / params.relin_window);
}

Polynomial ternary(const RingContext& ctx, Rng& rng) {
  Polynomial s(ctx.degree(), ctx.q());
  for (u64& c : s.coeffs()) c = rng.ternary(ctx.q());
  return s;
}

RlweSample rlwe_sample(const RingContext& ctx, const Polynomial& s, u64 f, Rng& rng) {
  Polynomial a(rng.uniform_vector(ctx.degree(), ctx.q()), ctx.q());
  Polynomial b = gaussian(ctx, rng);
  b.mul_scalar(f);
  b += a * s;
  b.negate();
  return {std::move(b), std::move(a)};
}

std::vector<RlweSample> relin_key(const RingContext& ctx, const Polynomial& s, u64 f,
                                  Rng& rng) {
  Polynomial power_s2 = s * s;  // 2^(w*i) s^2
  std::vector<RlweSample> rk;
  for (std::size_t i = 0; i < ctx.relin_digits(); ++i) {
    rk.push_back(rlwe_sample(ctx, s, f, rng));
    rk.back().b += power_s2;
    for (int w = 0; w < ctx.params().relin_window; ++w) power_s2 += power_s2;
  }
  return rk;
}

Polynomial to_ring(const RingContext& ctx, std::span<const u64> plain, u64 scale) {
  if (plain.size() != ctx.degree()) {
    throw std::invalid_argument("to_ring: plaintext must have N coefficients");
  }
  Polynomial m(ctx.degree(), ctx.q());
  for (std::size_t i = 0; i < plain.size(); ++i) m[i] = m.mod().mul(scale, plain[i] % ctx.t());
  return m;
}

Ciphertext encrypt(const RingContext& ctx, const RlweSample& pk, const Polynomial& m,
                   u64 f, Rng& rng) {
  const Polynomial u = ternary(ctx, rng);
  Polynomial e1 = gaussian(ctx, rng);
  Polynomial e2 = gaussian(ctx, rng);
  Ciphertext ct{pk.b * u, pk.a * u};
  ct.c0 += e1.mul_scalar(f);
  ct.c0 += m;
  ct.c1 += e2.mul_scalar(f);
  return ct;
}

Polynomial phase(const Ciphertext& ct, const Polynomial& s) {
  Polynomial v = ct.c1 * s;
  v += ct.c0;
  return v;
}

Ciphertext add(Ciphertext x, const Ciphertext& y) {
  x.c0 += y.c0;
  x.c1 += y.c1;
  return x;
}

Ciphertext sub(Ciphertext x, const Ciphertext& y) {
  x.c0 -= y.c0;
  x.c1 -= y.c1;
  return x;
}

Ciphertext negate(Ciphertext x) {
  x.c0.negate();
  x.c1.negate();
  return x;
}

Ciphertext add_plain(Ciphertext x, const Polynomial& m) {
  x.c0 += m;
  return x;
}

Ciphertext mul_plain(const Ciphertext& x, const Polynomial& p) {
  return {x.c0 * p, x.c1 * p};
}

Ciphertext relinearize(const RingContext& ctx, Ciphertext c, const Polynomial& c2,
                       const std::vector<RlweSample>& rk) {
  if (rk.size() < ctx.relin_digits()) {
    throw std::invalid_argument("relinearize: relin key has too few digits");
  }
  const int w = ctx.params().relin_window;
  const u64 mask = (u64{1} << w) - 1;
  Polynomial digit(c2.degree(), ctx.q());
  for (std::size_t i = 0; i < ctx.relin_digits(); ++i) {
    const int shift = w * static_cast<int>(i);
    for (std::size_t k = 0; k < digit.degree(); ++k) digit[k] = (c2[k] >> shift) & mask;
    c.c0 += rk[i].b * digit;
    c.c1 += rk[i].a * digit;
  }
  return c;
}

std::vector<i128> exact_negacyclic_mul(std::span<const u64> a,
                                       std::span<const u64> b, u64 q) {
  if (a.size() != b.size()) throw std::invalid_argument("exact_negacyclic_mul: size mismatch");
  return conv_for(a.size(), q).multiply(a, b);
}

std::vector<u64> batch_encode(std::size_t n, u64 t, std::span<const u64> values) {
  if (values.size() > n) throw std::invalid_argument("batch_encode: too many values");
  const NttTable& table = get_ntt_table(t, n);
  const int log_n = std::countr_zero(n);
  std::vector<u64> slots(n, 0);
  for (std::size_t i = 0; i < values.size(); ++i) slots[bit_reverse(i, log_n)] = values[i] % t;
  table.inverse(slots);
  return slots;
}

std::vector<u64> batch_decode(std::size_t n, u64 t, std::span<const u64> plain) {
  if (plain.size() != n) throw std::invalid_argument("batch_decode: bad plaintext size");
  const NttTable& table = get_ntt_table(t, n);
  const int log_n = std::countr_zero(n);
  std::vector<u64> slots(plain.begin(), plain.end());
  table.forward(slots);
  std::vector<u64> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = slots[bit_reverse(i, log_n)];
  return out;
}

}  // namespace alchemist::bfv::detail
