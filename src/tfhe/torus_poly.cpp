#include "tfhe/torus_poly.h"

#include <stdexcept>

#include "common/keyed_cache.h"
#include "common/primes.h"
#include "poly/ntt.h"

namespace alchemist::tfhe {

TorusPoly& TorusPoly::operator+=(const TorusPoly& other) {
  if (other.degree() != degree()) throw std::invalid_argument("TorusPoly::+=: size mismatch");
  for (std::size_t i = 0; i < coeffs_.size(); ++i) coeffs_[i] += other.coeffs_[i];
  return *this;
}

TorusPoly& TorusPoly::operator-=(const TorusPoly& other) {
  if (other.degree() != degree()) throw std::invalid_argument("TorusPoly::-=: size mismatch");
  for (std::size_t i = 0; i < coeffs_.size(); ++i) coeffs_[i] -= other.coeffs_[i];
  return *this;
}

TorusPoly& TorusPoly::negate() {
  for (Torus& c : coeffs_) c = ~c + 1;
  return *this;
}

TorusPoly TorusPoly::rotate(u64 e) const {
  const std::size_t n = degree();
  const u64 two_n = 2 * static_cast<u64>(n);
  e %= two_n;
  TorusPoly out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const u64 idx = (static_cast<u64>(i) + e) % two_n;
    if (idx < n) {
      out[idx] += coeffs_[i];
    } else {
      out[idx - n] -= coeffs_[i];
    }
  }
  return out;
}

TorusPoly negacyclic_mul_schoolbook(const std::vector<i64>& a, const TorusPoly& b) {
  const std::size_t n = b.degree();
  if (a.size() != n) throw std::invalid_argument("negacyclic_mul_schoolbook: size mismatch");
  TorusPoly out(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] == 0) continue;
    const u64 ai = static_cast<u64>(a[i]);  // wrap-around signed -> mod 2^64
    for (std::size_t j = 0; j < n; ++j) {
      const u64 prod = ai * b[j];  // exact mod 2^64
      if (i + j < n) {
        out[i + j] += prod;
      } else {
        out[i + j - n] -= prod;
      }
    }
  }
  return out;
}

TorusNttContext::TorusNttContext(std::size_t n) : n_(n) {
  if (!is_power_of_two(n)) {
    throw std::invalid_argument("TorusNttContext: N must be a power of two");
  }
  const auto primes = generate_ntt_primes(62, n, 2);
  primes_ = {primes[0], primes[1]};
  p1_inv_mod_p2_ = inv_mod(primes_[0] % primes_[1], primes_[1]);
  // Warm the NTT table cache.
  get_ntt_table(primes_[0], n);
  get_ntt_table(primes_[1], n);
}

TorusNttContext::DomainPoly TorusNttContext::forward_int(const std::vector<i64>& a) const {
  if (a.size() != n_) throw std::invalid_argument("forward_int: size mismatch");
  DomainPoly out;
  for (int p = 0; p < 2; ++p) {
    const u64 q = primes_[p];
    out.residues[p].resize(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      out.residues[p][i] = a[i] >= 0 ? static_cast<u64>(a[i]) % q
                                     : q - static_cast<u64>(-a[i]) % q;
    }
    get_ntt_table(q, n_).forward(out.residues[p]);
  }
  return out;
}

TorusNttContext::DomainPoly TorusNttContext::forward_torus(const TorusPoly& b) const {
  if (b.degree() != n_) throw std::invalid_argument("forward_torus: size mismatch");
  DomainPoly out;
  for (int p = 0; p < 2; ++p) {
    const u64 q = primes_[p];
    out.residues[p].resize(n_);
    for (std::size_t i = 0; i < n_; ++i) out.residues[p][i] = b[i] % q;
    get_ntt_table(q, n_).forward(out.residues[p]);
  }
  return out;
}

TorusNttContext::DomainPoly TorusNttContext::zero() const {
  DomainPoly out;
  out.residues[0].assign(n_, 0);
  out.residues[1].assign(n_, 0);
  return out;
}

void TorusNttContext::mul_accumulate(DomainPoly& acc, const DomainPoly& a,
                                     const DomainPoly& b) const {
  for (int p = 0; p < 2; ++p) {
    const Modulus& mod = get_ntt_table(primes_[p], n_).mod();
    const u64 q = primes_[p];
    for (std::size_t i = 0; i < n_; ++i) {
      acc.residues[p][i] =
          add_mod(acc.residues[p][i], mod.mul(a.residues[p][i], b.residues[p][i]), q);
    }
  }
}

TorusPoly TorusNttContext::inverse(const DomainPoly& acc) const {
  std::array<std::vector<u64>, 2> res = acc.residues;
  for (int p = 0; p < 2; ++p) get_ntt_table(primes_[p], n_).inverse(res[p]);

  const u128 big_p = u128{primes_[0]} * primes_[1];
  const u128 half_p = big_p >> 1;
  TorusPoly out(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    // Garner: x = x1 + p1 * t, t = (x2 - x1) p1^{-1} mod p2; x in [0, p1*p2).
    const u64 x1 = res[0][i];
    const u64 x2 = res[1][i];
    const u64 t = mul_mod(sub_mod(x2, x1 % primes_[1], primes_[1]), p1_inv_mod_p2_,
                          primes_[1]);
    const u128 x = u128{x1} + u128{primes_[0]} * t;
    // Center at p1*p2/2, then reduce mod 2^64 (wrap-around handles the sign).
    if (x > half_p) {
      out[i] = static_cast<u64>(x) - static_cast<u64>(big_p);
    } else {
      out[i] = static_cast<u64>(x);
    }
  }
  return out;
}

const TorusNttContext& TorusNttContext::get(std::size_t n) {
  static KeyedCache<std::size_t, TorusNttContext> cache;
  return cache.get(n, n);
}

}  // namespace alchemist::tfhe
