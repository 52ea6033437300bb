#include "tfhe/torus_poly.h"

#include <stdexcept>

#include "common/keyed_cache.h"
#include "common/primes.h"

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
  e %= 2 * static_cast<u64>(n);
  // X^e = -X^(e-N) for e >= N: shift by s and flip every sign.
  const bool negate = e >= n;
  const std::size_t s = negate ? e - n : e;
  TorusPoly out(n);
  // Coefficient i moves to i + s; the top s wrap to i + s - N with X^N = -1.
  for (std::size_t i = 0; i < n - s; ++i) {
    out.coeffs_[i + s] = negate ? ~coeffs_[i] + 1 : coeffs_[i];
  }
  for (std::size_t i = n - s; i < n; ++i) {
    out.coeffs_[i + s - n] = negate ? coeffs_[i] : ~coeffs_[i] + 1;
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

namespace {

// a mod q for any signed 64-bit a, by Barrett reduction of |a|.
u64 residue(i64 a, const Modulus& mod) {
  const u64 magnitude = mod.reduce(a >= 0 ? static_cast<u64>(a) : ~static_cast<u64>(a) + 1);
  return a >= 0 ? magnitude : mod.neg(magnitude);
}

u32 fold(u32 x, u32 bound) { return x - (bound & (x >= bound ? ~u32{0} : 0)); }

simd::NarrowCrt torus_crt(std::size_t n) {
  if (!is_power_of_two(n)) {
    throw std::invalid_argument("TorusNttContext: N must be a power of two");
  }
  const std::vector<u64> p = generate_ntt_primes(30, n, TorusNttContext::kPrimes);
  if (p[1] <= (u64{1} << 29)) {
    throw std::invalid_argument("TorusNttContext: no two NTT primes in (2^29, 2^30)");
  }
  return simd::NarrowCrt(static_cast<u32>(p[0]), static_cast<u32>(p[1]));
}

}  // namespace

TorusNttContext::TorusNttContext(std::size_t n) : n_(n), crt_(torus_crt(n)) {
  for (const u32 p : {crt_.q1, crt_.q2}) {
    tables_.emplace_back(p, n);
    mods_.emplace_back(p);
  }
}

std::vector<u32> TorusNttContext::forward_int(const std::vector<i64>& a) const {
  if (a.size() != n_) throw std::invalid_argument("forward_int: size mismatch");
  std::vector<u32> out(kPrimes * n_);
  for (std::size_t j = 0; j < kPrimes; ++j) {
    u32* dst = out.data() + j * n_;
    for (std::size_t i = 0; i < n_; ++i) dst[i] = static_cast<u32>(residue(a[i], mods_[j]));
    tables_[j].forward({dst, n_});
  }
  return out;
}

void TorusNttContext::forward_torus(const TorusPoly& b, u32* dst) const {
  if (b.degree() != n_) throw std::invalid_argument("forward_torus: size mismatch");
  for (int h = 0; h < 2; ++h) {
    for (std::size_t j = 0; j < kPrimes; ++j) {
      // The narrow forward transform takes [0, 4p) in, and as p > 2^29 one
      // subtraction of 4p brings any 32-bit half there.
      const u32 four_p = 4 * tables_[j].modulus();
      u32* out = dst + (h * kPrimes + j) * n_;
      for (std::size_t i = 0; i < n_; ++i) {
        out[i] = fold(static_cast<u32>(b[i] >> (32 * h)), four_p);
      }
      tables_[j].forward({out, n_});
    }
  }
}

TorusNttContext::DomainPoly TorusNttContext::forward_torus(const TorusPoly& b) const {
  DomainPoly out{std::vector<u32>(2 * kPrimes * n_)};
  forward_torus(b, out.residues.data());
  return out;
}

TorusNttContext::DomainPoly TorusNttContext::zero() const {
  return DomainPoly{std::vector<u32>(2 * kPrimes * n_, 0)};
}

void TorusNttContext::mul_accumulate(DomainPoly& acc, const std::vector<u32>& a,
                                     const DomainPoly& b) const {
  std::vector<u32> prod(n_);
  for (std::size_t h = 0; h < 2; ++h) {
    for (std::size_t j = 0; j < kPrimes; ++j) {
      const u32 p = tables_[j].modulus();
      const u32* aj = a.data() + j * n_;
      const u32* bj = b.residues.data() + (h * kPrimes + j) * n_;
      simd::mul_sum_narrow(&aj, &bj, 1, n_, p, prod.data());
      u32* dst = acc.residues.data() + (h * kPrimes + j) * n_;
      for (std::size_t i = 0; i < n_; ++i) dst[i] = fold(dst[i] + prod[i], p);
    }
  }
}

TorusPoly TorusNttContext::inverse(const DomainPoly& acc) const {
  std::vector<u32> res = acc.residues;
  for (std::size_t h = 0; h < 2; ++h) {
    for (std::size_t j = 0; j < kPrimes; ++j) {
      tables_[j].inverse({res.data() + (h * kPrimes + j) * n_, n_});
    }
  }
  TorusPoly out(n_);
  lift_add(res.data(), res.data() + kPrimes * n_, out.data());
  return out;
}

void TorusNttContext::digit_residues(const Torus* src, const Gadget& gadget, u32* dst) const {
  simd::gadget_residues_narrow(src, n_, gadget.offset(), gadget.bg_bits(), gadget.length(),
                               crt_, dst);
}

void TorusNttContext::lift_add(const u32* lo, const u32* hi, Torus* dst) const {
  simd::crt_lift_add_narrow(lo, hi, n_, crt_, dst);
}

const TorusNttContext& TorusNttContext::get(std::size_t n) {
  static KeyedCache<std::size_t, TorusNttContext> cache;
  return cache.get(n, n);
}

}  // namespace alchemist::tfhe
